"""DCN fabric: a folded Clos whose switches are whole wafers.

The paper's Tables VII-IX size datacenter deployments of the
waferscale switch analytically; this module builds the same leaf/spine
folded Clos *as a simulable object*, with the geometry of
:func:`repro.topology.clos.folded_clos` — each wafer plays the role the
sub-switch chiplet plays inside one wafer, one level up:

* ``wafer_radix`` external ports per wafer switch,
* ``2 * n_hosts / wafer_radix`` **leaf wafers**, each terminating
  ``wafer_radix / 2`` hosts and spreading as many uplink channels
  evenly across the spine tier (:class:`DCNShape` rejects shapes that
  do not divide, so every leaf/spine pair has
  :attr:`DCNShape.channels_per_pair` channels),
* ``n_hosts / wafer_radix`` **spine wafers**, each exactly filled.

Every wafer — leaf or spine — is therefore a radix-``wafer_radix``
switch, simulated cycle-accurately by
:func:`repro.netsim.network.waferscale_clos_network`.  A leaf wafer's
terminals ``[0, hosts_per_leaf)`` are hosts; the rest are *gateway*
terminals, one per inter-wafer uplink channel.  Spine wafer terminals
are all gateways, grouped by source leaf.

A degenerate **back-to-back** shape (two leaf wafers trunked directly,
no spine tier) is the smallest partitionable DCN and the golden parity
configuration.

Routing picks the spine and the up/down channels per DCN packet with a
splitmix64 hash of the packet id — deterministic, seed-free, and
independent of partition layout, which is what lets a partitioned run
reproduce a monolithic one bit-for-bit.  Failed hosts, gateways, and
channels (:mod:`repro.dcn.failures`) are excluded from the option set.
:meth:`DCNFabric.route_all` routes a whole run in one array pass and
masks a packet with no surviving option, which the coordinator drops
and counts; :meth:`DCNFabric.route` is the per-packet scalar oracle it
must match, raising :class:`DCNRouteError` for such a packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.netsim.network import ClosShape, NetworkModel, waferscale_clos_network

_M64 = (1 << 64) - 1
_GOLDEN, _MUL1, _MUL2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(value: int) -> int:
    """splitmix64 finalizer: one deterministic 64-bit hash per id."""
    value = (value + _GOLDEN) & _M64
    value = ((value ^ (value >> 30)) * _MUL1) & _M64
    value = ((value ^ (value >> 27)) * _MUL2) & _M64
    return value ^ (value >> 31)


def _mix_array(values: np.ndarray) -> np.ndarray:
    """:func:`_mix` over an array (uint64 arithmetic wraps mod 2**64)."""
    value = values.astype(np.uint64) + np.uint64(_GOLDEN)
    value = (value ^ (value >> np.uint64(30))) * np.uint64(_MUL1)
    value = (value ^ (value >> np.uint64(27))) * np.uint64(_MUL2)
    return value ^ (value >> np.uint64(31))


class DCNRouteError(Exception):
    """No surviving path between two hosts (failures ate them all)."""


class Segment(NamedTuple):
    """One wafer traversal: inject at ``entry``, deliver at ``exit``."""

    wafer: int
    entry: int
    exit: int


class Routes(NamedTuple):
    """Every packet's wafer hops, as arrays (see :meth:`DCNFabric.route_all`).

    Packet ``i`` crosses ``hops[i]`` wafers (0: unroutable, dropped);
    its hop ``k`` injects at terminal ``entry[i, k]`` of wafer
    ``wafer[i, k]`` and delivers at ``exit[i, k]``.  The three
    ``(n_packets, 3)`` int64 arrays hold -1 past the last hop.
    """

    wafer: np.ndarray
    entry: np.ndarray
    exit: np.ndarray
    hops: np.ndarray


@dataclass(frozen=True)
class DCNShape:
    """Geometry and per-wafer simulator knobs of a multi-wafer DCN.

    ``n_hosts`` external host ports spread over leaf wafers of radix
    ``wafer_radix``; intra-wafer Clos built from ``ssc_radix`` SSCs
    (``spine_ssc_radix`` overrides it for the spine tier).  When
    ``back_to_back`` is true the shape is the two-leaf trunked
    degenerate (requires ``n_hosts == wafer_radix``).  The smaller
    ``num_vcs``/``buffer_flits`` defaults (vs the single-wafer
    experiments) keep N-wafer sweeps tractable; both stay overridable.
    """

    n_hosts: int
    wafer_radix: int
    ssc_radix: int
    spine_ssc_radix: int = 0
    back_to_back: bool = False
    inter_wafer_latency: int = 40
    num_vcs: int = 4
    buffer_flits: int = 16

    def __post_init__(self) -> None:
        ClosShape(self.wafer_radix, self.ssc_radix)
        if self.spine_ssc_radix:
            ClosShape(self.wafer_radix, self.spine_ssc_radix)
        if self.back_to_back:
            if self.n_hosts != self.wafer_radix:
                raise ValueError(
                    "back-to-back shape needs n_hosts == wafer_radix "
                    f"({self.n_hosts} != {self.wafer_radix})"
                )
        else:
            # Same integral constraints as the intra-wafer Clos, one
            # level up (folded_clos re-validates at build time).
            ClosShape(self.n_hosts, self.wafer_radix)
        if self.inter_wafer_latency < 1:
            raise ValueError("inter_wafer_latency must be >= 1")

    @property
    def hosts_per_leaf(self) -> int:
        return self.wafer_radix // 2

    @property
    def n_leaves(self) -> int:
        return 2 * self.n_hosts // self.wafer_radix

    @property
    def n_spines(self) -> int:
        return 0 if self.back_to_back else self.n_hosts // self.wafer_radix

    @property
    def n_wafers(self) -> int:
        return self.n_leaves + self.n_spines

    @property
    def channels_per_pair(self) -> int:
        """Channels between one leaf and one spine (or the trunk)."""
        return self.hosts_per_leaf // (self.n_spines or 1)

    @property
    def wafer_terminals(self) -> int:
        return self.wafer_radix

    def leaf_of_host(self, host: int) -> int:
        return host // self.hosts_per_leaf

    def local_of_host(self, host: int) -> int:
        return host % self.hosts_per_leaf

    def ssc_radix_of(self, wafer: int) -> int:
        """SSC radix inside ``wafer`` (spine wafers may override it)."""
        if wafer >= self.n_leaves:
            return self.spine_ssc_radix or self.ssc_radix
        return self.ssc_radix


class DCNFabric:
    """Precomputed wiring + routing tables for one (shape, failures).

    ``failures`` is an optional :class:`repro.dcn.failures.DCNFailures`
    sample; ``None`` means a fault-free fabric.
    """

    def __init__(self, shape: DCNShape, failures=None):
        self.shape = shape
        self.failures = failures
        H = shape.hosts_per_leaf
        L = shape.n_leaves
        S = shape.n_spines

        # channels[l][s]: inter-wafer channel count between leaf l and
        # spine s (back-to-back: one trunk of H channels, peer implied).
        per = shape.channels_per_pair
        counts = np.full((L, S or 1), per, dtype=np.int64)
        self.channels = counts.tolist()

        # Gateway terminal offsets.  Leaf l, spine s, channel c sits at
        # leaf terminal H + leaf_gw_base[l][s] + c, and at spine
        # terminal spine_entry_base[s][l] + c.
        self._gw_base = np.cumsum(counts, axis=1) - counts
        self._entry_base = (np.cumsum(counts, axis=0) - counts).T
        self.leaf_gw_base = self._gw_base.tolist()
        self.spine_entry_base = self._entry_base.tolist()

        self._dead_terminals = frozenset(failures.dead_terminals if failures else ())
        self._dead_links = frozenset(failures.dead_links if failures else ())
        self._options: Dict[Tuple[int, int], tuple] = {}

        # Per-leaf tables: alive[l, s, :n_alive[l, s]] are the surviving
        # channel ids between leaf l and spine s (the back-to-back trunk
        # is spine 0), ascending; -1 pads the rest.  A dead terminal
        # kills its channel; a back-to-back channel dies on both sides.
        live = np.ones((L, S or 1, per), dtype=bool)
        wafer, term = np.array(list(self._dead_terminals), np.int64).reshape(-1, 2).T
        gateway = (wafer < L) & (term >= H)
        spine, channel = np.divmod(term[gateway] - H, per)
        live[wafer[gateway], spine, channel] = False
        entry = wafer >= L
        leaf, channel = np.divmod(term[entry], per)
        live[leaf, wafer[entry] - L, channel] = False
        links = np.array(list(self._dead_links), np.int64).reshape(-1, 3)
        live[tuple(links.T)] = False
        if shape.back_to_back:
            live[:] = live.all(axis=0)
        order = np.argsort(~live, axis=-1, kind="stable")
        self.alive = np.where(np.take_along_axis(live, order, -1), order, -1)
        self.n_alive = live.sum(axis=-1)

        host = (wafer < L) & (term < H)
        self.host_alive = np.ones(shape.n_hosts, dtype=bool)
        self.host_alive[wafer[host] * H + term[host]] = False
        self.alive_hosts = tuple(np.flatnonzero(self.host_alive).tolist())

    # -- wafer construction --------------------------------------------

    def build_wafer(self, wafer: int) -> NetworkModel:
        shape = self.shape
        return waferscale_clos_network(
            shape.wafer_terminals,
            shape.ssc_radix_of(wafer),
            num_vcs=shape.num_vcs,
            buffer_flits_per_port=shape.buffer_flits,
        )

    # -- failure-aware channel liveness --------------------------------

    def _channel_alive(self, leaf: int, spine: int, channel: int) -> bool:
        # Back-to-back trunk channels are one shared link; failures.py
        # keys them from leaf 0's side.
        link_key = (
            (0, spine, channel)
            if self.shape.back_to_back
            else (leaf, spine, channel)
        )
        if link_key in self._dead_links:
            return False
        H = self.shape.hosts_per_leaf
        gateway = H + self.leaf_gw_base[leaf][spine] + channel
        if (leaf, gateway) in self._dead_terminals:
            return False
        if self.shape.back_to_back:
            peer = 1 - leaf
            return (
                peer,
                H + self.leaf_gw_base[peer][spine] + channel,
            ) not in self._dead_terminals
        spine_wafer = self.shape.n_leaves + spine
        entry = self.spine_entry_base[spine][leaf] + channel
        return (spine_wafer, entry) not in self._dead_terminals

    def _pair_options(self, src_leaf: int, dst_leaf: int) -> tuple:
        """Alive ``(spine, up_channel, down_channel)`` triples, cached
        (the oracle's option list, in the order :meth:`route_all` indexes)."""
        key = (src_leaf, dst_leaf)
        cached = self._options.get(key)
        if cached is None:
            options = []
            for spine in range(len(self.channels[src_leaf])):
                ups = [
                    c
                    for c in range(self.channels[src_leaf][spine])
                    if self._channel_alive(src_leaf, spine, c)
                ]
                if self.shape.back_to_back:
                    options.extend((spine, c, c) for c in ups)
                    continue
                downs = [
                    c
                    for c in range(self.channels[dst_leaf][spine])
                    if self._channel_alive(dst_leaf, spine, c)
                ]
                options.extend(
                    (spine, up, down) for up in ups for down in downs
                )
            cached = self._options[key] = tuple(options)
        return cached

    # -- routing --------------------------------------------------------

    def route_all(self, src_hosts, dst_hosts) -> Routes:
        """Route packet ``i`` (DCN id ``i``) from ``src_hosts[i]`` to
        ``dst_hosts[i]``, every packet in one array pass.

        Packet ``i``'s options are ``Σ_s up[s]·down[s]`` alive
        ``(spine, up, down)`` triples, spine-major then up-major (a
        back-to-back trunk uses ``up`` on both sides); option
        ``_mix(i) % count`` is taken, exactly as :meth:`route` does.
        """
        shape = self.shape
        H, b2b = shape.hosts_per_leaf, shape.back_to_back
        src = np.asarray(src_hosts, dtype=np.int64)
        dst = np.asarray(dst_hosts, dtype=np.int64)
        src_leaf, src_local = np.divmod(src, H)
        dst_leaf, dst_local = np.divmod(dst, H)
        alive = self.host_alive[src] & self.host_alive[dst]

        # Option counts per distinct leaf pair, then per packet.
        ids = np.flatnonzero(alive & (src_leaf != dst_leaf))
        pairs, pair = np.unique(
            src_leaf[ids] * shape.n_leaves + dst_leaf[ids], return_inverse=True
        )
        pair_src, pair_dst = np.divmod(pairs, shape.n_leaves)
        up = self.n_alive[pair_src]
        down = np.ones_like(up) if b2b else self.n_alive[pair_dst]
        ends = np.cumsum(up * down, axis=1)
        count = ends[pair, -1]
        alive[ids[count == 0]] = False
        keep = count > 0
        ids, pair, count = ids[keep], pair[keep], count[keep]
        pick = (_mix_array(ids) % count.astype(np.uint64)).astype(np.int64)
        # Spine: the first whose cumulative option count exceeds the
        # pick, found in one search over all pair rows laid end to end.
        stride = int(ends.max(initial=0)) + 1
        offset = np.arange(len(pairs)) * stride
        spine = np.searchsorted(
            (ends + offset[:, None]).ravel(), offset[pair] + pick, side="right"
        ) - pair * ends.shape[1]
        a, b = pair_src[pair], pair_dst[pair]
        n_down = down[pair, spine]
        pick -= ends[pair, spine] - up[pair, spine] * n_down
        up_ch = self.alive[a, spine, pick // n_down]
        down_ch = up_ch if b2b else self.alive[b, spine, pick % n_down]

        wafer, entry, exit_ = (np.full((len(src), 3), -1, np.int64) for _ in range(3))
        hops = np.zeros(len(src), dtype=np.int64)
        local = np.flatnonzero(alive & (src_leaf == dst_leaf))
        wafer[local, 0], entry[local, 0] = src_leaf[local], src_local[local]
        exit_[local, 0], hops[local] = dst_local[local], 1
        last = 1 if b2b else 2
        wafer[ids, 0], entry[ids, 0] = a, src_local[ids]
        exit_[ids, 0] = H + self._gw_base[a, spine] + up_ch
        wafer[ids, last], entry[ids, last] = b, H + self._gw_base[b, spine] + down_ch
        exit_[ids, last], hops[ids] = dst_local[ids], last + 1
        if not b2b:
            wafer[ids, 1] = shape.n_leaves + spine
            entry[ids, 1] = self._entry_base[spine, a] + up_ch
            exit_[ids, 1] = self._entry_base[spine, b] + down_ch
        return Routes(wafer, entry, exit_, hops)

    def route(self, dcn_id: int, src_host: int, dst_host: int) -> List[Segment]:
        """Wafer-hop segments for one packet, or :class:`DCNRouteError`.

        The scalar oracle that :meth:`route_all` matches packet by packet
        (``tests/dcn/test_route_parity.py``); the simulator itself never
        calls it.
        """
        shape = self.shape
        src_leaf, src_local = (
            shape.leaf_of_host(src_host), shape.local_of_host(src_host)
        )
        dst_leaf, dst_local = (
            shape.leaf_of_host(dst_host), shape.local_of_host(dst_host)
        )
        dead = self._dead_terminals
        if (src_leaf, src_local) in dead or (dst_leaf, dst_local) in dead:
            raise DCNRouteError(f"host endpoint dead: {src_host}->{dst_host}")
        if src_leaf == dst_leaf:
            return [Segment(src_leaf, src_local, dst_local)]
        options = self._pair_options(src_leaf, dst_leaf)
        if not options:
            raise DCNRouteError(
                f"no surviving channel between leaves {src_leaf} and {dst_leaf}"
            )
        spine, up, down = options[_mix(dcn_id) % len(options)]
        H = shape.hosts_per_leaf
        src_gateway = H + self.leaf_gw_base[src_leaf][spine] + up
        dst_gateway = H + self.leaf_gw_base[dst_leaf][spine] + down
        if shape.back_to_back:
            return [
                Segment(src_leaf, src_local, src_gateway),
                Segment(dst_leaf, dst_gateway, dst_local),
            ]
        spine_wafer = shape.n_leaves + spine
        return [
            Segment(src_leaf, src_local, src_gateway),
            Segment(
                spine_wafer,
                self.spine_entry_base[spine][src_leaf] + up,
                self.spine_entry_base[spine][dst_leaf] + down,
            ),
            Segment(dst_leaf, dst_gateway, dst_local),
        ]
