"""Network construction: waferscale Clos and its switch-network twin.

Both the waferscale switch and the baseline "equivalent switch network"
are 2-level folded Clos fabrics of sub-switches; what differs is the
physics (Section VI):

* **Waferscale** — SSC-to-SSC links are on-wafer (1 cycle = 20 ns),
  SSC pipeline delay 11 cycles, and optionally the proprietary
  destination-tag routing (RC of 2 cycles at ingress, 1 in transit).
* **Baseline** — switch boxes connected by in-rack PCB / optical links
  (8 cycles), box pipeline delay 15 cycles, conventional Layer-3 route
  computation (4 cycles) at every hop.

Host-to-switch I/O delay is 8 cycles for both.

Every builder returns a :class:`NetworkModel` over a frozen spec
(:class:`ClosSpec`, :class:`SingleRouterSpec`,
:class:`~repro.netsim.mesh_network.MeshSpec`); see there for the lazy
object graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.netsim.config import RouterConfig
from repro.netsim.link import CreditChannel, Link
from repro.netsim.packet import Flit, Packet
from repro.netsim.router import Router
from repro.netsim.terminal import Terminal


class NetworkModel:
    """A wired network of routers and terminals plus its cycle driver.

    ``step`` is driven by an active-set scheduler: links and credit
    channels sit on event calendars (dicts of ``cycle -> [indices]``
    buckets) keyed by their next arrival cycle, so idle channels are
    never touched, idle terminals are skipped, and a router's
    allocation stages only run when it has pending work. The
    cycle-by-cycle behaviour is identical to stepping every component
    (``tests/netsim/test_golden_parity.py`` holds it to that).

    A network is its builder's frozen, hashable ``spec`` (a
    :class:`_Spec`). The ``Router``/``Link``/``Terminal`` object graph
    is built from it on first touch of ``routers``, ``terminals`` or
    ``links``: when the scalar oracle runs, or when a caller inspects
    or edits it. Reading ``name``, ``n_terminals``, ``cycle`` or
    ``spec`` never builds it. The compiled kernel reads the spec alone
    (:func:`repro.netsim.fast_core.compile_spec`, memoized per spec per
    process) and declines a network whose graph was touched before its
    run: the graph may have been edited, so that run goes to the
    oracle.
    """

    def __init__(self, name: str, spec: "_Spec"):
        self.name = name
        self.spec = spec
        #: The clock. Every run starts at 0, so a network runs once. A
        #: compiled-kernel run advances only this; the run's counters
        #: come back on its :class:`~repro.netsim.stats.RunStats`.
        self.cycle = 0
        #: Optional :class:`~repro.netsim.telemetry.Telemetry` sink; set
        #: by ``Telemetry.attach``. ``None`` costs one check per ``step``.
        self.telemetry = None
        #: The object graph, built from ``spec`` on first touch.
        self._routers: Optional[List[Router]] = None
        self._terminals: Optional[List[Terminal]] = None
        #: (link, sink_kind, sink, port) per registered link.
        self._links: List[tuple] = []
        #: arrival cycle -> [index into ``links``] — flits in flight.
        self._link_events: Dict[int, list] = {}
        #: arrival cycle -> [index into ``_credit_sinks``].
        self._credit_events: Dict[int, list] = {}
        #: (channel, consuming router, out port) per registered channel.
        self._credit_sinks: List[tuple] = []
        #: Bound ``receive_flit`` per link (None for terminal sinks).
        self._link_handlers: List[Optional[Callable]] = []

    @property
    def graph_built(self) -> bool:
        return self._routers is not None

    def _graph(self) -> None:
        if self._routers is None:
            self._routers, self._terminals = self.spec.build(self)
            if self.telemetry is not None:
                self.telemetry.wire(self)

    @property
    def routers(self) -> List[Router]:
        self._graph()
        return self._routers

    @property
    def terminals(self) -> List[Terminal]:
        self._graph()
        return self._terminals

    @property
    def links(self) -> List[tuple]:
        self._graph()
        return self._links

    @property
    def n_terminals(self) -> int:
        return self.spec.n_terminals

    def add_link(self, link: Link, sink_kind: str, sink, port: int) -> None:
        """Register a flit link and its sink with the event scheduler."""
        link.watch(self._link_events, len(self._links))
        self._links.append((link, sink_kind, sink, port))
        # Router delivery is bound once here; terminal delivery stays a
        # live attribute lookup (tests spy on ``Terminal.receive``).
        self._link_handlers.append(
            sink.receive_flit if sink_kind == "router" else None
        )

    def add_credit_channel(
        self, channel: CreditChannel, router: Router, port: int
    ) -> None:
        """Register a router-bound credit channel with the scheduler."""
        channel.watch(self._credit_events, len(self._credit_sinks))
        self._credit_sinks.append((channel, router, port))

    def step(self) -> None:
        """Advance the whole network by one cycle."""
        now = self.cycle
        # 1. Deliver flits whose link latency has elapsed. Every send
        # lands strictly in the future and step visits every cycle, so
        # popping exactly the ``now`` bucket never misses an arrival.
        bucket = self._link_events.pop(now, None)
        if bucket is not None:
            links = self.links
            handlers = self._link_handlers
            link_events = self._link_events
            for index in bucket:
                link, _, sink, port = links[index]
                pending = link._in_flight
                handler = handlers[index]
                if handler is not None:
                    while pending and pending[0][0] <= now:
                        handler(port, pending.popleft()[1], now)
                else:
                    while pending and pending[0][0] <= now:
                        sink.receive(pending.popleft()[1], now)
                if pending:
                    arrival = pending[0][0]
                    tail = link_events.get(arrival)
                    if tail is None:
                        link_events[arrival] = [index]
                    else:
                        tail.append(index)
        # 2. Credits return; terminals inject.
        bucket = self._credit_events.pop(now, None)
        if bucket is not None:
            sinks = self._credit_sinks
            credit_events = self._credit_events
            for index in bucket:
                channel, router, port = sinks[index]
                pending = channel._in_flight
                total = 0
                while pending and pending[0][0] <= now:
                    total += pending.popleft()[1]
                router.out_credits[port] += total
                if pending:
                    arrival = pending[0][0]
                    tail = credit_events.get(arrival)
                    if tail is None:
                        credit_events[arrival] = [index]
                    else:
                        tail.append(index)
        for terminal in self.terminals:
            # Idle terminals (empty source queue) have nothing to do;
            # their credit returns are absorbed lazily on next use.
            if terminal.source_queue:
                terminal.inject(now)
        # 3. Router pipelines (only where work is pending). Each router
        # counts into its own telemetry view; the network samples
        # occupancy every ``sample_interval`` cycles when a sink is on.
        for router in self.routers:
            if router.rc_pending:
                router.vc_allocate(now)
            if router.active_out_ports:
                router.switch_allocate(now)
        telemetry = self.telemetry
        if telemetry is not None and now % telemetry.sample_interval == 0:
            telemetry.sample(self, now)
        self.cycle += 1

    def require_fresh(self) -> None:
        """Refuse a network whose clock has moved: a network runs once."""
        if self.cycle != 0:
            raise RuntimeError(
                f"network {self.name!r} has already run (cycle "
                f"{self.cycle}); build a fresh network"
            )

    def in_flight_flits(self) -> int:
        """Flits queued at sources, in router buffers or on the wire."""
        buffered = sum(router._buffered_total for router in self.routers)
        on_wire = sum(len(link._in_flight) for link, _, _, _ in self.links)
        backlog = sum(len(t.source_queue) for t in self.terminals)
        return buffered + on_wire + backlog

    def idle(self) -> bool:
        """Nothing queued, buffered, awaiting allocation or on a wire:
        a step would only move the clock."""
        return not (
            self._link_events
            or self._credit_events
            or any(t.source_queue for t in self.terminals)
            or any(
                r._buffered_total or r.rc_pending or r.active_out_ports
                for r in self.routers
            )
        )


def advance(
    network: NetworkModel, offers: Deque[Packet], limit: int,
    drain: bool = False,
) -> None:
    """Run ``network`` under the kernel's run contract (``fast_run`` in
    :mod:`repro.ckernel`), the scalar oracle's one driving loop.

    ``offers`` holds packets sorted by ``create_cycle``, none before
    the clock. Each cycle offers the packets due by then, then steps,
    until the clock reaches ``limit`` or, with ``drain``, once
    ``offers`` is used up and nothing is in flight. Without a
    telemetry sink, idle stretches are jumped to the next offer's
    cycle; a sink samples every cycle, so it sees them stepped.
    """
    terminals = network.terminals
    step = network.step
    jump = network.telemetry is None
    while network.cycle < limit:
        now = network.cycle
        while offers and offers[0].create_cycle <= now:
            packet = offers.popleft()
            terminals[packet.src].offer_packet(packet)
        if drain and not offers and network.in_flight_flits() == 0:
            return
        if jump and network.idle():
            network.cycle = (
                min(offers[0].create_cycle, limit) if offers else limit
            )
            continue
        step()


# ----------------------------------------------------------------------
# Folded-Clos wiring
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClosShape:
    """Integer geometry of a 2-level folded Clos of sub-switches."""

    n_terminals: int
    ssc_radix: int

    def __post_init__(self) -> None:
        k = self.ssc_radix
        if k % 2 != 0:
            raise ValueError("SSC radix must be even")
        if self.n_terminals % k != 0 or self.n_terminals < k:
            raise ValueError(
                f"terminal count {self.n_terminals} must be a positive "
                f"multiple of the SSC radix {k}"
            )
        if (k // 2) % self.n_spines != 0:
            raise ValueError(
                "leaf uplinks must divide evenly across spines "
                f"(k/2={k // 2}, spines={self.n_spines})"
            )

    @property
    def down_per_leaf(self) -> int:
        return self.ssc_radix // 2

    @property
    def n_leaves(self) -> int:
        return 2 * self.n_terminals // self.ssc_radix

    @property
    def n_spines(self) -> int:
        return self.n_terminals // self.ssc_radix

    @property
    def channels_per_pair(self) -> int:
        return self.down_per_leaf // self.n_spines


def _clos_route(
    shape: ClosShape, spine_selection: str = "hash"
) -> Callable[[Router, int, Flit], int]:
    """Route function for the folded Clos.

    Leaves: ports [0, down) face terminals; port ``down + s*cpp + c`` is
    uplink channel ``c`` to spine ``s``. Spines: port ``l*cpp + c`` is
    channel ``c`` to leaf ``l``.

    ``spine_selection`` picks the uplink at the ingress leaf:
      * ``"hash"`` — oblivious, hashes the packet id across the Clos's
        path diversity (the paper's baseline behaviour).
      * ``"adaptive"`` — credit-based: take the uplink port with the
        most downstream credits (UGAL-like local adaptivity).
    """
    down = shape.down_per_leaf
    cpp = shape.channels_per_pair
    spines = shape.n_spines
    leaves = shape.n_leaves
    adaptive = spine_selection == "adaptive"
    # The (leaf, local) split of every destination is fixed by the
    # shape; precompute it once instead of divmod-ing per RC.
    dst_leaf_of = [dst // down for dst in range(shape.n_terminals)]
    dst_local_of = [dst % down for dst in range(shape.n_terminals)]
    uplinks = range(down, down + spines * cpp)

    def route(router: Router, in_port: int, flit: Flit) -> int:
        dst = flit.dst
        if router.router_id < leaves:
            if router.router_id == dst_leaf_of[dst]:
                return dst_local_of[dst]
            if adaptive:
                return max(uplinks, key=lambda p: router.out_credits[p])
            packet_id = flit.packet.packet_id
            return down + (packet_id % spines) * cpp + (packet_id // spines) % cpp
        # Spine router: ids are offset by the leaf count.
        return dst_leaf_of[dst] * cpp + flit.packet.packet_id % cpp

    return route


def _wire(
    network: NetworkModel,
    src_router: Router,
    src_port: int,
    dst_router: Router,
    dst_port: int,
    latency: int,
) -> None:
    """Connect two router ports with a flit link + credit channel."""
    link = Link(latency)
    credits = CreditChannel(latency)
    src_router.attach_output(
        src_port,
        link,
        downstream_capacity=dst_router.config.buffer_flits_per_port,
        is_terminal=False,
    )
    dst_router.attach_input(dst_port, credits, from_terminal=False)
    network.add_link(link, "router", dst_router, dst_port)
    network.add_credit_channel(credits, src_router, src_port)


def _wire_terminal(
    network: NetworkModel,
    terminal: Terminal,
    router: Router,
    port: int,
    latency: int,
) -> None:
    """Bidirectional terminal attachment (inject + eject paths)."""
    inject = Link(latency)
    inject_credits = CreditChannel(latency)
    terminal.attach(
        inject, inject_credits, initial_credits=router.config.buffer_flits_per_port
    )
    router.attach_input(port, inject_credits, from_terminal=True)
    network.add_link(inject, "router", router, port)

    eject = Link(latency)
    router.attach_output(
        port, eject, downstream_capacity=0, is_terminal=True
    )
    network.add_link(eject, "terminal", terminal, port)


class _Spec:
    """What the spec of a library builder shares (frozen dataclasses).

    A spec holds everything its builder wires. :meth:`ports` gives the
    wiring as arrays; :func:`repro.netsim.fast_core.compile_spec`
    compiles them into the kernel's tables and :meth:`build` wires the
    object graph from them. Equal specs wire equal networks, so a spec
    is a cache key.
    """

    #: RC delay at terminal-facing input ports; ``None``: the config's.
    ingress_routing_delay: Optional[int] = None

    def ports(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The wiring over port groups ``g = router * n_ports + port``:
        int64 arrays of the router port group each port links to (-1 if
        none), the terminal it faces (-1 if none) and that link's
        latency. Every link runs both ways at one latency, each
        direction with a credit channel against it."""
        peer = np.full(self.n_routers * self.n_ports, -1, dtype=np.int64)
        terminal = peer.copy()
        latency = np.zeros_like(peer)
        self._ports(peer, terminal, latency)
        return peer, terminal, latency

    def build(self, network: NetworkModel):
        """Wire the object graph into ``network``; return its routers
        and terminals."""
        P = self.n_ports
        route_fn = self._route()
        routers = [
            Router(
                r, P, self.config, route_fn,
                ingress_routing_delay=self.ingress_routing_delay,
            )
            for r in range(self.n_routers)
        ]
        terminals = [
            Terminal(t, self.config.num_vcs) for t in range(self.n_terminals)
        ]
        peer, terminal, latency = (a.tolist() for a in self.ports())
        for g, (to, t, cycles) in enumerate(zip(peer, terminal, latency)):
            router, port = routers[g // P], g % P
            if t >= 0:
                _wire_terminal(network, terminals[t], router, port, cycles)
            elif to >= 0:
                _wire(network, router, port, routers[to // P], to % P, cycles)
        return routers, terminals


def _check_latency(latency: int, what: str) -> None:
    if latency < 1:
        raise ValueError(f"{what} latency must be >= 1 cycle")


@dataclass(frozen=True)
class ClosSpec(_Spec):
    """A folded Clos as :func:`clos_network` wires it."""

    n_terminals: int
    ssc_radix: int
    config: RouterConfig
    io_latency: int
    #: Leaf-to-spine link latency, ``pair_latencies[leaf][spine]``.
    pair_latencies: Tuple[Tuple[int, ...], ...]
    ingress_routing_delay: Optional[int] = None
    spine_selection: str = "hash"

    kind = "clos"

    def __post_init__(self) -> None:
        ClosShape(self.n_terminals, self.ssc_radix)
        if self.spine_selection not in ("hash", "adaptive"):
            raise ValueError(
                f"unknown spine selection {self.spine_selection!r}"
            )
        _check_latency(self.io_latency, "I/O")
        for row in self.pair_latencies:
            for latency in row:
                _check_latency(latency, "link")

    @property
    def shape(self) -> ClosShape:
        return ClosShape(self.n_terminals, self.ssc_radix)

    @property
    def n_routers(self) -> int:
        return self.shape.n_leaves + self.shape.n_spines

    @property
    def n_ports(self) -> int:
        return self.ssc_radix

    def _route(self):
        return _clos_route(self.shape, self.spine_selection)

    def _ports(self, peer, terminal, latency) -> None:
        shape = self.shape
        k = self.ssc_radix
        down = shape.down_per_leaf
        cpp = shape.channels_per_pair
        leaves = shape.n_leaves
        hosts = (np.arange(leaves)[:, None] * k + np.arange(down)).ravel()
        terminal[hosts] = np.arange(self.n_terminals)
        latency[hosts] = self.io_latency
        leaf, spine, channel = np.indices(
            (leaves, shape.n_spines, cpp)
        ).reshape(3, -1)
        up = leaf * k + down + spine * cpp + channel
        back = (leaves + spine) * k + leaf * cpp + channel
        peer[up], peer[back] = back, up
        latency[up] = latency[back] = np.array(
            self.pair_latencies, dtype=np.int64
        )[leaf, spine]


def clos_network(
    name: str,
    n_terminals: int,
    ssc_radix: int,
    config: RouterConfig,
    inter_switch_latency: int,
    io_latency: int,
    ingress_routing_delay: Optional[int] = None,
    spine_selection: str = "hash",
    pair_latency_fn: Optional[Callable[[int, int], int]] = None,
) -> NetworkModel:
    """A 2-level folded Clos network of sub-switch routers.

    ``pair_latency_fn(leaf, spine)`` overrides the uniform
    ``inter_switch_latency`` per leaf-spine pair — used to model the
    non-uniform link latencies a mesh-mapped Clos actually has
    (Section IV's "input buffers handle non-uniform latency" claim).
    It is called once per pair here, into the network's spec.
    """
    shape = ClosShape(n_terminals, ssc_radix)
    spines = range(shape.n_spines)
    pair_latencies = tuple(
        tuple(
            inter_switch_latency if pair_latency_fn is None
            else pair_latency_fn(leaf, spine)
            for spine in spines
        )
        for leaf in range(shape.n_leaves)
    )
    spec = ClosSpec(
        n_terminals, ssc_radix, config, io_latency, pair_latencies,
        ingress_routing_delay, spine_selection,
    )
    return NetworkModel(name, spec=spec)


def mapped_pair_latency_fn(mapping, cycles_per_hop: float = 1.0):
    """Per-pair link latencies from a physical mapping.

    Given a :class:`~repro.mapping.exchange.MappingResult` of the same
    folded Clos, returns ``pair_latency_fn(leaf, spine)`` = the
    Manhattan hop distance between the two chiplets' sites scaled by
    ``cycles_per_hop`` (min 1 cycle). Lets the simulator model the
    non-uniform latencies a mesh-mapped Clos actually has.
    """
    placement = mapping.placement
    topology = placement.topology
    leaves = topology.leaves()
    spines = topology.spines()

    def pair_latency(leaf: int, spine: int) -> int:
        site_a = placement.site_of[leaves[leaf].index]
        site_b = placement.site_of[spines[spine].index]
        hops = placement.grid.manhattan(site_a, site_b)
        return max(1, round(hops * cycles_per_hop))

    return pair_latency


# ----------------------------------------------------------------------
# The paper's two comparison configurations (Section VI)
# ----------------------------------------------------------------------

def waferscale_clos_network(
    n_terminals: int,
    ssc_radix: int,
    num_vcs: int = 16,
    buffer_flits_per_port: int = 32,
    ssc_pipeline_delay: int = 11,
    routing_delay: int = 1,
    ingress_routing_delay: Optional[int] = 2,
    link_latency: int = 1,
    io_latency: int = 8,
) -> NetworkModel:
    """The waferscale switch: on-wafer links, proprietary routing."""
    config = RouterConfig(
        num_vcs=num_vcs,
        buffer_flits_per_port=buffer_flits_per_port,
        routing_delay=routing_delay,
        pipeline_delay=ssc_pipeline_delay,
    )
    return clos_network(
        "waferscale",
        n_terminals,
        ssc_radix,
        config,
        inter_switch_latency=link_latency,
        io_latency=io_latency,
        ingress_routing_delay=ingress_routing_delay,
    )


def baseline_switch_network(
    n_terminals: int,
    ssc_radix: int,
    num_vcs: int = 16,
    buffer_flits_per_port: int = 32,
    switch_pipeline_delay: int = 15,
    routing_delay: int = 4,
    link_latency: int = 8,
    io_latency: int = 8,
) -> NetworkModel:
    """The equivalent discrete switch network (TH-5 boxes + optics)."""
    config = RouterConfig(
        num_vcs=num_vcs,
        buffer_flits_per_port=buffer_flits_per_port,
        routing_delay=routing_delay,
        pipeline_delay=switch_pipeline_delay,
    )
    return clos_network(
        "switch-network",
        n_terminals,
        ssc_radix,
        config,
        inter_switch_latency=link_latency,
        io_latency=io_latency,
        ingress_routing_delay=None,
    )


@dataclass(frozen=True)
class SingleRouterSpec(_Spec):
    """A lone router with every port on a terminal."""

    n_terminals: int
    config: RouterConfig
    io_latency: int

    kind = "single"
    n_routers = 1

    def __post_init__(self) -> None:
        _check_latency(self.io_latency, "I/O")

    @property
    def n_ports(self) -> int:
        return self.n_terminals

    def _route(self):
        def route(router: Router, in_port: int, flit: Flit) -> int:
            return flit.dst

        return route

    def _ports(self, peer, terminal, latency) -> None:
        terminal[:] = np.arange(self.n_terminals)
        latency[:] = self.io_latency


def single_router_network(
    n_terminals: int,
    num_vcs: int = 4,
    buffer_flits_per_port: int = 8,
    routing_delay: int = 1,
    pipeline_delay: int = 1,
    io_latency: int = 1,
) -> NetworkModel:
    """A lone router with all ports on terminals (unit testing)."""
    config = RouterConfig(
        num_vcs=num_vcs,
        buffer_flits_per_port=buffer_flits_per_port,
        routing_delay=routing_delay,
        pipeline_delay=pipeline_delay,
    )
    if n_terminals < 1:
        raise ValueError("router needs at least one port")
    spec = SingleRouterSpec(n_terminals, config, io_latency)
    return NetworkModel("single-router", spec=spec)
