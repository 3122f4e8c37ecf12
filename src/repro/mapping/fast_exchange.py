"""Algorithm 1 in compiled code: the ctypes driver of the mapping kernel.

The kernel is ``map_sweep`` in :mod:`repro.ckernel`, built, cached
and loaded by the same :func:`~repro.ckernel.load_kernel` as the
netsim step kernel. Each call runs one pass of the scalar oracle
in :mod:`repro.mapping.exchange`: same pair order, same acceptance
rule, same integer loads, so the accepted-swap sequence, the
placement, the loads, ``sweeps`` and ``swaps_accepted`` are the
oracle's, with escalation off and on. Sites are split into (row, col)
by tables built here (``site_r``/``site_c``), so no route divides.

A trial swap of the occupants u (at site i) and v (at site j) ends in
one of four ways, cheapest first. Every way but the last settles only
swaps the oracle rejects:

1. **Skipped**: u and v have identical *connectivity signatures* (the
   same directed neighbor/channel multiset and external-port count),
   so the swap moves no load.
2. **Rejected up front**, without moving anything: no current route
   of u or v crosses one watched edge at the maximum load (re-picked
   after each accepted swap), so the maximum cannot drop; and the hop
   change, summed in O(degree) from Manhattan and boundary distances
   (the u-v link keeps its length), is positive, or zero with
   escalation off.
3. **Aborted mid-move**: once the old routes are out, loads only rise
   while the new ones go in, so the first added route that lifts an
   edge above the maximum dooms the trial. The routes added so far
   come out, the sites are restored and the old routes go back, with
   no further adds and no max scan.
4. **Moved and scanned**: the new routes are in, a full max scan
   decides, and a rejected swap is moved back.

With no C toolchain (``load_kernel()`` is ``None``) this runs the
oracle itself: the same mapping, only slower.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import ckernel
from repro.mapping.placement import Placement
from repro.mapping.routing import EdgeLoads, IOStyle


def _int64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def pairwise_exchange_fast(
    placement: Placement,
    io_style: IOStyle = IOStyle.PERIPHERY,
    max_sweeps: int = 30,
    escalate: bool = True,
    record_swaps: Optional[list] = None,
):
    """Compiled Algorithm 1; drop-in for scalar ``pairwise_exchange``.

    Mutates ``placement`` in place to the optimized assignment (same
    contract as the scalar oracle) and returns a
    :class:`~repro.mapping.exchange.MappingResult` holding a defensive
    copy of it.
    """
    from repro.mapping.exchange import MappingResult, pairwise_exchange

    lib = ckernel.load_kernel()
    if lib is None:
        return pairwise_exchange(
            placement, io_style, max_sweeps, escalate, record_swaps
        )
    topology, grid = placement.topology, placement.grid
    n_nodes = topology.chiplet_count
    per_node = [[] for _ in range(n_nodes)]
    for link in topology.links:
        per_node[link.a].append((link.b, link.channels, 1))
        per_node[link.b].append((link.a, link.channels, 0))
    if io_style is IOStyle.PERIPHERY:
        ext = [node.external_ports for node in topology.nodes]
    else:
        ext = [0] * n_nodes
    sig_ids = {(0, ()): 0}  # the signature of an EMPTY site
    site_sig = np.zeros(grid.sites, dtype=np.int64)
    for node, entries in enumerate(per_node):
        key = (ext[node], tuple(sorted(entries)))
        site_sig[placement.site_of[node]] = sig_ids.setdefault(key, len(sig_ids))
    flat = [entry for entries in per_node for entry in entries]
    site_r, site_c = np.divmod(np.arange(grid.sites, dtype=np.int64), grid.cols)

    arrays = {
        "loads": np.zeros(grid.edge_count, dtype=np.int64),
        "site_of": _int64(placement.site_of),
        "node_at": _int64(placement.node_at),
        "site_sig": site_sig,
        "site_r": site_r,
        "site_c": site_c,
        "adj_off": _int64(np.cumsum([0] + [len(e) for e in per_node])),
        "adj_other": _int64([e[0] for e in flat]),
        "adj_ch": _int64([e[1] for e in flat]),
        "adj_is_a": _int64([e[2] for e in flat]),
        "ext": _int64(ext),
        "crit": np.zeros(grid.sites, dtype=np.int64),
    }
    if record_swaps is not None:
        # One pass accepts at most one swap per ordered site pair.
        arrays["rec_i"] = np.zeros(grid.sites ** 2, dtype=np.int64)
        arrays["rec_j"] = np.zeros(grid.sites ** 2, dtype=np.int64)
    state = ckernel.MapState(
        rows=grid.rows,
        cols=grid.cols,
        sites=grid.sites,
        edges=grid.edge_count,
        eh=grid.horizontal_edges,
        nodes=n_nodes,
    )
    for name, array in arrays.items():
        setattr(state, name, array.ctypes.data)
    lib.map_load(state)

    def sweep(escalation: int) -> int:
        accepted = lib.map_sweep(state, escalation)
        if record_swaps is not None:
            record_swaps.extend(
                zip(arrays["rec_i"][:accepted].tolist(),
                    arrays["rec_j"][:accepted].tolist())
            )
        return accepted

    sweeps = 0
    swaps = 0
    improved = True
    while improved and sweeps < max_sweeps:
        sweeps += 1
        accepted = sweep(0)
        if not accepted and escalate:
            accepted = sweep(1)
        swaps += accepted
        improved = accepted > 0
    placement.site_of[:] = arrays["site_of"].tolist()
    placement.node_at[:] = arrays["node_at"].tolist()
    h, v = np.split(arrays["loads"], [grid.horizontal_edges])
    return MappingResult(
        placement=placement.copy(),
        loads=EdgeLoads(
            grid=grid,
            h=h.reshape(grid.rows, grid.cols - 1),
            v=v.reshape(grid.rows - 1, grid.cols),
            total_channel_hops=int(state.hops),
        ),
        io_style=io_style,
        sweeps=sweeps,
        swaps_accepted=swaps,
    )
