"""Pairwise-exchange mapping optimization (paper Algorithm 1).

Starting from an initial placement, repeatedly try swapping the
occupants of every pair of sites; keep a swap iff it strictly lowers the
cost, until a full sweep makes no improvement. Cost is primarily
``C(M)`` — the maximum channel load on any inter-chiplet edge — with
total channel-hops as a tie-breaker (fewer hops = less internal I/O
power; the paper's plain ``C(M)`` cost plateaus early without it). An
optional Kernighan-Lin-style escalation pass (on by default) walks cost
plateaus once a sweep stops improving; see :func:`pairwise_exchange`.

Two interchangeable kernels implement the sweep, both modes included:

* the **scalar oracle** in this module (:func:`pairwise_exchange`):
  pure-Python incremental re-routing of the links incident to the two
  affected nodes. Simple, slow, and the definition of correctness.
* the **C kernel** driven by :mod:`repro.mapping.fast_exchange`: the
  same passes compiled (``map_sweep`` in :mod:`repro.ckernel`),
  replaying the oracle's accepted-swap sequence exactly.

:func:`optimize_mapping` dispatches to the C kernel unless its
``engine="scalar"`` argument asks for the oracle (the way to audit the
kernel against it). A host with no C toolchain runs the oracle: the
same mappings, only slower (some 400x on the largest wafer,
``kernel_speedup`` in ``BENCH_mapping.json``).
Independent seeded restarts can fan across the shared warm worker pool
(``jobs > 1``; :mod:`repro.parallel`) with deterministic best-of
selection — the same pool lifecycle the experiment scheduler and the
serve dispatcher use, so restart fan-out reuses already-warm workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.mapping.grid import WaferGrid, grid_for
from repro.mapping.placement import EMPTY, Placement, initial_placement
from repro.mapping.routing import (
    EdgeLoads,
    IOStyle,
    apply_external,
    apply_link,
    compute_edge_loads,
    incident_links,
)
from repro.topology.base import LogicalTopology

Cost = Tuple[int, int]

#: Schema tag/version for :meth:`MappingResult.to_dict` payloads.
MAPPING_RESULT_SCHEMA = "repro-mapping-result"
MAPPING_RESULT_SCHEMA_VERSION = 1


def use_scalar_kernel(engine: str = "auto") -> bool:
    """Whether this run resolves to the scalar mapping oracle.

    ``engine`` is a :data:`repro.engines.MAPPING_ENGINES` name.
    """
    from repro.engines import resolve_mapping_engine

    return resolve_mapping_engine(engine) == "scalar"


def mapping_kernel_tag(escalate: bool = True, engine: str = "auto") -> str:
    """Cache-key tag naming the kernel and mode a mapping came from.

    Both kernels return the same mapping in each mode, but the tag
    keeps them apart anyway, so a run on the oracle computes its
    mappings rather than reading the C kernel's from a cache.
    """
    kernel = "scalar" if use_scalar_kernel(engine) else "fast"
    return f"{kernel}-esc" if escalate else kernel


@dataclass
class MappingResult:
    """A mapped topology: placement plus its routed edge loads.

    ``placement`` is owned by the result (optimizers hand over a
    defensive copy), so mutating it — e.g. ``swap_sites`` in a what-if
    sweep — cannot corrupt optimizer or cache state.
    """

    placement: Placement
    loads: EdgeLoads
    io_style: IOStyle
    sweeps: int
    swaps_accepted: int

    @property
    def max_edge_channels(self) -> int:
        return self.loads.max_edge_channels

    @property
    def total_channel_hops(self) -> int:
        return self.loads.total_channel_hops

    def cost(self) -> Cost:
        return (self.max_edge_channels, self.total_channel_hops)

    def copy(self) -> "MappingResult":
        """Deep-enough copy: shares nothing mutable with the original."""
        return MappingResult(
            placement=self.placement.copy(),
            loads=self.loads.copy(),
            io_style=self.io_style,
            sweeps=self.sweeps,
            swaps_accepted=self.swaps_accepted,
        )

    def to_dict(self) -> dict:
        """Versioned JSON-serializable form (see :meth:`from_dict`).

        One serialization path for mappings: the persistent store
        (:mod:`repro.mapping.store`) and server responses
        (:mod:`repro.api`) both emit exactly this payload. The
        topology itself is *not* embedded — a mapping is meaningless
        without one, so :meth:`from_dict` takes it as an argument
        (typically reconstructed via
        :meth:`repro.topology.base.LogicalTopology.from_dict`).
        """
        grid = self.placement.grid
        return {
            "schema": MAPPING_RESULT_SCHEMA,
            "version": MAPPING_RESULT_SCHEMA_VERSION,
            "grid": [grid.rows, grid.cols],
            "io_style": self.io_style.value,
            "site_of": [int(s) for s in self.placement.site_of],
            "h": [int(x) for x in self.loads.h.ravel()],
            "v": [int(x) for x in self.loads.v.ravel()],
            "total_channel_hops": int(self.loads.total_channel_hops),
            "sweeps": int(self.sweeps),
            "swaps_accepted": int(self.swaps_accepted),
        }

    @classmethod
    def from_dict(cls, payload: dict, topology: LogicalTopology) -> "MappingResult":
        """Inverse of :meth:`to_dict` for the given topology.

        The rebuilt result is freshly allocated — callers own it
        outright and may mutate it freely.
        """
        import numpy as np

        from repro.mapping.routing import EdgeLoads

        if payload.get("schema") != MAPPING_RESULT_SCHEMA:
            raise ValueError(f"not a {MAPPING_RESULT_SCHEMA} payload")
        if payload.get("version") != MAPPING_RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported {MAPPING_RESULT_SCHEMA} version "
                f"{payload.get('version')!r}"
            )
        rows, cols = (int(x) for x in payload["grid"])
        grid = WaferGrid(rows, cols)
        placement = Placement.from_assignment(
            grid, topology, [int(s) for s in payload["site_of"]]
        )
        loads = EdgeLoads(
            grid=grid,
            h=np.array(payload["h"], dtype=np.int64).reshape(
                rows, max(cols - 1, 0)
            ),
            v=np.array(payload["v"], dtype=np.int64).reshape(
                max(rows - 1, 0), cols
            ),
            total_channel_hops=int(payload["total_channel_hops"]),
        )
        return cls(
            placement=placement,
            loads=loads,
            io_style=IOStyle(payload["io_style"]),
            sweeps=int(payload["sweeps"]),
            swaps_accepted=int(payload["swaps_accepted"]),
        )


def _cost(loads: EdgeLoads) -> Cost:
    return (loads.max_edge_channels, loads.total_channel_hops)


def _extended_cost(loads: EdgeLoads) -> Tuple[int, int, int]:
    """``(max load, total hops, #edges at max load)``."""
    top = loads.max_edge_channels
    at_top = int((loads.h == top).sum() + (loads.v == top).sum())
    return (top, loads.total_channel_hops, at_top)


def _critical_sites(placement: Placement, loads: EdgeLoads) -> List[int]:
    """Occupied sites on an edge carrying the max load, ascending."""
    top = loads.max_edge_channels
    cols = placement.grid.cols
    sites: Set[int] = set()
    for row, col in zip(*np.nonzero(loads.h == top)):
        sites.update((row * cols + col, row * cols + col + 1))
    for row, col in zip(*np.nonzero(loads.v == top)):
        sites.update((row * cols + col, (row + 1) * cols + col))
    return [int(s) for s in sorted(sites) if placement.node_at[s] != EMPTY]


def _apply_nodes(
    loads: EdgeLoads,
    placement: Placement,
    nodes: List[int],
    incident,
    io_style: IOStyle,
    sign: int,
) -> None:
    """Add/remove all load contributions touching the given nodes."""
    seen: Set[Tuple[int, int]] = set()
    for node in nodes:
        for link in incident[node]:
            key = (link.a, link.b)
            if key in seen:
                continue
            seen.add(key)
            apply_link(loads, placement, link, sign)
        apply_external(loads, placement, node, io_style, sign)


def pairwise_exchange(
    placement: Placement,
    io_style: IOStyle = IOStyle.PERIPHERY,
    max_sweeps: int = 30,
    escalate: bool = True,
    record_swaps: Optional[list] = None,
) -> MappingResult:
    """Run Algorithm 1 to convergence (or ``max_sweeps``).

    A sweep tries every site pair ``i < j`` in order and keeps a swap
    iff it strictly lowers ``(max load, total hops)``. With
    ``escalate``, a sweep that keeps nothing is followed by an
    escalation pass: each occupied site on a max-load edge (taken at
    the start of the pass) against every other site, keeping a swap iff
    it strictly lowers ``(max load, total hops, #edges at max load)``.
    That walks cost plateaus toward states where sweeps improve again;
    it never ends worse. A pass that keeps a swap counts the sweep as
    improving.

    Contract: ``placement`` is optimized **in place** (it ends up in the
    final optimized state), but the returned result holds a defensive
    copy — callers may keep mutating their placement, or the result's,
    without the two aliasing. ``record_swaps``, if given, collects every
    accepted ``(site_i, site_j)`` in order (used by the kernel/oracle
    equivalence tests).
    """
    incident = incident_links(placement.topology)
    loads = compute_edge_loads(placement, io_style)
    node_at = placement.node_at

    def swap(site_i: int, site_j: int) -> None:
        affected = [n for n in (node_at[site_i], node_at[site_j]) if n != EMPTY]
        _apply_nodes(loads, placement, affected, incident, io_style, -1)
        placement.swap_sites(site_i, site_j)
        _apply_nodes(loads, placement, affected, incident, io_style, +1)

    def run_pass(pairs, cost) -> int:
        best = cost(loads)
        accepted = 0
        for site_i, site_j in pairs:
            if node_at[site_i] == EMPTY and node_at[site_j] == EMPTY:
                continue
            swap(site_i, site_j)
            new = cost(loads)
            if new < best:
                best = new
                accepted += 1
                if record_swaps is not None:
                    record_swaps.append((site_i, site_j))
            else:
                swap(site_i, site_j)
        return accepted

    n_sites = placement.grid.sites
    sweeps = 0
    swaps_accepted = 0
    improved = True
    while improved and sweeps < max_sweeps:
        sweeps += 1
        pairs = ((i, j) for i in range(n_sites) for j in range(i + 1, n_sites))
        accepted = run_pass(pairs, _cost)
        if not accepted and escalate:
            critical = _critical_sites(placement, loads)
            pairs = ((i, j) for i in critical for j in range(n_sites) if j != i)
            accepted = run_pass(pairs, _extended_cost)
        swaps_accepted += accepted
        improved = accepted > 0

    return MappingResult(
        placement=placement.copy(),
        loads=loads,
        io_style=io_style,
        sweeps=sweeps,
        swaps_accepted=swaps_accepted,
    )


def _run_restart(
    topology: LogicalTopology,
    grid: WaferGrid,
    io_style: IOStyle,
    strategy: str,
    seed: int,
    restart: int,
    max_sweeps: int,
    scalar: bool,
    escalate: bool,
) -> MappingResult:
    """One seeded restart: build the start, run the selected kernel.

    Module-level (not a closure) so parallel restarts can ship it to
    pool workers; everything it touches is deterministic in its
    arguments, so worker and in-process execution agree bit-for-bit.
    """
    if strategy == "mixed":
        start_strategy = "random" if restart % 2 == 0 else "leaves_out"
    else:
        start_strategy = strategy
    rng = random.Random(seed + restart)
    start = initial_placement(topology, grid, strategy=start_strategy, rng=rng)
    if scalar:
        return pairwise_exchange(
            start, io_style, max_sweeps=max_sweeps, escalate=escalate
        )
    from repro.mapping.fast_exchange import pairwise_exchange_fast

    return pairwise_exchange_fast(
        start, io_style, max_sweeps=max_sweeps, escalate=escalate
    )


def optimize_mapping(
    topology: LogicalTopology,
    grid: Optional[WaferGrid] = None,
    io_style: IOStyle = IOStyle.PERIPHERY,
    restarts: int = 4,
    seed: int = 0,
    strategy: str = "mixed",
    max_sweeps: int = 30,
    jobs: int = 1,
    escalate: bool = True,
    engine: str = "auto",
) -> MappingResult:
    """Multi-restart pairwise exchange; returns the best mapping found.

    The paper uses 1000 random restarts but reports <1 % spread between
    trials; we use a handful of seeded restarts, alternating random and
    leaves-out-heuristic starts by default (``strategy="mixed"``) —
    random starts escape the heuristic's local optima on mid-size Clos
    instances while the heuristic wins on boundary-constrained ones.

    ``jobs > 1`` fans the independent restarts over the shared warm
    worker pool (which may degrade the request to serial on small
    machines; see :func:`repro.parallel.effective_jobs`); selection is
    deterministic either way — lowest cost wins, ties broken by
    restart index — so serial and parallel runs return the same
    mapping. ``escalate`` enables the plateau pass of
    :func:`pairwise_exchange` (either kernel). ``engine`` picks the kernel
    explicitly (``"auto"``, ``"fast"`` or ``"scalar"``, see
    :mod:`repro.engines`); the resolved choice rides into pool workers
    through the task tuples, so parallel restarts use the same kernel.
    """
    if grid is None:
        grid = grid_for(topology.chiplet_count)
    scalar = use_scalar_kernel(engine)
    n_restarts = max(1, restarts)
    tasks = [
        (topology, grid, io_style, strategy, seed, restart, max_sweeps, scalar, escalate)
        for restart in range(n_restarts)
    ]
    if jobs > 1 and n_restarts > 1:
        from repro.parallel import pool_map

        labels = [f"restart[{r}]" for r in range(n_restarts)]
        results = pool_map(_run_restart, tasks, jobs=jobs, labels=labels)
    else:
        results = [_run_restart(*task) for task in tasks]
    best = results[0]
    for result in results[1:]:
        if result.cost() < best.cost():
            best = result
    return best
