"""Pairwise-exchange mapping optimization (paper Algorithm 1).

Starting from an initial placement, repeatedly try swapping the
occupants of every pair of sites; keep a swap iff it strictly lowers the
cost, until a full sweep makes no improvement. Cost is primarily
``C(M)`` — the maximum channel load on any inter-chiplet edge — with
total channel-hops as a tie-breaker (fewer hops = less internal I/O
power; the paper's plain ``C(M)`` cost plateaus early without it).

Two interchangeable kernels implement the sweep:

* the **scalar oracle** in this module (:func:`pairwise_exchange`):
  pure-Python incremental re-routing of the links incident to the two
  affected nodes. Simple, slow, and the definition of correctness.
* the **fast kernel** in :mod:`repro.mapping.fast_exchange`:
  delta-vectorized with numpy, replaying the oracle's accepted-swap
  sequence exactly, plus an optional Kernighan-Lin-style escalation
  pass that only ever improves the final cost.

:func:`optimize_mapping` dispatches to the fast kernel unless
``REPRO_SCALAR_MAPPING=1`` is set in the environment (the escape hatch
for auditing the vectorized path against the oracle), and can fan its
independent seeded restarts across the shared warm worker pool
(``jobs > 1``; :mod:`repro.parallel`) with deterministic best-of
selection — the same pool lifecycle the experiment scheduler and the
serve dispatcher use, so restart fan-out reuses already-warm workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

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

    ``engine`` is a :data:`repro.engines.MAPPING_ENGINES` name; the
    ``REPRO_SCALAR_MAPPING=1`` environment switch still overrides it
    (CI parity jobs pin whole processes that way).
    """
    from repro.engines import resolve_mapping_engine

    return resolve_mapping_engine(engine) == "scalar"


def mapping_engine_tag(escalate: bool = True, engine: str = "auto") -> str:
    """Cache-key tag naming the kernel a mapping was produced with.

    Scalar and fast-with-escalation results can differ (escalation only
    improves cost, but the placement differs), so persisted mappings
    must not be shared across engines.
    """
    if use_scalar_kernel(engine):
        return "scalar"
    return "fast-esc" if escalate else "fast"


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
    record_swaps: Optional[list] = None,
) -> MappingResult:
    """Run Algorithm 1 to convergence (or ``max_sweeps``).

    Contract: ``placement`` is optimized **in place** (it ends up in the
    final optimized state), but the returned result holds a defensive
    copy — callers may keep mutating their placement, or the result's,
    without the two aliasing. ``record_swaps``, if given, collects every
    accepted ``(site_i, site_j)`` in order (used by the fast/scalar
    equivalence tests).
    """
    topology = placement.topology
    incident = incident_links(topology)
    loads = compute_edge_loads(placement, io_style)
    best_cost = _cost(loads)
    swaps_accepted = 0

    sites = list(range(placement.grid.sites))
    sweeps = 0
    improved = True
    while improved and sweeps < max_sweeps:
        improved = False
        sweeps += 1
        for i_idx, site_i in enumerate(sites):
            for site_j in sites[i_idx + 1:]:
                node_i = placement.node_at[site_i]
                node_j = placement.node_at[site_j]
                if node_i == EMPTY and node_j == EMPTY:
                    continue
                affected = [n for n in (node_i, node_j) if n != EMPTY]
                _apply_nodes(loads, placement, affected, incident, io_style, -1)
                placement.swap_sites(site_i, site_j)
                _apply_nodes(loads, placement, affected, incident, io_style, +1)
                new_cost = _cost(loads)
                if new_cost < best_cost:
                    best_cost = new_cost
                    swaps_accepted += 1
                    improved = True
                    if record_swaps is not None:
                        record_swaps.append((site_i, site_j))
                else:
                    _apply_nodes(loads, placement, affected, incident, io_style, -1)
                    placement.swap_sites(site_i, site_j)
                    _apply_nodes(loads, placement, affected, incident, io_style, +1)

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
        return pairwise_exchange(start, io_style, max_sweeps=max_sweeps)
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
    mapping. ``escalate`` enables the fast kernel's plateau pass
    (ignored on the scalar path). ``engine`` picks the kernel
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
