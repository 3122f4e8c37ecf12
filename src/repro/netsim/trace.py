"""Application trace replay and synthetic NERSC-mini-app-like traces.

The paper replays four DOE mini-app traces (LULESH, MOCFE, MultiGrid,
Nekbone) from the NERSC "Characterization of the DOE mini-apps" dataset
through Booksim, duplicating the 512/1024-node traces 2-4x to fill the
2048-node network. Those trace files are not redistributable, so this
module generates synthetic traces with each application's documented
communication signature:

* **LULESH** — 3-D domain decomposition; bursty halo exchanges with the
  26 spatial neighbors (large faces, smaller edges/corners) per
  iteration. Highly local and bursty: the pattern that gains most from
  the waferscale switch's shallower, faster fabric.
* **MOCFE** — method-of-characteristics neutron transport: angular
  sweep pipelines along ray fronts plus periodic small reductions.
* **MultiGrid** — V-cycle: per-level nearest-neighbor exchanges whose
  message sizes shrink and whose partner strides grow as the grid
  coarsens.
* **Nekbone** — conjugate-gradient spectral-element proxy: dominant
  allreduce (recursive-doubling partners at power-of-two strides) plus
  nearest-neighbor gather/scatter.

Each generator produces a deterministic event list ``(cycle, src, dst,
size_flits)``; `duplicate_trace` replicates it onto a larger machine the
way the paper does.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.netsim.network import NetworkModel, advance
from repro.netsim.packet import Packet, PacketIds
from repro.netsim.stats import RunEnd, RunStats


@dataclass(frozen=True)
class TraceEvent:
    """One message injection: ``src`` sends ``size_flits`` at ``cycle``."""

    cycle: int
    src: int
    dst: int
    size_flits: int

    def __post_init__(self) -> None:
        if self.cycle < 0 or self.size_flits < 1:
            raise ValueError("invalid trace event")
        if self.src == self.dst:
            raise ValueError("trace event must cross the network")


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Parameters shared by the synthetic mini-app generators."""

    n_nodes: int
    iterations: int = 8
    iteration_gap_cycles: int = 200
    seed: int = 7


def _grid_dims(n_nodes: int) -> tuple:
    """Near-cubic 3-D factorization of the node count."""
    best = (n_nodes, 1, 1)
    best_score = float("inf")
    for x in range(1, n_nodes + 1):
        if n_nodes % x:
            continue
        rest = n_nodes // x
        for y in range(1, rest + 1):
            if rest % y:
                continue
            z = rest // y
            score = max(x, y, z) - min(x, y, z)
            if score < best_score:
                best_score = score
                best = (x, y, z)
    return best


def lulesh_trace(spec: SyntheticTraceSpec) -> List[TraceEvent]:
    """Bursty 3-D 26-neighbor halo exchange per iteration."""
    nx, ny, nz = _grid_dims(spec.n_nodes)
    rng = random.Random(spec.seed)
    events: List[TraceEvent] = []

    def node(x: int, y: int, z: int) -> int:
        return (x % nx) * ny * nz + (y % ny) * nz + (z % nz)

    for it in range(spec.iterations):
        base = it * spec.iteration_gap_cycles
        for x in range(nx):
            for y in range(ny):
                for z in range(nz):
                    src = node(x, y, z)
                    for dx in (-1, 0, 1):
                        for dy in (-1, 0, 1):
                            for dz in (-1, 0, 1):
                                if dx == dy == dz == 0:
                                    continue
                                dst = node(x + dx, y + dy, z + dz)
                                if dst == src:
                                    continue
                                touching = abs(dx) + abs(dy) + abs(dz)
                                # Faces are big, edges smaller, corners tiny.
                                size = {1: 8, 2: 3, 3: 1}[touching]
                                jitter = rng.randrange(4)
                                events.append(
                                    TraceEvent(base + jitter, src, dst, size)
                                )
    return sorted(events, key=lambda e: e.cycle)


def mocfe_trace(spec: SyntheticTraceSpec) -> List[TraceEvent]:
    """Angular sweep pipelines plus periodic small reductions."""
    n = spec.n_nodes
    rng = random.Random(spec.seed)
    events: List[TraceEvent] = []
    for it in range(spec.iterations):
        base = it * spec.iteration_gap_cycles
        # Four sweep directions, staggered as pipeline fronts.
        for direction, step in enumerate((1, -1, 2, -2)):
            for src in range(n):
                dst = (src + step) % n
                if dst == src:
                    continue
                stage_delay = (src if step > 0 else n - src) % 16
                events.append(
                    TraceEvent(
                        base + direction * 8 + stage_delay, src, dst, 4
                    )
                )
        # Small global reduction at iteration end.
        root = rng.randrange(n)
        for src in range(n):
            if src != root:
                events.append(
                    TraceEvent(base + spec.iteration_gap_cycles // 2, src, root, 1)
                )
    return sorted(events, key=lambda e: e.cycle)


def multigrid_trace(spec: SyntheticTraceSpec) -> List[TraceEvent]:
    """V-cycle: neighbor exchange at stride 2^level, shrinking sizes."""
    n = spec.n_nodes
    levels = max(1, (n - 1).bit_length() - 1)
    events: List[TraceEvent] = []
    for it in range(spec.iterations):
        base = it * spec.iteration_gap_cycles
        offset = 0
        # Down the V then back up.
        for level in list(range(levels)) + list(reversed(range(levels))):
            stride = 1 << level
            size = max(1, 8 >> level)
            active = range(0, n, stride)
            for src in active:
                dst = (src + stride) % n
                if dst == src:
                    continue
                events.append(TraceEvent(base + offset, src, dst, size))
            offset += 6
    return sorted(events, key=lambda e: e.cycle)


def nekbone_trace(spec: SyntheticTraceSpec) -> List[TraceEvent]:
    """CG solver: recursive-doubling allreduce + neighbor gather/scatter."""
    n = spec.n_nodes
    if n & (n - 1):
        raise ValueError("nekbone trace needs a power-of-two node count")
    rounds = n.bit_length() - 1
    events: List[TraceEvent] = []
    for it in range(spec.iterations):
        base = it * spec.iteration_gap_cycles
        # Nearest-neighbor gather/scatter (spectral element faces).
        for src in range(n):
            events.append(TraceEvent(base, src, (src + 1) % n, 4))
            events.append(TraceEvent(base, src, (src - 1) % n, 4))
        # Recursive-doubling allreduce.
        for r in range(rounds):
            stride = 1 << r
            for src in range(n):
                events.append(
                    TraceEvent(base + 10 + 4 * r, src, src ^ stride, 1)
                )
    return sorted(events, key=lambda e: e.cycle)


_GENERATORS: Dict[str, Callable[[SyntheticTraceSpec], List[TraceEvent]]] = {
    "lulesh": lulesh_trace,
    "mocfe": mocfe_trace,
    "multigrid": multigrid_trace,
    "nekbone": nekbone_trace,
}

TRACE_NAMES = tuple(sorted(_GENERATORS))


def synthetic_nersc_trace(
    name: str, spec: SyntheticTraceSpec
) -> List[TraceEvent]:
    """Generate a synthetic mini-app trace by name."""
    try:
        generator = _GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown trace {name!r}; choose from {TRACE_NAMES}"
        ) from None
    return generator(spec)


def duplicate_trace(
    events: Sequence[TraceEvent], copies: int, nodes_per_copy: int
) -> List[TraceEvent]:
    """Replicate a trace onto a larger machine (the paper's 2x/4x trick).

    Copy ``c`` runs on terminals ``[c * nodes_per_copy, (c+1) * ...)``.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    duplicated: List[TraceEvent] = []
    for copy in range(copies):
        offset = copy * nodes_per_copy
        for event in events:
            duplicated.append(
                TraceEvent(
                    event.cycle,
                    event.src + offset,
                    event.dst + offset,
                    event.size_flits,
                )
            )
    return sorted(duplicated, key=lambda e: e.cycle)


def replay_trace(
    network: NetworkModel,
    events: Sequence[TraceEvent],
    compression: float = 1.0,
    max_cycles: int = 200_000,
    telemetry=None,
    engine: str = "auto",
    packet_ids: Optional[PacketIds] = None,
) -> RunStats:
    """Replay a trace to completion and return its statistics.

    ``compression`` scales injection timestamps: 2.0 injects twice as
    fast (the load knob for the Fig 24 curves). An optional
    :class:`~repro.netsim.telemetry.Telemetry` sink is driven through a
    single ``replay`` window spanning the whole run (trace replay has
    no warmup/measurement split — every packet counts). ``engine``
    picks the simulation kernel explicitly (see :mod:`repro.engines`),
    resolved once here; the compiled kernel runs the replay, telemetry
    or not, wherever :func:`~repro.netsim.fast_core.engine_for`
    accepts the network.

    Packets take ids from ``packet_ids`` (fresh when ``None``) in
    schedule order; a ``max_cycles`` cutoff leaves the source just past
    the last packet offered.
    """
    if compression <= 0:
        raise ValueError("compression must be positive")
    network.require_fresh()
    packet_ids = packet_ids or PacketIds()
    from repro.engines import resolve_netsim_engine
    from repro.netsim import fast_core

    schedule = sorted(
        ((max(0, int(e.cycle / compression)), e) for e in events),
        key=lambda pair: pair[0],
    )
    # A capped replay steps at least once whenever there is anything
    # to run (the cap is checked after a step).
    limit = max(max_cycles, network.cycle + 1)
    fast = fast_core.engine_for(
        network, telemetry, engine=resolve_netsim_engine(engine)
    )
    if fast is not None:
        fast.append(
            [event.src for _, event in schedule],
            [event.dst for _, event in schedule],
            [event.size_flits for _, event in schedule],
            [cycle for cycle, _ in schedule],
            base=packet_ids.next,
        )
        return fast.run_replay(limit, packet_ids)
    offers = deque(
        Packet(event.src, event.dst, event.size_flits, cycle, packet_id)
        for packet_id, (cycle, event) in enumerate(schedule, packet_ids.next)
    )
    if telemetry is not None:
        telemetry.attach(network)
        telemetry.begin_window("replay", network.cycle)
    advance(network, offers, limit, drain=True)
    offered = len(schedule) - len(offers)
    packet_ids.take(offered)
    stats = RunStats(
        measure_start=0, measure_end=network.cycle,
        n_terminals=network.n_terminals,
    )
    stats.packets_created = offered
    stats.flits_offered = sum(e.size_flits for _, e in schedule[:offered])
    if telemetry is not None:
        telemetry.finish(network.cycle)
    for terminal in network.terminals:
        for packet in terminal.packets_received:
            stats.latencies_cycles.append(packet.latency_cycles)
            stats.flits_delivered += packet.size_flits
    stats.final = RunEnd.of(network)
    return stats
