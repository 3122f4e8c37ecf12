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

Each generator returns a deterministic offer table (int64 rows
``(cycle, src, dst, size)`` stably sorted by cycle, see
:func:`repro.netsim.network.check_offers`); `duplicate_trace`
replicates it onto a larger machine the way the paper does.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.netsim.network import (
    NetworkModel, advance, check_offers, offer_packets,
)
from repro.netsim.packet import PacketIds
from repro.netsim.stats import RunEnd, RunStats


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


def _rows(cycle, src, dst, size) -> np.ndarray:
    """An offer table from four columns, broadcast together and read in
    C order."""
    columns = np.broadcast_arrays(cycle, src, dst, size)
    return np.column_stack([c.ravel() for c in columns]).astype(np.int64)


def _by_cycle(rows: np.ndarray) -> np.ndarray:
    """``rows`` stably sorted by cycle."""
    return rows[np.argsort(rows[:, 0], kind="stable")]


def _iterate(
    spec: SyntheticTraceSpec, iteration: Callable[[int], np.ndarray]
) -> np.ndarray:
    """Every iteration's rows, iteration ``i`` (``iteration(i)``, in
    cycles from its start) ``i * iteration_gap_cycles`` late."""
    gap = spec.iteration_gap_cycles
    return _by_cycle(np.concatenate([np.zeros((0, 4), dtype=np.int64)] + [
        iteration(i) + [i * gap, 0, 0, 0] for i in range(spec.iterations)
    ]))


def lulesh_trace(spec: SyntheticTraceSpec) -> np.ndarray:
    """Bursty 3-D 26-neighbor halo exchange per iteration."""
    nx, ny, nz = _grid_dims(spec.n_nodes)
    rng = random.Random(spec.seed)
    # Every node (x, y, z in C order) to each neighbor, (dx, dy, dz) in
    # C order too; faces are big, edges smaller, corners tiny.
    offsets = np.array(
        [d for d in itertools.product((-1, 0, 1), repeat=3) if any(d)]
    )
    x, y, z = np.indices((nx, ny, nz)).reshape(3, -1, 1)
    dx, dy, dz = offsets.T
    dst = ((x + dx) % nx * ny + (y + dy) % ny) * nz + (z + dz) % nz
    src = np.arange(spec.n_nodes)[:, None]
    size = np.array([0, 8, 3, 1])[np.abs(offsets).sum(axis=1)]
    halo = _rows(0, src, dst, size)[(dst != src).ravel()]

    def iteration(_):
        jitter = [rng.randrange(4) for _ in range(len(halo))]
        return halo + np.outer(jitter, [1, 0, 0, 0])

    return _iterate(spec, iteration)


def mocfe_trace(spec: SyntheticTraceSpec) -> np.ndarray:
    """Angular sweep pipelines plus periodic small reductions."""
    n = spec.n_nodes
    rng = random.Random(spec.seed)
    src = np.arange(n)
    # Four sweep directions, staggered as pipeline fronts.
    sweeps = []
    for direction, step in enumerate((1, -1, 2, -2)):
        dst = (src + step) % n
        stage_delay = (src if step > 0 else n - src) % 16
        cycle = direction * 8 + stage_delay
        sweeps.append(_rows(cycle, src, dst, 4)[dst != src])

    def iteration(_):
        # Small global reduction at iteration end.
        root = rng.randrange(n)
        half = spec.iteration_gap_cycles // 2
        return np.concatenate(sweeps + [_rows(half, src, root, 1)[src != root]])

    return _iterate(spec, iteration)


def multigrid_trace(spec: SyntheticTraceSpec) -> np.ndarray:
    """V-cycle: neighbor exchange at stride 2^level, shrinking sizes."""
    n = spec.n_nodes
    levels = max(1, (n - 1).bit_length() - 1)
    stages = []
    # Down the V then back up, 6 cycles a level.
    for k, level in enumerate([*range(levels), *reversed(range(levels))]):
        stride = 1 << level
        src = np.arange(0, n, stride)
        dst = (src + stride) % n
        stages.append(_rows(6 * k, src, dst, max(1, 8 >> level))[dst != src])
    v_cycle = np.concatenate(stages)
    return _iterate(spec, lambda _: v_cycle)


def nekbone_trace(spec: SyntheticTraceSpec) -> np.ndarray:
    """CG solver: recursive-doubling allreduce + neighbor gather/scatter."""
    n = spec.n_nodes
    if n & (n - 1) or n == 1:
        raise ValueError("nekbone trace needs a power-of-two node count > 1")
    src = np.arange(n)
    # Nearest-neighbor gather/scatter (spectral element faces): each
    # source sends to src + 1, then to src - 1.
    faces = np.stack(((src + 1) % n, (src - 1) % n), axis=1).ravel()
    # Recursive-doubling allreduce.
    iteration = np.concatenate([_rows(0, np.repeat(src, 2), faces, 4)] + [
        _rows(10 + 4 * r, src, src ^ (1 << r), 1)
        for r in range(n.bit_length() - 1)
    ])
    return _iterate(spec, lambda _: iteration)


_GENERATORS: Dict[str, Callable[[SyntheticTraceSpec], np.ndarray]] = {
    "lulesh": lulesh_trace,
    "mocfe": mocfe_trace,
    "multigrid": multigrid_trace,
    "nekbone": nekbone_trace,
}

TRACE_NAMES = tuple(sorted(_GENERATORS))


def synthetic_nersc_trace(name: str, spec: SyntheticTraceSpec) -> np.ndarray:
    """Generate a synthetic mini-app trace by name."""
    try:
        generator = _GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown trace {name!r}; choose from {TRACE_NAMES}"
        ) from None
    return generator(spec)


def duplicate_trace(rows, copies: int, nodes_per_copy: int) -> np.ndarray:
    """Replicate a trace onto a larger machine (the paper's 2x/4x trick).

    Copy ``c`` runs on terminals ``[c * nodes_per_copy, (c+1) * ...)``.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    copied = np.tile(np.asarray(rows, dtype=np.int64), (copies, 1, 1))
    copied[..., 1:3] += (np.arange(copies) * nodes_per_copy)[:, None, None]
    return _by_cycle(copied.reshape(-1, 4))


def compress_trace(rows: np.ndarray, compression: float) -> np.ndarray:
    """The schedule :func:`replay_trace` runs: every cycle divided by
    ``compression`` in float64, truncated toward zero and floored at 0,
    with the rows stably sorted by the new cycle."""
    if compression <= 0:
        raise ValueError("compression must be positive")
    schedule = rows.copy()
    schedule[:, 0] = np.maximum(0, (rows[:, 0] / compression).astype(np.int64))
    return _by_cycle(schedule)


def replay_trace(
    network: NetworkModel,
    rows,
    compression: float = 1.0,
    max_cycles: int = 200_000,
    telemetry=None,
    engine: str = "auto",
    packet_ids: Optional[PacketIds] = None,
) -> RunStats:
    """Replay an offer table to completion and return its statistics.

    ``rows`` are checked (:func:`~repro.netsim.network.check_offers`)
    before either engine runs; ``compression`` divides their cycles
    (:func:`compress_trace`): 2.0 injects twice as fast (the load knob
    for the Fig 24 curves). An optional
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
    schedule = compress_trace(
        check_offers(rows, network.n_terminals), compression
    )
    network.require_fresh()
    packet_ids = packet_ids or PacketIds()
    from repro.engines import resolve_netsim_engine
    from repro.netsim import fast_core

    # A capped replay steps at least once whenever there is anything
    # to run (the cap is checked after a step).
    limit = max(max_cycles, network.cycle + 1)
    fast = fast_core.engine_for(
        network, telemetry, engine=resolve_netsim_engine(engine)
    )
    if fast is not None:
        fast.append(schedule, base=packet_ids.next)
        return fast.run_replay(limit, packet_ids)
    offers = offer_packets(schedule, packet_ids.next)
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
    stats.flits_offered = int(schedule[:offered, 3].sum())
    if telemetry is not None:
        telemetry.finish(network.cycle)
    for terminal in network.terminals:
        for packet in terminal.packets_received:
            stats.latencies_cycles.append(packet.latency_cycles)
            stats.flits_delivered += packet.size_flits
    stats.final = RunEnd.of(network)
    return stats
