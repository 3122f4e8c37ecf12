"""Simulation drivers: warmup / measurement, load sweeps, saturation.

Follows Booksim's methodology: run a warmup phase, then measure the
average packet latency over packets *created* during the measurement
window, then (optionally) drain. A configuration is saturated when its
average latency exceeds a multiple of the zero-load latency or its
accepted throughput stops tracking the offered load; saturation
throughput is the accepted load at an offered load beyond saturation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count, repeat
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.engines import resolve_netsim_engine
from repro.netsim import fast_core
from repro.netsim.config import SimConfig
from repro.netsim.network import NetworkModel, advance
from repro.netsim.packet import Packet, PacketIds
from repro.netsim.stats import RunEnd, RunStats
from repro.netsim.telemetry import Telemetry
from repro.netsim.traffic import BernoulliInjector, TrafficPattern, make_pattern

NetworkFactory = Callable[[], NetworkModel]

#: Latency cap (x zero-load latency) past which a run counts as saturated.
SATURATION_LATENCY_FACTOR = 4.0

#: Accepted load must reach this fraction of the offered load for a
#: point to count as below saturation (Bernoulli noise stays well
#: inside this margin at the sweep's measurement depths).
ACCEPTED_TRACKING_FACTOR = 0.75


class Simulator:
    """Drives one network instance under Bernoulli traffic.

    Packet ids come from ``packet_ids``, a fresh source when ``None``.
    """

    def __init__(
        self,
        network: NetworkModel,
        pattern: TrafficPattern,
        load: float,
        packet_size_flits: int = 4,
        seed: int = 1,
        packet_ids: Optional[PacketIds] = None,
    ):
        if pattern.n_terminals != network.n_terminals:
            raise ValueError(
                "traffic pattern terminal count does not match the network"
            )
        self.network = network
        self.injector = BernoulliInjector(
            pattern, load, packet_size_flits, seed=seed
        )
        self.load = load
        self.packet_size_flits = packet_size_flits
        self.packet_ids = packet_ids or PacketIds()

    def run(
        self,
        warmup_cycles: int = 1000,
        measure_cycles: int = 2000,
        drain_cycles: int = 3000,
        telemetry: Optional[Telemetry] = None,
        engine: str = "auto",
    ) -> RunStats:
        """Warm up, measure, and drain; return the window's statistics.

        The three phases follow Booksim's methodology (see
        :class:`~repro.netsim.config.SimConfig` for the windowing
        contract). When a :class:`~repro.netsim.telemetry.Telemetry`
        sink is given it is attached to the network and driven through
        matching ``warmup`` / ``measurement`` / ``drain`` windows, so
        its per-window counters line up with the returned
        :class:`~repro.netsim.stats.RunStats`.
        """
        network = self.network
        network.require_fresh()
        # The whole offer stream is drawn up front (RNG consumption as
        # in BernoulliInjector.stream), numbered from one block of ids
        # in stream order, and handed to whichever engine runs.
        measure_end = warmup_cycles + measure_cycles
        when, src, dst = self.injector.stream(measure_end, network.n_terminals)
        base = self.packet_ids.take(len(when))
        size = self.packet_size_flits
        stats = RunStats(
            measure_start=warmup_cycles,
            measure_end=measure_end,
            n_terminals=network.n_terminals,
        )
        stats.packets_created = int(np.count_nonzero(when >= warmup_cycles))
        stats.flits_offered = stats.packets_created * size
        # Engine selection happens once per run (repro.engines); both
        # engines produce bit-identical results
        # (tests/netsim/test_differential.py).
        fast = fast_core.engine_for(
            network, telemetry, engine=resolve_netsim_engine(engine)
        )
        if fast is not None:
            fast.append(src, dst, size, when, base=base)
            return fast._c_run_bernoulli(stats, drain_cycles)
        offers = deque(map(
            Packet, src.tolist(), dst.tolist(), repeat(size), when.tolist(),
            count(base),
        ))
        if telemetry is not None:
            telemetry.attach(network)
            telemetry.begin_window("warmup", network.cycle)
        advance(network, offers, warmup_cycles)
        if telemetry is not None:
            telemetry.begin_window("measurement", network.cycle)
        delivered_before = self._delivered_flits()
        advance(network, offers, measure_end)
        stats.flits_delivered = self._delivered_flits() - delivered_before
        # Drain: nothing is left to offer; step until the network is
        # empty, bounded by drain_cycles.
        if telemetry is not None:
            telemetry.begin_window("drain", network.cycle)
        advance(network, offers, measure_end + drain_cycles, drain=True)
        if telemetry is not None:
            telemetry.finish(network.cycle)

        for terminal in network.terminals:
            for packet in terminal.packets_received:
                stats.record_arrival(packet)
        stats.final = RunEnd.of(network)
        return stats

    def _delivered_flits(self) -> int:
        return sum(t.flits_received for t in self.network.terminals)


def run_sim(
    network: NetworkModel,
    pattern: Union[str, TrafficPattern],
    load: float,
    config: Optional[SimConfig] = None,
    telemetry: Optional[Telemetry] = None,
    engine: str = "auto",
) -> RunStats:
    """Run one warmup/measure/drain simulation on a built network.

    The one-call front door to the simulator: pass a network from
    :mod:`repro.netsim.network` (or :func:`~repro.netsim.mesh_network.
    mesh_network`), a traffic pattern — by name (see
    ``TRAFFIC_PATTERNS``) or as a :class:`~repro.netsim.traffic.
    TrafficPattern` — an offered load in flits/cycle/terminal, and
    optionally a :class:`~repro.netsim.config.SimConfig` for the
    window/seed parameters and a :class:`~repro.netsim.telemetry.
    Telemetry` sink for per-router instrumentation. ``engine`` picks
    the simulation kernel explicitly (``"auto"``, ``"c"`` or
    ``"scalar"`` — see :mod:`repro.engines`).

    >>> from repro.netsim.config import SimConfig
    >>> from repro.netsim.network import single_router_network
    >>> stats = run_sim(
    ...     single_router_network(4), "uniform", load=0.2,
    ...     config=SimConfig(warmup_cycles=50, measure_cycles=200,
    ...                      drain_cycles=100, seed=7),
    ... )
    >>> stats.packets_delivered == stats.packets_created  # nothing censored
    True
    >>> stats.avg_latency_cycles < 20  # one router, near zero-load
    True
    """
    if config is None:
        config = SimConfig()
    if isinstance(pattern, str):
        pattern = make_pattern(pattern, network.n_terminals)
    sim = Simulator(
        network,
        pattern,
        load,
        packet_size_flits=config.packet_size_flits,
        seed=config.seed,
    )
    return sim.run(
        warmup_cycles=config.warmup_cycles,
        measure_cycles=config.measure_cycles,
        drain_cycles=config.drain_cycles,
        telemetry=telemetry,
        engine=resolve_netsim_engine(engine),
    )


@dataclass(frozen=True)
class LoadLatencyPoint:
    """One point of a load-latency curve."""

    offered_load: float
    accepted_load: float
    avg_latency_cycles: float
    avg_latency_ns: float
    saturated: bool


def load_latency_sweep(
    network_factory: NetworkFactory,
    pattern_factory: Callable[[int], TrafficPattern],
    loads: Sequence[float],
    packet_size_flits: int = 4,
    warmup_cycles: int = 500,
    measure_cycles: int = 1500,
    seed: int = 1,
    telemetry_factory: Optional[Callable[[float], Optional[Telemetry]]] = None,
    engine: str = "auto",
    packet_ids: Optional[PacketIds] = None,
) -> List[LoadLatencyPoint]:
    """Average latency vs offered load (Figs 22, 23, 24 style curves).

    A fresh network is built per load point. Zero-load latency is taken
    from the first load point that is *not already saturated* — the
    point must deliver packets and its accepted load must track the
    offered load. Anchoring on a saturated first point (e.g. a sweep
    that starts past the knee) would inflate the latency criterion and
    mask saturation at every later point.

    ``telemetry_factory(load)`` may return a fresh
    :class:`~repro.netsim.telemetry.Telemetry` sink per load point
    (or ``None`` to skip a point); the caller keeps the references —
    typically a closure that writes each report to disk.

    The load points share one packet-id source (``packet_ids``, fresh
    when ``None``).
    """
    points: List[LoadLatencyPoint] = []
    zero_load_latency: Optional[float] = None
    engine = resolve_netsim_engine(engine)
    packet_ids = packet_ids or PacketIds()
    for load in loads:
        network = network_factory()
        pattern = pattern_factory(network.n_terminals)
        sim = Simulator(
            network, pattern, load, packet_size_flits, seed=seed,
            packet_ids=packet_ids,
        )
        telemetry = (
            telemetry_factory(load) if telemetry_factory is not None else None
        )
        stats = sim.run(
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            telemetry=telemetry,
            engine=engine,
        )
        latency = stats.avg_latency_cycles
        tracks_offered = stats.packets_delivered > 0 and (
            load <= 0
            or stats.accepted_load >= ACCEPTED_TRACKING_FACTOR * load
        )
        if zero_load_latency is None and latency == latency and tracks_offered:
            zero_load_latency = latency
        saturated = not tracks_offered or bool(
            zero_load_latency is not None
            and latency == latency
            and latency > SATURATION_LATENCY_FACTOR * zero_load_latency
        )
        points.append(
            LoadLatencyPoint(
                offered_load=load,
                accepted_load=stats.accepted_load,
                avg_latency_cycles=latency,
                avg_latency_ns=stats.avg_latency_ns,
                saturated=saturated,
            )
        )
    return points


def saturation_throughput(
    network_factory: NetworkFactory,
    pattern_factory: Callable[[int], TrafficPattern],
    packet_size_flits: int = 4,
    offered_load: float = 1.0,
    warmup_cycles: int = 500,
    measure_cycles: int = 1500,
    seed: int = 1,
    telemetry: Optional[Telemetry] = None,
    engine: str = "auto",
    packet_ids: Optional[PacketIds] = None,
) -> float:
    """Accepted throughput at an offered load far past saturation.

    Offering the full line rate and measuring the accepted flit rate is
    Booksim's standard estimate of saturation throughput. An optional
    ``telemetry`` sink captures the saturated network's stall
    attribution (there is no drain window: drain is skipped here).
    ``packet_ids`` as for :class:`Simulator`.
    """
    network = network_factory()
    pattern = pattern_factory(network.n_terminals)
    sim = Simulator(
        network, pattern, offered_load, packet_size_flits, seed=seed,
        packet_ids=packet_ids,
    )
    stats = sim.run(
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        drain_cycles=0,
        telemetry=telemetry,
        engine=resolve_netsim_engine(engine),
    )
    return stats.accepted_load
