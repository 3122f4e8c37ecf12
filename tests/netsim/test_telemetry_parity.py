"""Telemetry parity: the vectorized engine's instrumentation must be
field-for-field identical to the object engine's.

The scalar simulator *is* the instrumented reference implementation —
its routers and terminals bump the telemetry counters inline. The
compiled kernel maintains the same counters in C arrays and bridges
them back at window boundaries; this suite holds the bridged reports
(counters, stall attribution, occupancy samples, histograms, per-flow
histograms) to exact equality on full warmup/measurement/drain runs.
"""

from __future__ import annotations

import pytest

from tests.netsim.golden_scenarios import (
    DRAIN_CYCLES,
    MEASURE_CYCLES,
    SCENARIOS,
    WARMUP_CYCLES,
)

from repro.netsim.network import single_router_network
from repro.netsim.sim import Simulator
from repro.netsim.telemetry import Telemetry, validate_telemetry
from repro.netsim.traffic import make_pattern


def _run(name, telemetry, drain_cycles, engine):
    """One clean-slate golden-scenario run with a telemetry sink."""
    factory, pattern_name, load, seed = SCENARIOS[name]
    network = factory()
    pattern = make_pattern(pattern_name, network.n_terminals)
    sim = Simulator(network, pattern, load, packet_size_flits=4, seed=seed)
    stats = sim.run(
        warmup_cycles=WARMUP_CYCLES,
        measure_cycles=MEASURE_CYCLES,
        drain_cycles=drain_cycles,
        telemetry=telemetry,
        engine=engine,
    )
    return stats, telemetry.to_dict()


def _stats_tuple(stats):
    return (
        stats.measure_start,
        stats.measure_end,
        list(stats.latencies_cycles),
        stats.flits_delivered,
        stats.flits_offered,
        stats.packets_created,
    )


@pytest.mark.parametrize(
    "name, interval, flows, drain",
    [
        ("mesh_low", 4, True, DRAIN_CYCLES),
        ("mesh_high", 16, False, DRAIN_CYCLES),
        ("clos_high", 1, False, 0),  # saturated, no drain window
        ("clos_adaptive_high", 8, True, DRAIN_CYCLES),
    ],
)
def test_telemetry_report_parity(name, interval, flows, drain):
    vec_stats, vec_report = _run(
        name, Telemetry(sample_interval=interval, collect_flows=flows),
        drain, "c",
    )
    ref_stats, ref_report = _run(
        name, Telemetry(sample_interval=interval, collect_flows=flows),
        drain, "scalar",
    )
    validate_telemetry(vec_report)
    assert _stats_tuple(vec_stats) == _stats_tuple(ref_stats)
    # Windows first: a divergence here names the window and is far
    # easier to read than the whole-report diff below.
    for vec_window, ref_window in zip(
        vec_report["windows"], ref_report["windows"]
    ):
        assert vec_window == ref_window, (name, vec_window.get("name"))
    assert vec_report == ref_report


def test_telemetry_parity_single_router():
    """Smallest network: every port is terminal-facing."""
    def run(engine):
        telemetry = Telemetry(sample_interval=2, collect_flows=True)
        network = single_router_network(4)
        pattern = make_pattern("uniform", 4)
        sim = Simulator(network, pattern, 0.5, packet_size_flits=4, seed=3)
        stats = sim.run(
            warmup_cycles=60,
            measure_cycles=200,
            drain_cycles=200,
            telemetry=telemetry,
            engine=engine,
        )
        return _stats_tuple(stats), telemetry.to_dict()

    assert run("c") == run("scalar")


def test_telemetry_attach_conflicts_still_raise():
    """Engine dispatch must not weaken the attach contract."""
    factory, pattern_name, load, seed = SCENARIOS["mesh_low"]
    network = factory()
    telemetry = Telemetry()
    telemetry.attach(network)
    pattern = make_pattern(pattern_name, network.n_terminals)
    sim = Simulator(network, pattern, load, packet_size_flits=4, seed=seed)
    other = Telemetry()
    other.attach(single_router_network(2))
    with pytest.raises(ValueError):
        sim.run(
            warmup_cycles=10,
            measure_cycles=10,
            drain_cycles=10,
            telemetry=other,
        )
