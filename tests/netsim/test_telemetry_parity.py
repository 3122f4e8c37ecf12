"""Telemetry parity: the vectorized engine's instrumentation must be
field-for-field identical to the object engine's.

The scalar simulator *is* the instrumented reference implementation —
its routers and terminals bump the telemetry counters inline. The
compiled kernel maintains the same counters in C arrays and bridges
them back at window boundaries; this suite holds the bridged reports
(counters, stall attribution, occupancy samples, histograms, per-flow
histograms) to exact equality on full warmup/measurement/drain runs and
on whole trace replays.

Parity alone cannot catch a change to the oracle itself, and on a host
without the kernel both legs run the oracle. ``PINNED_REPORTS`` fixes
three reports outright, by digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from tests.netsim.engines import ENGINES
from tests.netsim.golden_scenarios import (
    DRAIN_CYCLES,
    MEASURE_CYCLES,
    SCENARIOS,
    TRACE_SCENARIOS,
    WARMUP_CYCLES,
    run_trace_scenario,
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


@pytest.mark.parametrize(
    "interval, flows", [(1, True), (7, False), (16, True)]
)
@pytest.mark.parametrize("name", sorted(TRACE_SCENARIOS))
def test_trace_telemetry_report_parity(name, interval, flows):
    """One ``replay`` window, truncated replay included."""
    vec_tel = Telemetry(sample_interval=interval, collect_flows=flows)
    ref_tel = Telemetry(sample_interval=interval, collect_flows=flows)
    vec_summary = run_trace_scenario(name, "c", telemetry=vec_tel)
    ref_summary = run_trace_scenario(name, "scalar", telemetry=ref_tel)
    vec_report = vec_tel.to_dict()
    validate_telemetry(vec_report)
    assert vec_summary == ref_summary
    assert vec_report == ref_tel.to_dict()


def _digest(report) -> str:
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


#: (scenario, sample interval) -> sha256 of the canonical-JSON report
#: of a flows-on run (Bernoulli scenarios with their drain window),
#: recorded on the scalar engine. A digest moves only when what
#: telemetry reports changes; re-record it only for such a change.
PINNED_REPORTS = {
    ("mesh_low", 4):
        "c49f383c62d2fe5350e1733d9223089b9c32b2c9d36609cd5965f21d59e62821",
    ("clos_adaptive_high", 8):
        "929d0ebbe337276b45d6e4276d9121291e9c36785ac80c557ca703d21e9682aa",
    ("trace_nekbone_clos", 7):
        "0a2753b6baa121a2e5c27df1cc1de68702aca35bfa5f8c63f1d220e8716f9f9e",
}


@pytest.mark.parametrize("engine", sorted(ENGINES.values()))
@pytest.mark.parametrize("name, interval", sorted(PINNED_REPORTS))
def test_telemetry_report_pinned(name, interval, engine):
    telemetry = Telemetry(sample_interval=interval, collect_flows=True)
    if name in TRACE_SCENARIOS:
        run_trace_scenario(name, engine, telemetry=telemetry)
    else:
        _run(name, telemetry, DRAIN_CYCLES, engine)
    assert _digest(telemetry.to_dict()) == PINNED_REPORTS[name, interval]


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


def test_pre_attached_sink_keeps_the_kernel():
    """``Telemetry.attach`` is idempotent on one network, so a sink the
    caller attached first still gets the compiled engine, and its
    report equals that of a run that attached nothing."""
    from repro import ckernel
    from repro.netsim.fast_core import FastEngine, engine_for

    if ckernel.load_kernel() is None:
        pytest.skip("no C kernel on this host")
    factory, pattern_name, load, seed = SCENARIOS["mesh_low"]
    network = factory()
    telemetry = Telemetry(sample_interval=4, collect_flows=True)
    telemetry.attach(network)
    assert isinstance(engine_for(network, telemetry, engine="c"), FastEngine)
    pattern = make_pattern(pattern_name, network.n_terminals)
    sim = Simulator(network, pattern, load, packet_size_flits=4, seed=seed)
    stats = sim.run(
        warmup_cycles=WARMUP_CYCLES,
        measure_cycles=MEASURE_CYCLES,
        drain_cycles=DRAIN_CYCLES,
        telemetry=telemetry,
        engine="c",
    )
    ref_stats, ref_report = _run(
        "mesh_low", Telemetry(sample_interval=4, collect_flows=True),
        DRAIN_CYCLES, "c",
    )
    assert _stats_tuple(stats) == _stats_tuple(ref_stats)
    assert telemetry.to_dict() == ref_report
