"""Telemetry layer: correctness, schema, and zero-cost-when-off.

Three classes of guarantee:

* **Observer only** — attaching a sink changes nothing the simulator
  computes (parity test; the golden-parity harness separately pins the
  telemetry-off behaviour to the recorded fixtures).
* **Correct accounting** — histograms match a brute-force
  reconstruction from the run's latency list; counters obey
  conservation (channel loads sum to flits forwarded); the JSON
  round-trips through the schema validator.
* **Near-zero disabled cost** — a telemetry-off run makes *zero* calls
  into ``repro.netsim.telemetry`` (deterministic structural check), and
  an optional strict-mode timing check (``REPRO_BENCH_STRICT=1``)
  bounds the disabled-mode wall-clock overhead at 2 %.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

import pytest

from repro.netsim.config import RouterConfig, SimConfig
from repro.netsim.mesh_network import mesh_network
from repro.netsim.network import single_router_network, waferscale_clos_network
from repro.netsim.sim import run_sim, saturation_throughput
from repro.netsim.telemetry import (
    LatencyHistogram,
    Telemetry,
    validate_telemetry,
)
from repro.netsim.trace import (
    SyntheticTraceSpec,
    replay_trace,
    synthetic_nersc_trace,
)
from repro.netsim.traffic import make_pattern


def small_mesh():
    return mesh_network(
        2,
        2,
        terminals_per_router=2,
        neighbor_channels=1,
        config=RouterConfig(num_vcs=2, buffer_flits_per_port=8),
        io_latency=2,
    )


CFG = SimConfig(
    warmup_cycles=120, measure_cycles=400, drain_cycles=600, seed=11
)


def run_mesh(telemetry=None, load=0.35, seed=11):
    cfg = SimConfig(
        warmup_cycles=CFG.warmup_cycles,
        measure_cycles=CFG.measure_cycles,
        drain_cycles=CFG.drain_cycles,
        seed=seed,
    )
    network = small_mesh()
    stats = run_sim(network, "uniform", load, config=cfg, telemetry=telemetry)
    return network, stats


# ----------------------------------------------------------------------
# Observer only
# ----------------------------------------------------------------------

def test_telemetry_does_not_perturb_results():
    _, plain = run_mesh(telemetry=None)
    _, observed = run_mesh(telemetry=Telemetry(sample_interval=4))
    assert observed.latencies_cycles == plain.latencies_cycles
    assert observed.flits_delivered == plain.flits_delivered
    assert observed.flits_offered == plain.flits_offered
    assert observed.packets_created == plain.packets_created


# ----------------------------------------------------------------------
# Histogram correctness
# ----------------------------------------------------------------------

def brute_force_buckets(latencies):
    """Reference bucketing: log2 buckets from the raw latency list."""
    counts = {}
    for latency in latencies:
        index = latency.bit_length() - 1 if latency > 1 else 0
        counts[index] = counts.get(index, 0) + 1
    return [
        [1 << index if index else 0, 1 << (index + 1), count]
        for index, count in sorted(counts.items())
    ]


def test_histogram_matches_brute_force_on_mesh():
    telemetry = Telemetry(sample_interval=8)
    _, stats = run_mesh(telemetry=telemetry)
    assert stats.packets_delivered > 50  # the comparison is non-trivial
    measured = telemetry.to_dict()["windows"][1]
    assert measured["name"] == "measurement"
    histogram = measured["latency"]
    # The measurement-window histogram covers exactly the packets the
    # run's latency list covers: created in the window, delivered by
    # the end of drain (telemetry records on arrival but attributes by
    # creation cycle, matching RunStats.record_arrival's filter).
    assert histogram["total"] == stats.packets_delivered
    assert histogram["min"] == min(stats.latencies_cycles)
    assert histogram["max"] == max(stats.latencies_cycles)
    assert histogram["buckets"] == brute_force_buckets(stats.latencies_cycles)
    assert histogram["avg"] == round(
        sum(stats.latencies_cycles) / len(stats.latencies_cycles), 3
    )


def test_histogram_bucket_edges():
    histogram = LatencyHistogram()
    for latency in (0, 1, 2, 3, 4, 7, 8, 1023, 1024):
        histogram.add(latency)
    buckets = {lo: (hi, count) for lo, hi, count in histogram.to_dict()["buckets"]}
    assert buckets[0] == (2, 2)  # 0 and 1 share the clamped first bucket
    assert buckets[2] == (4, 2)  # 2, 3
    assert buckets[4] == (8, 2)  # 4, 7
    assert buckets[8] == (16, 1)
    assert buckets[512] == (1024, 1)  # 1023
    assert buckets[1024] == (2048, 1)  # 1024
    assert histogram.total == 9


def test_per_flow_histograms():
    telemetry = Telemetry(sample_interval=8, collect_flows=True)
    network, stats = run_mesh(telemetry=telemetry)
    measured = telemetry.to_dict()["windows"][1]
    flows = measured["flows"]
    assert sum(f["total"] for f in flows.values()) == measured["latency"]["total"]
    # Flow keys name real terminal pairs.
    n = network.n_terminals
    for key in flows:
        src, dst = key.split("->")
        assert 0 <= int(src) < n and 0 <= int(dst) < n and src != dst


# ----------------------------------------------------------------------
# Counter conservation and stall attribution
# ----------------------------------------------------------------------

def test_channel_load_conservation():
    telemetry = Telemetry(sample_interval=8)
    _, stats = run_mesh(telemetry=telemetry)
    report = telemetry.to_dict()
    # Summed over all windows, per-router forwarded flits must equal
    # the run's cumulative per-router count.
    for router_id, total in enumerate(stats.final.flits_forwarded):
        forwarded = sum(
            window["routers"][router_id]["flits_forwarded"]
            for window in report["windows"]
        )
        assert forwarded == total


def test_saturated_clos_attributes_stalls():
    """At saturation the telemetry must name a non-trivial bottleneck."""
    telemetry = Telemetry(sample_interval=16)
    saturation_throughput(
        lambda: waferscale_clos_network(
            32, 8, num_vcs=4, buffer_flits_per_port=8
        ),
        lambda n: make_pattern("uniform", n),
        warmup_cycles=150,
        measure_cycles=400,
        telemetry=telemetry,
    )
    report = telemetry.to_dict()
    validate_telemetry(report)
    measured = next(
        w for w in report["windows"] if w["name"] == "measurement"
    )
    total_stalls = {"credit": 0, "va": 0, "rc": 0, "sa_conflict": 0}
    for router in measured["routers"]:
        for key, value in router["stall_attribution"].items():
            total_stalls[key] += value
    # A line-rate-offered Clos is contended somewhere every cycle.
    assert sum(total_stalls.values()) > measured["cycles"]
    assert total_stalls["sa_conflict"] > 0
    # Injection-side credit stalls: terminals are offered more than the
    # fabric accepts, so source queues back up against credits.
    assert sum(measured["terminals"]["credit_stall_cycles"]) > 0


def test_occupancy_sampling_bounded_by_buffer_capacity():
    telemetry = Telemetry(sample_interval=2)
    network, _ = run_mesh(telemetry=telemetry)
    cap = network.routers[0].buffer_cap
    for window in telemetry.to_dict()["windows"]:
        for router in window["routers"]:
            for avg in router["buffers"]["occupancy_avg_per_port"]:
                assert 0.0 <= avg <= cap
            for peak in router["buffers"]["occupancy_peak_per_port"]:
                assert 0 <= peak <= cap


# ----------------------------------------------------------------------
# Schema round-trip
# ----------------------------------------------------------------------

def test_json_schema_round_trip(tmp_path):
    telemetry = Telemetry(sample_interval=8)
    run_mesh(telemetry=telemetry)
    path = tmp_path / "nested" / "telemetry.json"
    telemetry.write_json(path)
    report = json.loads(path.read_text())
    validate_telemetry(report)
    assert report == json.loads(telemetry.to_json())


def test_validator_rejects_malformed_reports():
    telemetry = Telemetry(sample_interval=8)
    run_mesh(telemetry=telemetry)
    good = telemetry.to_dict()
    validate_telemetry(good)

    def corrupt(mutate):
        report = json.loads(json.dumps(good))
        mutate(report)
        with pytest.raises(ValueError):
            validate_telemetry(report)

    corrupt(lambda r: r.update(schema="something-else"))
    corrupt(lambda r: r.update(version=99))
    corrupt(lambda r: r["windows"][0].pop("latency"))
    corrupt(lambda r: r["windows"][0]["latency"]["buckets"][0].__setitem__(2, 10**9))
    corrupt(lambda r: r["windows"][0]["routers"][0]["stall_attribution"].update(credit=-1))
    corrupt(lambda r: r["windows"][0]["routers"][0]["channel_load_per_port"].append(0))
    corrupt(lambda r: r["windows"][0]["routers"][0].pop("sa"))


def test_trace_replay_window(tmp_path):
    telemetry = Telemetry(sample_interval=16)
    events = synthetic_nersc_trace(
        "nekbone", SyntheticTraceSpec(n_nodes=16, iterations=1)
    )
    network = waferscale_clos_network(16, 8, num_vcs=4, buffer_flits_per_port=8)
    stats = replay_trace(network, events, telemetry=telemetry)
    report = telemetry.to_dict()
    validate_telemetry(report)
    (window,) = report["windows"]
    assert window["name"] == "replay"
    assert window["latency"]["total"] == stats.packets_delivered
    assert stats.packets_created == len(events)


# ----------------------------------------------------------------------
# Attach rules
# ----------------------------------------------------------------------

def test_attach_is_exclusive_and_idempotent():
    network = single_router_network(4)
    telemetry = Telemetry()
    telemetry.attach(network)
    telemetry.attach(network)  # idempotent on the same network
    with pytest.raises(ValueError):
        Telemetry().attach(network)  # one sink per network
    with pytest.raises(ValueError):
        telemetry.attach(single_router_network(4))  # one network per sink


def test_sample_interval_validated():
    with pytest.raises(ValueError):
        Telemetry(sample_interval=0)


# ----------------------------------------------------------------------
# Near-zero cost when disabled
# ----------------------------------------------------------------------

def test_disabled_run_never_calls_into_telemetry():
    """With no sink attached, the hot path must not touch telemetry.py.

    This is the deterministic half of the <=2 % overhead budget: the
    disabled path is a handful of ``is not None`` checks, asserted here
    by profiling every function call of a full run and counting frames
    from the telemetry module (must be exactly zero).
    """
    import repro.netsim.telemetry as telemetry_module

    module_file = telemetry_module.__file__
    calls = {"telemetry": 0}

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == module_file:
            calls["telemetry"] += 1

    sys.setprofile(profiler)
    try:
        run_mesh(telemetry=None)
    finally:
        sys.setprofile(None)
    assert calls["telemetry"] == 0


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_STRICT") != "1",
    reason="timing-sensitive; set REPRO_BENCH_STRICT=1 to enforce the "
    "2% disabled-mode overhead budget on a quiet machine",
)
def test_disabled_overhead_within_bench_baseline():
    """Telemetry-off cycles/sec regresses <=2% vs BENCH_netsim.json.

    Re-times the recorded benchmark workloads on this tree (best of 5)
    and holds the disabled path to 98% of the cycles/sec recorded in
    the repo-root BENCH_netsim.json. Raw timings are first normalized
    by the calibration loop recorded in the same file (shared hosts
    swing 30%+ run to run; the ratio cancels that drift while real
    hot-path regressions survive it). Cross-machine / cross-load
    timing is still inherently jittery, which is why this runs only
    under REPRO_BENCH_STRICT=1 — the deterministic zero-call test
    above is the always-on guard.
    """
    bench_path = (
        pathlib.Path(__file__).resolve().parents[2] / "BENCH_netsim.json"
    )
    if not bench_path.exists():
        pytest.skip("no BENCH_netsim.json recorded on this machine")
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parents[2] / "benchmarks")
    )
    try:
        from bench_netsim_speed import calibration_score, run_workload
    finally:
        sys.path.pop(0)
    recorded = json.loads(bench_path.read_text())
    if "calibration_ops_per_sec" not in recorded:
        pytest.skip("BENCH_netsim.json predates the calibration probe; "
                    "re-run benchmarks/bench_netsim_speed.py")
    scale = calibration_score(repeats=5) / recorded["calibration_ops_per_sec"]
    for name in ("mesh_8x8_lowload", "mesh_8x8_uniform"):
        baseline = recorded["workloads"][name]["cycles_per_sec"] * scale
        # Contention only ever makes a run slower, never faster, so the
        # best observation across a few attempts is the fair estimate
        # of this tree's unloaded speed; retry before declaring a miss.
        now = 0.0
        for _ in range(4):
            now = max(now, run_workload(name, repeats=3)["cycles_per_sec"])
            if now >= 0.98 * baseline:
                break
        assert now >= 0.98 * baseline, (
            f"{name}: telemetry-off path runs at {now:.0f} cycles/s, "
            f"below the 2% budget floor {0.98 * baseline:.0f} "
            f"(recorded {recorded['workloads'][name]['cycles_per_sec']:.0f} "
            f"c/s, machine-speed scale {scale:.3f})"
        )
