"""Netsim throughput microbenchmark (cycles/sec, flits/sec).

Tracks the simulator's own speed — the quantity every load sweep and
trace replay multiplies — on fixed workloads:

* ``mesh_8x8_uniform`` — the headline workload: 8x8 mesh, 2 terminals
  per router, uniform Bernoulli traffic at 0.3 flits/cycle/terminal.
* ``clos_256_uniform`` — a 256-terminal waferscale Clos at 0.3 load.
* ``mesh_8x8_lowload`` — the same mesh at 0.02 load, where the
  active-set scheduler should shine (most components idle).
* ``mesh_4x4_lulesh_replay`` — the golden-corpus LULESH trace (10
  iterations instead of 3) replayed on the golden 4x4 mesh: the
  kernel's replay mode, which runs the Figs 21-24 traces.

The ``setup`` section prices what a run pays before its first cycle on
the fig23 Clos shape: a fresh network to a runnable kernel engine with
its compiled tables already memoized, against building the scalar
oracle's object graph. Its gate is the ratio of the two, timed in one
process (at most :data:`SETUP_GATE_RATIO`).

Usage::

    PYTHONPATH=src python benchmarks/bench_netsim_speed.py

Writes ``BENCH_netsim.json`` next to the repo root with cycles/sec and
flits/sec per workload, plus the speedup over
``benchmarks/baselines/netsim_speed_baseline.json`` (recorded before
the hot-path optimization).  Pass ``--update-baseline`` to overwrite
that baseline (only meaningful on a pre-change tree or to re-anchor
after intentional behaviour changes).

Also collected by pytest as a quick smoke test (one tiny run).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import time

from repro.netsim.config import RouterConfig
from repro.netsim.mesh_network import mesh_network
from repro.netsim.network import waferscale_clos_network
from repro.netsim.sim import Simulator
from repro.netsim.trace import (
    SyntheticTraceSpec,
    replay_trace,
    synthetic_nersc_trace,
)
from repro.netsim.traffic import make_pattern

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "baselines" / "netsim_speed_baseline.json"
ARTIFACT_PATH = REPO_ROOT / "BENCH_netsim.json"


def _mesh_8x8():
    return mesh_network(
        8,
        8,
        terminals_per_router=2,
        neighbor_channels=2,
        config=RouterConfig(num_vcs=4, buffer_flits_per_port=16),
    )


def _clos_256():
    return waferscale_clos_network(256, 32, num_vcs=4, buffer_flits_per_port=16)


def _golden_mesh():
    """The golden corpus's 4x4 mesh (tests/netsim/golden_scenarios.py)."""
    return mesh_network(
        4,
        4,
        terminals_per_router=2,
        neighbor_channels=2,
        config=RouterConfig(num_vcs=2, buffer_flits_per_port=8),
        io_latency=2,
    )


def _bernoulli(factory, load, warmup, measure):
    """Uniform Bernoulli load point (warmup, measure, <=1000 drain)."""

    def prepare():
        network = factory()
        pattern = make_pattern("uniform", network.n_terminals)
        sim = Simulator(network, pattern, load, packet_size_flits=4, seed=7)
        return network, lambda telemetry, engine: sim.run(
            warmup_cycles=warmup,
            measure_cycles=measure,
            drain_cycles=1000,
            telemetry=telemetry,
            engine=engine,
        )

    return prepare


def _replay(factory, trace, iterations, max_cycles):
    """Synthetic mini-app trace replayed to completion (or the cap)."""

    def prepare():
        network = factory()
        spec = SyntheticTraceSpec(
            n_nodes=network.n_terminals,
            iterations=iterations,
            iteration_gap_cycles=120,
            seed=21,
        )
        events = synthetic_nersc_trace(trace, spec)
        return network, lambda telemetry, engine: replay_trace(
            network, events, max_cycles=max_cycles, telemetry=telemetry,
            engine=engine,
        )

    return prepare


#: name -> prepare() returning (network, run(telemetry, engine) ->
#: RunStats); only ``run`` is timed.
WORKLOADS = {
    "mesh_8x8_uniform": _bernoulli(_mesh_8x8, 0.30, 200, 1200),
    "clos_256_uniform": _bernoulli(_clos_256, 0.30, 200, 800),
    "mesh_8x8_lowload": _bernoulli(_mesh_8x8, 0.02, 200, 1200),
    # The golden LULESH trace runs 3 iterations (~600 cycles); 10 make
    # the timed replay (~1800 cycles) long enough to gate on.
    "mesh_4x4_lulesh_replay": _replay(_golden_mesh, "lulesh", 10, 20_000),
}


def run_workload(
    name: str, repeats: int = 1, telemetry_factory=None, engine: str = "auto"
) -> dict:
    """Time one workload; report the best of ``repeats`` runs.

    ``telemetry_factory`` (e.g. ``lambda: Telemetry()``) attaches a
    fresh telemetry sink per run — used by the on/off overhead section.
    ``engine`` is the netsim engine name (see :mod:`repro.engines`).
    """
    best = None
    for _ in range(repeats):
        network, run = WORKLOADS[name]()
        telemetry = telemetry_factory() if telemetry_factory else None
        start = time.perf_counter()
        stats = run(telemetry, engine)
        elapsed = time.perf_counter() - start
        flits_moved = sum(stats.final.flits_forwarded)
        result = {
            "workload": name,
            "cycles": network.cycle,
            "wall_seconds": round(elapsed, 4),
            "cycles_per_sec": round(network.cycle / elapsed, 1),
            "flits_forwarded": flits_moved,
            "flits_per_sec": round(flits_moved / elapsed, 1),
            "packets_delivered": stats.packets_delivered,
        }
        if best is None or result["cycles_per_sec"] > best["cycles_per_sec"]:
            best = result
    return best


#: Iterations of the calibration loop (fixed work, pure bytecode).
CALIBRATION_LOOPS = 300_000


def calibration_score(repeats: int = 3) -> float:
    """Machine-speed probe: ops/sec of a fixed pure-Python loop.

    Recorded into ``BENCH_netsim.json`` next to the workload timings so
    later runs can normalize away host-speed drift (shared containers
    swing 30%+ run to run): dividing a workload's cycles/sec by the
    same run's calibration score yields a machine-independent ratio
    that the strict overhead test compares across recordings.
    """
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        slots = {}
        for i in range(CALIBRATION_LOOPS):
            acc += i & 7
            slots[i & 63] = acc
        elapsed = time.perf_counter() - start
        best = max(best, CALIBRATION_LOOPS / elapsed)
    return best


def telemetry_overhead(name: str = "mesh_8x8_uniform", repeats: int = 3) -> dict:
    """Telemetry on-vs-off cost on one workload (best-of-repeats).

    ``off`` is the disabled path (the one the golden-parity suite and
    every default run take) — its budget is <=2 % slower than the
    recorded BENCH baseline. ``on`` prices the opt-in instrumentation.
    """
    from repro.netsim.telemetry import Telemetry

    off = run_workload(name, repeats)
    on = run_workload(name, repeats, telemetry_factory=lambda: Telemetry())
    return {
        "workload": name,
        "off_cycles_per_sec": off["cycles_per_sec"],
        "on_cycles_per_sec": on["cycles_per_sec"],
        "enabled_overhead_pct": round(
            (off["cycles_per_sec"] / on["cycles_per_sec"] - 1.0) * 100.0, 1
        ),
    }


def engine_speedup(vectorized: dict, repeats: int = 1) -> dict:
    """Vectorized-engine speedup over the scalar oracle, per workload.

    Re-runs every workload with ``engine="scalar"`` (the object
    simulator that the differential harness holds the vectorized core
    to bit parity with) and divides the vectorized cycles/sec from the
    same report. The scalar runs are slow — this is the section that
    prices exactly how slow.
    """
    section = {}
    for name in WORKLOADS:
        scalar = run_workload(name, repeats, engine="scalar")
        section[name] = {
            "scalar_cycles_per_sec": scalar["cycles_per_sec"],
            "vectorized_cycles_per_sec": vectorized[name]["cycles_per_sec"],
            "speedup": round(
                vectorized[name]["cycles_per_sec"] / scalar["cycles_per_sec"],
                2,
            ),
        }
    return section


#: A memo hit (network to runnable engine) may take at most this share
#: of building the oracle's object graph, both timed in one process.
SETUP_GATE_RATIO = 0.25


def setup_cost(samples: int = 101) -> dict:
    """Median spec-to-engine time on a memo hit vs the graph build.

    Both start from the fig23 waferscale Clos builder call: one times
    ``engine_for`` on the fresh network (its spec already compiled),
    the other touches ``routers``, which builds the ``Router``/``Link``/
    ``Terminal`` graph the scalar oracle runs. The gate is their
    ratio, so host speed cancels; it is skipped without the kernel.
    """
    from repro.experiments import fig23
    from repro.experiments.common import sim_scale
    from repro.netsim import fast_core

    factory = fig23._factory(sim_scale(True), "waferscale")

    def median_ms(run):
        times = []
        for _ in range(samples):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    spec = factory().spec
    section = {
        "shape": f"clos n={spec.n_terminals} k={spec.ssc_radix} "
                 f"vcs={spec.config.num_vcs}",
        "max_ratio": SETUP_GATE_RATIO,
    }
    if fast_core.engine_for(factory(), engine="c") is None:
        section.update(skipped="no C kernel on this host", passed=True)
        return section
    hit = median_ms(lambda: fast_core.engine_for(factory(), engine="c"))
    graph = median_ms(lambda: factory().routers)
    section.update(
        memo_hit_ms=round(hit, 4),
        graph_build_ms=round(graph, 4),
        ratio=round(hit / graph, 3),
        passed=hit <= SETUP_GATE_RATIO * graph,
    )
    return section


#: Allowed drop below the committed per-workload baseline (fraction).
SPEED_GATE_SLACK = 0.20


def speed_regression_gate(report: dict, committed: dict) -> dict:
    """Hold vectorized cycles/sec to the committed BENCH baselines.

    Mirrors the ``BENCH_runner.json`` gate pattern: each workload's
    measured cycles/sec must stay within :data:`SPEED_GATE_SLACK` of
    the ``engine_speedup`` baseline recorded in the committed
    ``BENCH_netsim.json``, after normalizing host-speed drift through
    the calibration probe ratio. ``main`` exits non-zero on a miss.
    """
    gate: dict = {
        "slack_pct": round(SPEED_GATE_SLACK * 100.0, 1),
        "workloads": {},
        "passed": True,
    }
    baselines = committed.get("engine_speedup") or {}
    base_calibration = committed.get("calibration_ops_per_sec")
    if not baselines or not base_calibration:
        gate["skipped"] = "committed report lacks engine_speedup/calibration"
        return gate
    scale = report["calibration_ops_per_sec"] / base_calibration
    gate["calibration_scale"] = round(scale, 3)
    for name, entry in baselines.items():
        if name not in report["workloads"]:
            continue
        baseline = entry["vectorized_cycles_per_sec"]
        floor = baseline * scale * (1.0 - SPEED_GATE_SLACK)
        measured = report["workloads"][name]["cycles_per_sec"]
        passed = measured >= floor
        gate["workloads"][name] = {
            "baseline_cycles_per_sec": baseline,
            "floor_cycles_per_sec": round(floor, 1),
            "measured_cycles_per_sec": measured,
            "passed": passed,
        }
        if not passed:
            gate["passed"] = False
    return gate


def run_all(repeats: int = 2) -> dict:
    # Calibrate before AND after the workloads and keep the max: best-of
    # converges on the host's unloaded speed, the most stable estimator
    # a shared machine offers.
    calibration = calibration_score()
    results = {name: run_workload(name, repeats) for name in WORKLOADS}
    calibration = max(calibration, calibration_score())
    report = {"workloads": results}
    report["calibration_ops_per_sec"] = round(calibration, 1)
    report["telemetry_overhead"] = telemetry_overhead(repeats=repeats)
    report["engine_speedup"] = engine_speedup(results)
    committed = (
        json.loads(ARTIFACT_PATH.read_text()) if ARTIFACT_PATH.exists()
        else {}
    )
    report["speed_gate"] = speed_regression_gate(report, committed)
    report["setup"] = setup_cost()
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())["workloads"]
        speedups = {}
        for name, result in results.items():
            if name in baseline:
                speedups[name] = round(
                    result["cycles_per_sec"] / baseline[name]["cycles_per_sec"], 2
                )
        report["speedup_vs_baseline"] = speedups
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="overwrite the stored pre-change baseline with this run",
    )
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args()

    report = run_all(repeats=args.repeats)
    for name, result in report["workloads"].items():
        line = (
            f"{name}: {result['cycles_per_sec']:>10.0f} cycles/s  "
            f"{result['flits_per_sec']:>10.0f} flits/s  "
            f"({result['cycles']} cycles in {result['wall_seconds']}s)"
        )
        speedup = report.get("speedup_vs_baseline", {}).get(name)
        if speedup is not None:
            line += f"  {speedup}x vs baseline"
        print(line)
    for name, entry in report["engine_speedup"].items():
        print(
            f"{name}: vectorized {entry['vectorized_cycles_per_sec']:.0f} c/s"
            f" vs scalar {entry['scalar_cycles_per_sec']:.0f} c/s"
            f"  ({entry['speedup']}x)"
        )
    overhead = report["telemetry_overhead"]
    print(
        f"telemetry on {overhead['workload']}: "
        f"off {overhead['off_cycles_per_sec']:.0f} c/s, "
        f"on {overhead['on_cycles_per_sec']:.0f} c/s "
        f"({overhead['enabled_overhead_pct']:+.1f}% when enabled)"
    )

    gate = report["speed_gate"]
    if gate.get("skipped"):
        print(f"speed gate: skipped ({gate['skipped']})")
    else:
        for name, entry in gate["workloads"].items():
            print(
                f"speed gate {name}: {entry['measured_cycles_per_sec']:.0f}"
                f" c/s vs floor {entry['floor_cycles_per_sec']:.0f} c/s "
                f"({'pass' if entry['passed'] else 'FAIL'})"
            )

    setup = report["setup"]
    if setup.get("skipped"):
        print(f"setup gate: skipped ({setup['skipped']})")
    else:
        print(
            f"setup gate ({setup['shape']}): memo hit "
            f"{setup['memo_hit_ms']:.3f} ms vs graph build "
            f"{setup['graph_build_ms']:.3f} ms, ratio {setup['ratio']} "
            f"(max {setup['max_ratio']}: "
            f"{'pass' if setup['passed'] else 'FAIL'})"
        )

    ARTIFACT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {ARTIFACT_PATH}")
    if args.update_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {BASELINE_PATH}")
    return 0 if gate["passed"] and setup["passed"] else 1


def test_netsim_speed_smoke():
    """One tiny timed run so the bench stays importable and runnable."""
    result = run_workload("mesh_8x8_lowload", repeats=1)
    assert result["cycles"] > 0
    assert result["cycles_per_sec"] > 0


def test_setup_section():
    """The setup section reports both timings and its gate."""
    section = setup_cost(samples=3)
    assert section["max_ratio"] == SETUP_GATE_RATIO
    if not section.get("skipped"):
        assert section["memo_hit_ms"] > 0 and section["graph_build_ms"] > 0
        assert section["ratio"] > 0 and isinstance(section["passed"], bool)


def test_speed_regression_gate():
    """Gate math: pass at baseline, fail past the slack, scale-aware."""
    committed = {
        "calibration_ops_per_sec": 1000.0,
        "engine_speedup": {
            "w": {"vectorized_cycles_per_sec": 100.0, "speedup": 10.0}
        },
    }
    report = {
        "calibration_ops_per_sec": 500.0,  # host half as fast -> floor 40
        "workloads": {"w": {"cycles_per_sec": 41.0}},
    }
    gate = speed_regression_gate(report, committed)
    assert gate["passed"] and gate["workloads"]["w"]["passed"]
    report["workloads"]["w"]["cycles_per_sec"] = 39.0
    assert not speed_regression_gate(report, committed)["passed"]
    assert speed_regression_gate(report, {}).get("skipped")


if __name__ == "__main__":
    raise SystemExit(main())
