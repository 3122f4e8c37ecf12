"""Fidelity-ladder benchmark: paper-scale DCN fabrics in minutes.

Five measurements, one artifact (``BENCH_dcn_scale.json``), exit code
enforcing every gate — the CI ``dcn-smoke`` job runs this on every
push:

1. **Flow-vs-cycle error gate** (smoke shape).  A fabric small enough
   to hold every wafer cycle-accurate is run at ``fidelity=cycle``,
   ``flow`` and ``hybrid`` on identical traffic.  The flow and hybrid
   runs must reproduce the cycle-accurate *delivered throughput*
   (flits per cycle over the makespan) within ``ERROR_GATE`` (10 %).
   Mean latency error is recorded alongside (not gated — latency is
   a modelled quantity at flow fidelity, throughput is the paper
   claim).

2. **Table-VIII-shape scale run.**  A fabric of the paper's *shape* —
   hundreds of wafers in a leaf/spine Clos, far beyond what the
   cycle-accurate partition simulator can hold — simulated end to end
   at ``fidelity=flow`` under both ``uniform`` and LLM-training
   (``dp_allreduce``) traffic.  Gates: the run drains untruncated,
   conserves flits, and completes within ``SCALE_WALL_GATE_S``
   (minutes, not hours).  The measured mean latency is compared
   against the paper-style analytical expectation
   ``hops x wafer_traversal + (hops-1) x inter_wafer_latency``
   (Tables VII-IX account latency by hop count; docs/experiments.md
   carries the full comparison table).

3. **Flow-epoch gate** (scale shape, flow fidelity, uniform traffic).
   The epoch loop with every flow wafer stepped by one ``flow_advance``
   kernel call per epoch must give the same ``parity_signature`` as the
   loop that steps each wafer's :class:`~repro.dcn.flow.FlowWaferNode`
   (the scalar oracle, ``engine="scalar"``), and its ``_run_epochs``
   must beat the oracle's by ``FLOW_EPOCH_SPEEDUP_GATE``.  One plan per
   side, best of 3.

4. **Routing gate** (scale shape, uniform traffic).  The array router
   (``DCNFabric.route_all``, what every run plans with) must produce
   the same hops as the per-packet scalar oracle (``DCNFabric.route``)
   for every packet, and beat it by ``ROUTE_SPEEDUP_GATE``.  Both
   sides build a fresh fabric and route the whole run; best of 3.

5. **Plan gate** (scale shape, hybrid fidelity as perfbench's ``dcn``
   workload runs it).  ``_Plan`` (failures, fabric tables, traffic,
   routes, curves) best of 3 for ``uniform`` and ``dp_allreduce``; the
   sum, ``plan_s``, must stay within ``PLAN_GATE_RATIO`` x the
   committed value, scaled by the host-speed calibration probe as
   ``bench_cold_start.py``'s key gate is.  Skipped when the shape or
   traffic differs from the committed run's.

The default scale shape is 2592 hosts over radix-72 wafers: 72 leaf +
36 spine = **108 wafers**, the same 3-stage geometry as the paper's
Table IX deployment (which fields 48 radix-600+ spine wafers for
16384 racks) at a per-wafer radix the CI container calibrates in
seconds.  The full-radix invocation is documented in
docs/dcn_scale.md and scales by swapping the shape arguments.

Usage::

    PYTHONPATH=src python benchmarks/bench_dcn_scale.py
    PYTHONPATH=src python benchmarks/bench_dcn_scale.py \
        --scale-hosts 5184 --scale-wafer-radix 144 --scale-radix 24
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import time

from repro.dcn import sim as dcn_sim
from repro.dcn import traffic as dcn_traffic
from repro.dcn.fabric import DCNFabric, DCNShape
from repro.dcn.sim import DCNConfig, run_dcn
from repro.dcn.flow import calibrate_wafer

from bench_netsim_speed import calibration_score

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT_PATH = REPO_ROOT / "BENCH_dcn_scale.json"

#: Max relative error of flow/hybrid delivered throughput vs the
#: cycle-accurate reference at the smoke shape.
ERROR_GATE = 0.10

#: The scale run must finish inside this wall budget (seconds).
SCALE_WALL_GATE_S = 900.0

#: The array router must beat the scalar oracle by this factor.
ROUTE_SPEEDUP_GATE = 10.0

#: The kernel-stepped epoch loop must beat the FlowWaferNode oracle's
#: by this factor at the scale shape.
FLOW_EPOCH_SPEEDUP_GATE = 4.0

#: Allowed ``plan_s`` over the committed value, after host calibration.
PLAN_GATE_RATIO = 1.5

#: Paper analytical context (Tables VII-IX): a WS leaf/spine DCN
#: resolves any host pair in 3 switch hops (vs 5 for the TH-5 Clos),
#: and fields 48 WS spine switches at 16384 racks.
PAPER_ANALYTICAL = {
    "ws_hops": 3,
    "baseline_hops": 5,
    "ws_spine_switches_at_16384_racks": 48,
}


def _throughput(result) -> float:
    return result.flits_delivered / result.makespan if result.makespan else 0.0


def _mean_latency(result) -> float:
    done = [l for l in result.latencies if l >= 0]
    return sum(done) / len(done) if done else 0.0


def run_smoke_gate(
    hosts: int = 32,
    wafer_radix: int = 16,
    ssc_radix: int = 8,
    duration: int = 256,
    load: float = 0.1,
    seed: int = 3,
) -> dict:
    """Flow and hybrid runs vs the cycle-accurate reference."""
    shape = DCNShape(
        n_hosts=hosts, wafer_radix=wafer_radix, ssc_radix=ssc_radix
    )
    base = DCNConfig(
        shape=shape,
        pattern="uniform",
        duration_cycles=duration,
        load=load,
        traffic_seed=seed,
    )
    runs = {}
    for fidelity in ("cycle", "flow", "hybrid"):
        config = dataclasses.replace(
            base,
            fidelity=fidelity,
            cycle_wafers=(0, 1) if fidelity == "hybrid" else (),
        )
        started = time.perf_counter()
        runs[fidelity] = run_dcn(config)
        print(
            f"  smoke {fidelity:>6}: {_throughput(runs[fidelity]):7.3f} "
            f"flits/cycle, mean latency "
            f"{_mean_latency(runs[fidelity]):7.2f}, "
            f"{time.perf_counter() - started:5.2f}s"
        )
    reference = _throughput(runs["cycle"])
    report = {
        "config": {
            "hosts": hosts,
            "wafer_radix": wafer_radix,
            "ssc_radix": ssc_radix,
            "n_wafers": shape.n_wafers,
            "duration_cycles": duration,
            "load": load,
            "seed": seed,
        },
        "error_gate": ERROR_GATE,
        "cycle_throughput": round(reference, 4),
        "cycle_mean_latency": round(_mean_latency(runs["cycle"]), 3),
    }
    for fidelity in ("flow", "hybrid"):
        result = runs[fidelity]
        throughput = _throughput(result)
        error = abs(throughput - reference) / reference if reference else 1.0
        latency_ref = _mean_latency(runs["cycle"])
        latency_err = (
            abs(_mean_latency(result) - latency_ref) / latency_ref
            if latency_ref
            else 0.0
        )
        report[fidelity] = {
            "throughput": round(throughput, 4),
            "throughput_error": round(error, 4),
            "mean_latency": round(_mean_latency(result), 3),
            "latency_error": round(latency_err, 4),
            "conserved": result.flits_offered
            == result.flits_delivered + sum(
                c["inflight"] for c in result.per_wafer
            ),
            "passed": error <= ERROR_GATE,
        }
    report["passed"] = all(
        report[f]["passed"] and report[f]["conserved"]
        for f in ("flow", "hybrid")
    )
    return report


def run_scale(
    hosts: int = 2592,
    wafer_radix: int = 72,
    ssc_radix: int = 12,
    duration: int = 256,
    load: float = 0.03,
    seed: int = 5,
    patterns=("uniform", "dp_allreduce"),
) -> dict:
    """Hundreds of wafers, flow fidelity, end to end."""
    shape = DCNShape(
        n_hosts=hosts, wafer_radix=wafer_radix, ssc_radix=ssc_radix
    )
    curve = calibrate_wafer(
        shape.wafer_terminals,
        shape.ssc_radix,
        num_vcs=shape.num_vcs,
        buffer_flits=shape.buffer_flits,
    )
    zero_load = curve.latency_at(0.0)
    analytical_latency = (
        PAPER_ANALYTICAL["ws_hops"] * zero_load
        + (PAPER_ANALYTICAL["ws_hops"] - 1) * shape.inter_wafer_latency
    )
    report = {
        "config": {
            "hosts": hosts,
            "wafer_radix": wafer_radix,
            "ssc_radix": ssc_radix,
            "n_wafers": shape.n_wafers,
            "n_leaves": shape.n_leaves,
            "n_spines": shape.n_spines,
            "inter_wafer_latency": shape.inter_wafer_latency,
            "duration_cycles": duration,
            "load": load,
            "seed": seed,
        },
        "paper_analytical": dict(
            PAPER_ANALYTICAL,
            wafer_traversal_cycles=round(zero_load, 2),
            inter_leaf_latency_cycles=round(analytical_latency, 2),
        ),
        "wall_gate_seconds": SCALE_WALL_GATE_S,
        "patterns": {},
    }
    total_wall = 0.0
    all_ok = True
    for pattern in patterns:
        config = DCNConfig(
            shape=shape,
            pattern=pattern,
            duration_cycles=duration,
            load=load,
            traffic_seed=seed,
            fidelity="flow",
        )
        started = time.perf_counter()
        result = run_dcn(config)
        wall = time.perf_counter() - started
        total_wall += wall
        conserved = result.flits_offered == result.flits_delivered
        mean_latency = _mean_latency(result)
        latency_vs_analytical = (
            mean_latency / analytical_latency if analytical_latency else 0.0
        )
        ok = conserved and not result.truncated
        all_ok = all_ok and ok
        report["patterns"][pattern] = {
            "packets_delivered": result.packets_delivered,
            "packets_created": result.packets_created,
            "flits_delivered": result.flits_delivered,
            "epochs": result.epochs,
            "makespan": result.makespan,
            "throughput_flits_per_cycle": round(_throughput(result), 3),
            "mean_latency": round(mean_latency, 2),
            "latency": result.latency_stats(),
            "latency_vs_analytical": round(latency_vs_analytical, 3),
            "truncated": result.truncated,
            "conserved": conserved,
            "wall_seconds": round(wall, 3),
        }
        print(
            f"  scale {pattern:>12}: {result.packets_delivered} packets "
            f"over {shape.n_wafers} wafers in {wall:6.2f}s, mean latency "
            f"{mean_latency:7.2f} (analytical {analytical_latency:.2f})"
        )
    report["total_wall_seconds"] = round(total_wall, 3)
    report["passed"] = all_ok and total_wall <= SCALE_WALL_GATE_S
    return report


def _best_of(repeats: int, fn):
    best, value = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def run_flow_epoch_gate(
    hosts: int = 2592,
    wafer_radix: int = 72,
    ssc_radix: int = 12,
    duration: int = 256,
    load: float = 0.03,
    seed: int = 5,
    repeats: int = 3,
) -> dict:
    """Flow wafers in one kernel call per epoch vs the node oracle."""
    config = DCNConfig(
        shape=DCNShape(
            n_hosts=hosts, wafer_radix=wafer_radix, ssc_radix=ssc_radix
        ),
        pattern="uniform",
        duration_cycles=duration,
        load=load,
        traffic_seed=seed,
        fidelity="flow",
    )
    kernel_plan = dcn_sim._Plan(config)
    oracle_plan = dcn_sim._Plan(dataclasses.replace(config, engine="scalar"))
    epochs_s, result = _best_of(
        repeats, lambda: dcn_sim._run_epochs(kernel_plan)
    )
    oracle_s, expected = _best_of(
        repeats, lambda: dcn_sim._run_epochs(oracle_plan)
    )
    identical = result.parity_signature() == expected.parity_signature()
    speedup = oracle_s / epochs_s if epochs_s else float("inf")
    return {
        "packets": result.packets_created,
        "epochs": result.epochs,
        "epochs_s": round(epochs_s, 4),
        "epochs_oracle_s": round(oracle_s, 4),
        "epoch_speedup": round(speedup, 1),
        "speedup_gate": FLOW_EPOCH_SPEEDUP_GATE,
        "identical": identical,
        "passed": identical and speedup >= FLOW_EPOCH_SPEEDUP_GATE,
    }


def run_route_gate(
    hosts: int = 2592,
    wafer_radix: int = 72,
    ssc_radix: int = 12,
    duration: int = 256,
    load: float = 0.03,
    seed: int = 5,
    repeats: int = 3,
) -> dict:
    """Array router vs the scalar oracle: identical routes, and faster."""
    shape = DCNShape(
        n_hosts=hosts, wafer_radix=wafer_radix, ssc_radix=ssc_radix
    )
    events = dcn_traffic.generate(
        "uniform", range(hosts), duration, seed, load=load
    )
    src, dst = events[:, 1].tolist(), events[:, 2].tolist()

    def oracle():
        fabric = DCNFabric(shape)
        return [fabric.route(i, s, d) for i, (s, d) in enumerate(zip(src, dst))]

    route_s, routes = _best_of(
        repeats, lambda: DCNFabric(shape).route_all(src, dst)
    )
    oracle_s, expected = _best_of(repeats, oracle)
    got = zip(
        routes.hops.tolist(),
        routes.wafer.tolist(),
        routes.entry.tolist(),
        routes.exit.tolist(),
    )
    identical = all(
        list(zip(wafer, entry, exit_))[:hops] == [tuple(seg) for seg in segs]
        for (hops, wafer, entry, exit_), segs in zip(got, expected)
    )
    speedup = oracle_s / route_s if route_s else float("inf")
    return {
        "packets": len(events),
        "route_s": round(route_s, 4),
        "route_oracle_s": round(oracle_s, 4),
        "route_speedup": round(speedup, 1),
        "speedup_gate": ROUTE_SPEEDUP_GATE,
        "identical": identical,
        "passed": identical and speedup >= ROUTE_SPEEDUP_GATE,
    }


def run_plan(
    hosts: int = 2592,
    wafer_radix: int = 72,
    ssc_radix: int = 12,
    duration: int = 256,
    load: float = 0.03,
    seed: int = 5,
    repeats: int = 3,
) -> dict:
    """``_Plan`` best of ``repeats`` per pattern, hybrid as perfbench runs."""
    shape = DCNShape(
        n_hosts=hosts, wafer_radix=wafer_radix, ssc_radix=ssc_radix
    )
    calibration = calibration_score()
    report = {
        "config": {
            "hosts": hosts,
            "wafer_radix": wafer_radix,
            "ssc_radix": ssc_radix,
            "duration_cycles": duration,
            "load": load,
            "seed": seed,
            "cycle_wafers": [0, shape.n_leaves],
        },
        "patterns": {},
    }
    for pattern in ("uniform", "dp_allreduce"):
        config = DCNConfig(
            shape=shape,
            pattern=pattern,
            duration_cycles=duration,
            load=load,
            traffic_seed=seed,
            fidelity="hybrid",
            cycle_wafers=(0, shape.n_leaves),
        )
        plan_s, plan = _best_of(repeats, lambda: dcn_sim._Plan(config))
        report["patterns"][pattern] = {
            "packets": len(plan.traffic),
            "plan_s": round(plan_s, 4),
        }
    report["plan_s"] = round(
        sum(p["plan_s"] for p in report["patterns"].values()), 4
    )
    report["calibration_ops_per_sec"] = round(
        max(calibration, calibration_score()), 1
    )
    return report


def plan_gate(report: dict, committed: dict) -> dict:
    """Hold ``plan_s`` to :data:`PLAN_GATE_RATIO` x the committed value.

    The ceiling scales with the calibration probe ratio, so a host half
    as fast as the recording host gets twice the time.
    """
    gate: dict = {"max_ratio": PLAN_GATE_RATIO, "passed": True}
    base = committed.get("plan_s")
    base_calibration = committed.get("calibration_ops_per_sec")
    if not base or not base_calibration:
        gate["skipped"] = "committed report lacks plan_s/calibration"
        return gate
    if committed.get("config") != report["config"]:
        gate["skipped"] = "committed report timed another shape or traffic"
        return gate
    scale = report["calibration_ops_per_sec"] / base_calibration
    ceiling = base / scale * PLAN_GATE_RATIO
    gate.update(
        calibration_scale=round(scale, 3),
        baseline_plan_s=base,
        ceiling_plan_s=round(ceiling, 4),
        measured_plan_s=report["plan_s"],
        passed=report["plan_s"] <= ceiling,
    )
    return gate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke-hosts", type=int, default=32)
    parser.add_argument("--smoke-duration", type=int, default=256)
    parser.add_argument("--scale-hosts", type=int, default=2592)
    parser.add_argument("--scale-wafer-radix", type=int, default=72)
    parser.add_argument("--scale-radix", type=int, default=12)
    parser.add_argument("--scale-duration", type=int, default=256)
    parser.add_argument("--scale-load", type=float, default=0.03)
    args = parser.parse_args()

    print("flow-vs-cycle error gate (smoke shape):")
    smoke = run_smoke_gate(
        hosts=args.smoke_hosts, duration=args.smoke_duration
    )
    print("Table-VIII-shape scale run (flow fidelity):")
    scale = run_scale(
        hosts=args.scale_hosts,
        wafer_radix=args.scale_wafer_radix,
        ssc_radix=args.scale_radix,
        duration=args.scale_duration,
        load=args.scale_load,
    )
    print("flow-epoch gate (scale shape, flow fidelity, uniform traffic):")
    flow_epochs = run_flow_epoch_gate(
        hosts=args.scale_hosts,
        wafer_radix=args.scale_wafer_radix,
        ssc_radix=args.scale_radix,
        duration=args.scale_duration,
        load=args.scale_load,
    )
    print("routing gate (scale shape, uniform traffic):")
    routing = run_route_gate(
        hosts=args.scale_hosts,
        wafer_radix=args.scale_wafer_radix,
        ssc_radix=args.scale_radix,
        duration=args.scale_duration,
        load=args.scale_load,
    )
    print("plan gate (scale shape, hybrid fidelity):")
    plan = run_plan(
        hosts=args.scale_hosts,
        wafer_radix=args.scale_wafer_radix,
        ssc_radix=args.scale_radix,
        duration=args.scale_duration,
        load=args.scale_load,
    )
    committed = (
        json.loads(ARTIFACT_PATH.read_text()) if ARTIFACT_PATH.exists() else {}
    )
    plan["gate"] = plan_gate(plan, committed.get("plan") or {})
    report = {
        "smoke": smoke,
        "scale": scale,
        "flow_epochs": flow_epochs,
        "routing": routing,
        "plan": plan,
        "passed": smoke["passed"] and scale["passed"]
        and flow_epochs["passed"] and routing["passed"]
        and plan["gate"]["passed"],
    }
    ARTIFACT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {ARTIFACT_PATH}")
    for fidelity in ("flow", "hybrid"):
        entry = smoke[fidelity]
        print(
            f"{fidelity}: throughput error {entry['throughput_error']:.1%} "
            f"(gate <= {ERROR_GATE:.0%}: "
            f"{'pass' if entry['passed'] else 'FAIL'})"
        )
    print(
        f"scale: {scale['config']['n_wafers']} wafers in "
        f"{scale['total_wall_seconds']}s "
        f"(gate <= {SCALE_WALL_GATE_S:.0f}s: "
        f"{'pass' if scale['passed'] else 'FAIL'})"
    )
    print(
        f"flow epochs: {flow_epochs['epochs']} epochs, kernel "
        f"{flow_epochs['epochs_s']}s vs oracle "
        f"{flow_epochs['epochs_oracle_s']}s = "
        f"{flow_epochs['epoch_speedup']}x, identical "
        f"{flow_epochs['identical']} "
        f"(gate >= {FLOW_EPOCH_SPEEDUP_GATE:.0f}x: "
        f"{'pass' if flow_epochs['passed'] else 'FAIL'})"
    )
    print(
        f"routing: {routing['packets']} packets, array "
        f"{routing['route_s']}s vs oracle {routing['route_oracle_s']}s = "
        f"{routing['route_speedup']}x, identical {routing['identical']} "
        f"(gate >= {ROUTE_SPEEDUP_GATE:.0f}x: "
        f"{'pass' if routing['passed'] else 'FAIL'})"
    )
    gate = plan["gate"]
    print(
        f"plan: uniform {plan['patterns']['uniform']['plan_s']}s + "
        f"dp_allreduce {plan['patterns']['dp_allreduce']['plan_s']}s = "
        f"{plan['plan_s']}s "
        + (
            f"(gate skipped: {gate['skipped']})"
            if gate.get("skipped")
            else f"(gate <= {gate['ceiling_plan_s']}s: "
            f"{'pass' if gate['passed'] else 'FAIL'})"
        )
    )
    return 0 if report["passed"] else 1


def test_dcn_scale_bench_smoke():
    """Tiny end-to-end pass: error gate well-formed and honest."""
    smoke = run_smoke_gate(hosts=32, duration=128, load=0.08)
    assert smoke["flow"]["conserved"] and smoke["hybrid"]["conserved"]
    assert smoke["flow"]["throughput_error"] <= ERROR_GATE
    assert smoke["hybrid"]["throughput_error"] <= ERROR_GATE
    scale = run_scale(
        hosts=288, wafer_radix=24, ssc_radix=12, duration=96,
        patterns=("uniform",),
    )
    assert scale["config"]["n_wafers"] == 36
    assert scale["patterns"]["uniform"]["conserved"]
    assert not scale["patterns"]["uniform"]["truncated"]
    routing = run_route_gate(
        hosts=288, wafer_radix=24, ssc_radix=12, duration=96, repeats=1
    )
    assert routing["packets"] > 0 and routing["identical"]
    flow_epochs = run_flow_epoch_gate(
        hosts=288, wafer_radix=24, ssc_radix=12, duration=96, repeats=1
    )
    assert flow_epochs["packets"] > 0 and flow_epochs["identical"]
    plan = run_plan(
        hosts=288, wafer_radix=24, ssc_radix=12, duration=96, repeats=1
    )
    assert all(p["packets"] > 0 for p in plan["patterns"].values())
    assert plan["plan_s"] > 0 and plan["calibration_ops_per_sec"] > 0


def test_plan_gate():
    """Gate math: pass under the ceiling, fail over it, scale-aware."""
    config = {"hosts": 2592}
    committed = {
        "config": config, "calibration_ops_per_sec": 1000.0, "plan_s": 0.02
    }
    report = {  # host half as fast -> ceiling 0.06
        "config": config, "calibration_ops_per_sec": 500.0, "plan_s": 0.059
    }
    assert plan_gate(report, committed)["passed"]
    report["plan_s"] = 0.061
    assert not plan_gate(report, committed)["passed"]
    assert plan_gate(report, {}).get("skipped")
    other = dict(report, config={"hosts": 288})
    assert plan_gate(other, committed).get("skipped")


if __name__ == "__main__":
    raise SystemExit(main())
