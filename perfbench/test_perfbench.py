"""The benchmark's own tests: ``python -m pytest perfbench``.

The check tests feed canned outputs through the same ``measure()`` loop
the benchmark runs, so a tampered reference digest or a dropped flit
must show up as failed operations.  The smoke test runs every workload
for a moment, traced and untraced, and compares the metric names and
units with BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def sweep_response(rows):
    return {"result": {"experiments": [{
        "experiment_id": "fig01", "title": "t", "headers": ["a", "b"],
        "rows": rows, "notes": ["netsim engine: c", "a note"],
    }]}}


class CannedSweep(workloads.Sweep):
    def __init__(self, response, reference, work):
        super().__init__("sweep_design", 1, work, None)
        self.response = response
        self.reference = reference

    def op(self):
        return self.response


def dcn_result(**changes):
    result = {
        "truncated": False, "flits_offered": 400, "flits_delivered": 400,
        "packets_routed": 100, "packets_delivered": 100, "wall_seconds": 0.5,
        "executor": "pool", "engine": "c", "latency_sum": 1234,
    }
    result.update(changes)
    return result


class CannedDCN(workloads.DCN):
    def __init__(self, outputs, work):
        super().__init__(1, work, None)
        self.outputs = iter(outputs)

    def op(self):
        return next(self.outputs)


def test_sweep_digest_ignores_engine_note_and_float_noise():
    base = workloads.sweep_digest(sweep_response([[1, 0.1 + 0.2]]))
    same = sweep_response([[1, 0.30000000000000004 + 1e-17]])
    same["result"]["experiments"][0]["notes"][0] = "netsim engine: numpy"
    assert workloads.sweep_digest(same) == base
    assert workloads.sweep_digest(sweep_response([[1, 0.31]])) != base


def test_tampered_reference_digest_fails_every_op(tmp_path):
    response = sweep_response([[1, 2.5]])
    good = CannedSweep(response, workloads.sweep_digest(response), tmp_path).measure(0)
    assert good.attempted >= workloads.MIN_OPS and good.failed == 0
    tampered = CannedSweep(response, "0" * 64, tmp_path).measure(0)
    assert tampered.failed == tampered.attempted >= workloads.MIN_OPS


def test_dropped_flit_fails_the_op(tmp_path):
    good = [dcn_result(), dcn_result(latency_sum=99)]
    result = CannedDCN([good] * 3, tmp_path).measure(0)
    assert result.attempted == 3 and result.failed == 0
    dropped = [dcn_result(), dcn_result(latency_sum=99, flits_delivered=399)]
    result = CannedDCN([good, dropped, good], tmp_path).measure(0)
    assert result.failed == 1


def test_dcn_errors_name_each_fault():
    assert workloads.dcn_errors(dcn_result()) == []
    assert workloads.dcn_errors(dcn_result(truncated=True))
    assert workloads.dcn_errors(dcn_result(packets_delivered=99))


def test_serve_checks():
    cold = {"k": b"body"}
    assert workloads.serve_errors(["hit", "coalesce"], [200, 200], [b"body", b"body"],
                                  ["k", "k"], cold) == []
    assert workloads.serve_errors(["hit"], [200], [b"bodY"], ["k"], cold)
    assert workloads.serve_errors(["cold"], [500], [b""], ["k"], cold)
    intended = {"cache_hits": 9, "coalesced": 2}
    assert workloads.mix_errors(intended, {"cache_hits": 9, "coalesced": 2}) == 0
    assert workloads.mix_errors(intended, {"cache_hits": 10, "coalesced": 1}) == 2


def test_schedule_is_seeded_and_mixed():
    plan = workloads.schedule(7, 5.0)
    assert plan == workloads.schedule(7, 5.0)
    kinds = [p[1] for p in plan]
    assert kinds.count("cold") == 10
    assert kinds.count("hit") == 10 * len(workloads.HITS_PER_FRAME)
    assert kinds.count("reference") == kinds.count("hit")
    assert [p[0] for p in plan] == sorted(p[0] for p in plan)


def test_benchmark_json_names_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def run_bench(cwd, workload, trace, seconds="0.5"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_every_metric_with_its_unit(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(tmp_path, "sweep_design", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
