"""Experiment-runner benchmark: serial vs warm-pool parallel vs cache.

Times three runs of the same experiment suite through
``repro.experiments.runner.run_experiments``:

1. **parallel cold** — work units fanned over the warm worker pool
   (``--jobs``), no result cache;
2. **serial cold** — one process, storing into a fresh result cache;
3. **warm cache** — the same suite again, served from the cache.

Every phase starts from an empty in-process mapping memo and Clos
topology memo, and both cold phases from an empty persistent mapping
store (redirected into the benchmark's temp directory), so they measure
genuine compute: on one core the "parallel" phase runs in-process, and
without the clear the serial phase would inherit its topologies. The
serial cold phase's topology builds and requests are recorded as
``topology_builds``. Verifies the parallel
tables are identical to the serial ones, measures the warm pool's
per-task dispatch latency with a microbenchmark, and writes
``BENCH_runner.json`` with the wall-clocks, the speedups, and two
**gates**, exactly one of which applies on a given host:

* ``parallel_gate`` — with more than one effective core,
  ``parallel_speedup >= min(effective_cores, units) / 2``: the pool
  must actually pay. ``parallel_speedup`` is recorded only here, with
  the core count beside it. On one effective core there are no cores
  to produce a speedup, so the gate does not apply (``applicable:
  false``) and no speedup is recorded.
* ``fastpath_gate`` — on one effective core the "parallel" cold run
  (degraded to the serial fast path) must stay within 5% of plain
  serial: the fast path may not tax small machines. Not applicable on
  multi-core.

Usage::

    PYTHONPATH=src python benchmarks/bench_runner_parallel.py
    PYTHONPATH=src python benchmarks/bench_runner_parallel.py --ids fig07 fig17
    PYTHONPATH=src python benchmarks/bench_runner_parallel.py --full --jobs 8

Also collected by pytest as a quick smoke test (two tiny experiments).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import tempfile
import time

from repro.cas import CACHE_DIR_ENV
from repro.core.design import clear_mapping_cache
from repro.experiments.base import EXPERIMENT_IDS, get_spec
from repro.experiments.cache import ResultCache
from repro.experiments.runner import run_experiments
from repro.mapping.store import MappingStore
from repro.parallel import (
    PARALLEL_MODE_ENV,
    effective_cpu_count,
    pool_map,
    shutdown_shared_executor,
)
from repro.topology.clos import _build_clos

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT_PATH = REPO_ROOT / "BENCH_runner.json"

#: Tasks in the dispatch-latency microbenchmark.
DISPATCH_PROBE_TASKS = 32


def _timed(label: str, cold: bool = False, **kwargs):
    clear_mapping_cache()
    _build_clos.cache_clear()
    if cold:
        MappingStore().clear()
    start = time.perf_counter()
    results = run_experiments(**kwargs)
    elapsed = time.perf_counter() - start
    print(f"{label:>13}: {elapsed:7.2f}s for {len(results)} experiment(s)")
    return results, elapsed


def _noop(index: int) -> int:
    return index


def measure_dispatch_latency(tasks: int = DISPATCH_PROBE_TASKS) -> dict:
    """Warm-pool per-task dispatch overhead on trivial tasks.

    Forces the pool on (so the serial fast path cannot hide the cost
    being measured), runs one warm-up batch, then times a batch of
    no-op tasks. ``dispatch_s`` per task is the time the task and its
    result spent crossing process boundaries — the pool's whole
    overhead, since the task itself does nothing.
    """
    previous = os.environ.get(PARALLEL_MODE_ENV)
    os.environ[PARALLEL_MODE_ENV] = "force"
    try:
        pool_map(_noop, [(i,) for i in range(4)], jobs=2)  # warm the pool
        stats: list = []
        start = time.perf_counter()
        pool_map(
            _noop, [(i,) for i in range(tasks)], jobs=2, dispatch_stats=stats
        )
        batch_s = time.perf_counter() - start
    finally:
        if previous is None:
            os.environ.pop(PARALLEL_MODE_ENV, None)
        else:
            os.environ[PARALLEL_MODE_ENV] = previous
    latencies = sorted(
        row["dispatch_s"] for row in stats if row and "dispatch_s" in row
    )
    return {
        "tasks": tasks,
        "batch_seconds": round(batch_s, 4),
        "dispatch_p50_ms": round(
            statistics.median(latencies) * 1000, 3
        ) if latencies else None,
        "dispatch_mean_ms": round(
            statistics.fmean(latencies) * 1000, 3
        ) if latencies else None,
        "dispatch_max_ms": round(latencies[-1] * 1000, 3)
        if latencies else None,
    }


def run_bench(ids, fast: bool = True, jobs: int = 4) -> dict:
    ids = list(ids)
    units = sum(len(get_spec(i).units(fast=fast)) for i in ids)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        # Redirect the persistent mapping store into the temp dir too, so
        # "cold" means cold and the repo's real store is untouched.
        previous_env = os.environ.get(CACHE_DIR_ENV)
        os.environ[CACHE_DIR_ENV] = cache_dir
        try:
            cache = ResultCache(cache_dir)
            parallel, parallel_s = _timed(
                "parallel cold", cold=True, ids=ids, fast=fast, jobs=jobs
            )
            serial, serial_s = _timed(
                "serial cold", cold=True, ids=ids, fast=fast, jobs=1, cache=cache
            )
            built = _build_clos.cache_info()
            warm, warm_s = _timed(
                "warm cache", ids=ids, fast=fast, jobs=1, cache=cache
            )
            dispatch = measure_dispatch_latency()
        finally:
            if previous_env is None:
                os.environ.pop(CACHE_DIR_ENV, None)
            else:
                os.environ[CACHE_DIR_ENV] = previous_env
            # The probe's forced workers hold the temp cache dir open.
            shutdown_shared_executor()
    rows_identical = parallel == serial and warm == serial
    cores = effective_cpu_count()
    multicore = cores > 1
    speedup = round(serial_s / parallel_s, 2)
    fastpath_overhead_pct = round((parallel_s / serial_s - 1.0) * 100, 1)
    if multicore:
        threshold = round(min(cores, max(units, 1)) / 2, 2)
        parallel_gate = {
            "applicable": True,
            "threshold": threshold,
            "passed": speedup >= threshold,
        }
    else:
        parallel_gate = {"applicable": False}
    report = {
        "experiments": ids,
        "mode": "fast" if fast else "full",
        "jobs": jobs,
        "units": units,
        "cpu_count": os.cpu_count(),
        "effective_cores": cores,
        "parallel_cold_seconds": round(parallel_s, 3),
        "serial_cold_seconds": round(serial_s, 3),
        "topology_builds": {
            "builds": built.misses, "requests": built.hits + built.misses
        },
        "warm_cache_seconds": round(warm_s, 6),
        "parallel_speedup": (
            {"speedup": speedup, "effective_cores": cores}
            if multicore else None
        ),
        "cache_speedup": round(serial_s / warm_s, 2),
        "rows_identical": rows_identical,
        "parallel_gate": parallel_gate,
        "fastpath_gate": {
            "applicable": not multicore,
            "overhead_pct": fastpath_overhead_pct,
            "passed": fastpath_overhead_pct <= 5.0,
        },
        "warm_pool_dispatch": dispatch,
    }
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--ids", nargs="*", default=None, help="experiment ids (default: all)"
    )
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()

    ids = args.ids or list(EXPERIMENT_IDS)
    report = run_bench(ids, fast=not args.full, jobs=args.jobs)
    gate = report["parallel_gate"]
    if gate["applicable"]:
        claim = (
            f"parallel speedup {report['parallel_speedup']['speedup']}x on "
            f"{report['effective_cores']} effective cores "
            f"(gate >= {gate['threshold']}: "
            f"{'pass' if gate['passed'] else 'FAIL'})"
        )
    else:
        fastpath = report["fastpath_gate"]
        claim = (
            f"one effective core: fast path {fastpath['overhead_pct']:+}% "
            f"vs serial (gate <= 5%: "
            f"{'pass' if fastpath['passed'] else 'FAIL'})"
        )
    print(
        f"{claim}, cache speedup {report['cache_speedup']}x, "
        f"dispatch p50 {report['warm_pool_dispatch']['dispatch_p50_ms']}ms, "
        f"rows identical: {report['rows_identical']}"
    )
    ARTIFACT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {ARTIFACT_PATH}")
    ok = report["rows_identical"] and all(
        report[name]["passed"]
        for name in ("parallel_gate", "fastpath_gate")
        if report[name]["applicable"]
    )
    return 0 if ok else 1


def test_runner_parallel_smoke(tmp_path, monkeypatch):
    """Tiny end-to-end pass: identical tables, cache round trip."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = run_bench(["fig01", "tab06"], fast=True, jobs=2)
    assert report["rows_identical"]
    assert report["warm_cache_seconds"] > 0
    assert report["warm_pool_dispatch"]["dispatch_p50_ms"] is not None
    builds = report["topology_builds"]
    assert 0 <= builds["builds"] <= builds["requests"]


if __name__ == "__main__":
    raise SystemExit(main())
