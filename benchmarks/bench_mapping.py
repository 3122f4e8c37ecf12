"""Mapping-engine benchmark: kernel speedup, restart scaling, store.

Measures the three layers of the mapping stack on the 64-site (8x8)
wafer Clos — ``folded_clos(4096)``, 48 sub-switch chiplets plus
dummy-repeater spares, the largest wafer the analytical experiments
map — and writes ``BENCH_mapping.json``:

1. **kernel speedup** — the scalar oracle vs the C kernel through
   ``optimize_mapping`` at equal restarts, escalation on (the
   default). Gates: the two return the same mapping, and the kernel
   is at least ``MIN_KERNEL_SPEEDUP`` times faster on one core. The
   kernel is built before timing and its time is the best of
   ``KERNEL_REPEATS`` runs; the oracle runs once. The speedup is also
   what a host with no C toolchain pays: it runs the oracle;
2. **restart scaling** — C-kernel wall time at 1/2/4/8 restarts,
   serial; ``jobs=4`` times are recorded only where more than one
   effective core exists, with the core count beside them;
3. **store timings** — cold optimize+persist vs warm fetch through
   ``cached_mapping`` (acceptance: warm fetch under 50 ms).

Usage::

    PYTHONPATH=src python benchmarks/bench_mapping.py
    PYTHONPATH=src python benchmarks/bench_mapping.py --quick

Also collected by pytest as a quick smoke test (small instance).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import tempfile
import time

from repro.core.design import cached_mapping, clear_mapping_cache
from repro.mapping.exchange import optimize_mapping
from repro.mapping.grid import WaferGrid, grid_for
from repro.mapping.routing import IOStyle
from repro.ckernel import load_kernel
from repro.parallel import effective_cpu_count
from repro.topology.clos import folded_clos

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT_PATH = REPO_ROOT / "BENCH_mapping.json"

#: Gate: C kernel over scalar oracle, one core, escalation on.
MIN_KERNEL_SPEEDUP = 100.0

#: The kernel's time is the best of this many runs (it takes tens of
#: milliseconds, so one run is mostly timer and scheduler noise).
KERNEL_REPEATS = 5


def _time_optimize(topology, grid, engine: str, restarts: int, jobs: int = 1):
    start = time.perf_counter()
    result = optimize_mapping(
        topology, grid=grid, restarts=restarts, seed=0, jobs=jobs,
        engine=engine,
    )
    return time.perf_counter() - start, result


def _store_timings(topology) -> dict:
    """Cold optimize+persist vs warm fetch via ``cached_mapping``."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        try:
            clear_mapping_cache()
            start = time.perf_counter()
            cold = cached_mapping(topology, IOStyle.PERIPHERY, restarts=1)
            cold_s = time.perf_counter() - start
            clear_mapping_cache()  # drop the memo; force the disk store
            start = time.perf_counter()
            warm = cached_mapping(topology, IOStyle.PERIPHERY, restarts=1)
            warm_s = time.perf_counter() - start
        finally:
            clear_mapping_cache()
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous
    assert warm.placement.site_of == cold.placement.site_of
    return {
        "cold_optimize_seconds": round(cold_s, 4),
        "warm_fetch_seconds": round(warm_s, 4),
        "warm_fetch_under_50ms": warm_s < 0.050,
    }


def run_bench(n_ports: int = 4096, restarts: int = 2) -> dict:
    topology = folded_clos(n_ports)
    grid = (
        WaferGrid(8, 8) if n_ports == 4096 else grid_for(topology.chiplet_count)
    )
    load_kernel()  # build (or find) the kernel before anything is timed
    cores = effective_cpu_count()

    scalar_s, scalar_result = _time_optimize(
        topology, grid, engine="scalar", restarts=restarts
    )
    kernel_runs = [
        _time_optimize(topology, grid, engine="fast", restarts=restarts)
        for _ in range(KERNEL_REPEATS)
    ]
    kernel_s = min(seconds for seconds, _ in kernel_runs)
    kernel_result = kernel_runs[0][1]
    same_mapping = (
        kernel_result.placement.site_of == scalar_result.placement.site_of
        and kernel_result.cost() == scalar_result.cost()
    )
    print(
        f"kernel @ {restarts} restarts: scalar {scalar_s:6.2f}s "
        f"{scalar_result.cost()} vs C {kernel_s:8.4f}s {kernel_result.cost()}"
    )

    if cores > 1:  # spawn the warm pool outside the timed runs
        _time_optimize(topology, grid, engine="fast", restarts=2, jobs=4)
    scaling = {}
    for n_restarts in (1, 2, 4, 8):
        serial_s, _ = _time_optimize(
            topology, grid, engine="fast", restarts=n_restarts
        )
        entry = {"serial_seconds": round(serial_s, 4)}
        line = f"restarts={n_restarts}: serial {serial_s:7.4f}s"
        if cores > 1:
            parallel_s, _ = _time_optimize(
                topology, grid, engine="fast", restarts=n_restarts, jobs=4
            )
            entry["jobs4_seconds"] = round(parallel_s, 4)
            entry["effective_cores"] = cores
            line += f", jobs=4 {parallel_s:7.4f}s on {cores} cores"
        scaling[str(n_restarts)] = entry
        print(line)

    store = _store_timings(topology)
    print(
        f"store: cold {store['cold_optimize_seconds']:.3f}s, "
        f"warm {store['warm_fetch_seconds'] * 1000:.1f}ms"
    )

    return {
        "topology": topology.name,
        "grid": [grid.rows, grid.cols],
        "restarts": restarts,
        "cpu_count": os.cpu_count(),
        "effective_cores": cores,
        "scalar_seconds": round(scalar_s, 3),
        "kernel_seconds": round(kernel_s, 4),
        "kernel_speedup": round(scalar_s / kernel_s, 1),
        "scalar_cost": list(scalar_result.cost()),
        "kernel_cost": list(kernel_result.cost()),
        "same_mapping": same_mapping,
        "restart_scaling": scaling,
        "store": store,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small instance (1024 ports), no artifact written",
    )
    args = parser.parse_args()

    if args.quick:
        report = run_bench(n_ports=1024, restarts=2)
        print(json.dumps(report, indent=1))
        return 0
    report = run_bench(n_ports=4096, restarts=2)
    ok = (
        report["kernel_speedup"] >= MIN_KERNEL_SPEEDUP
        and report["same_mapping"]
        and report["store"]["warm_fetch_under_50ms"]
    )
    print(
        f"kernel speedup {report['kernel_speedup']}x "
        f"(gate >= {MIN_KERNEL_SPEEDUP}x), "
        f"same mapping: {report['same_mapping']}, "
        f"warm fetch <50ms: {report['store']['warm_fetch_under_50ms']}"
    )
    ARTIFACT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {ARTIFACT_PATH}")
    return 0 if ok else 1


def test_mapping_bench_smoke():
    """Tiny end-to-end pass: one mapping from both kernels, store under 50ms."""
    report = run_bench(n_ports=1024, restarts=1)
    assert report["same_mapping"]
    assert report["store"]["warm_fetch_under_50ms"]


if __name__ == "__main__":
    raise SystemExit(main())
