"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_design --seed 1 --seconds 15 --trace 0

Workloads: ``sweep_design``, ``sweep_sim``, ``dcn``, ``serve`` (see
README.md for why each exists).  A run

1. makes sure the netsim C kernel is built (a first run compiles it);
2. times set-up in ``SETUP_PROBES`` fresh child processes and once in
   this process, and reports the median as ``setup_s``;
3. runs the workload's operations for ``--seconds`` and checks every
   output (a wrong output counts as a failed operation);
4. prints ``{"correct", "attempted", "failed", "metrics"}`` as the last
   line of standard output.  ``--trace 0`` reports the end-to-end
   metrics, ``--trace 1`` the per-layer metrics of a traced run, and
   also writes the per-layer table and a Chrome trace under
   ``.perfbench_work/traces/``.

Everything it writes stays under ``.perfbench_work/`` in the checkout,
except the compiled kernel, which the program caches next to its own
source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tr
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: Set-up samples taken in fresh child processes, next to the one taken
#: in the measuring process.
SETUP_PROBES = 2

#: A set-up probe may compile the C kernel on a fresh checkout.
PROBE_TIMEOUT_S = 170.0

#: Longest TMPDIR that still leaves room for multiprocessing's
#: ``pymp-*/listener-*`` socket under the 107-byte AF_UNIX path limit.
MAX_TMPDIR = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_checkout_environment() -> None:
    """Run the program from ``src/`` and keep temporary files inside."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    tmp = WORK / "tmp"
    if len(str(tmp)) <= MAX_TMPDIR:
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = None


def build_kernel() -> bool:
    """Compile (or find) the netsim C kernel in a throwaway process."""
    code = "import sys; from repro.netsim import _fast_step; sys.exit(0 if _fast_step.load_kernel() else 3)"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, timeout=PROBE_TIMEOUT_S)
    return done.returncode == 0


def stop_pool_helpers() -> None:
    """Stop the fork server and resource tracker that the program's
    worker pool started in this process, if any, and wait for them."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def timed_setup(workload) -> float:
    """Set-up seconds at the reference host speed, sampled just before
    (see workloads.REFERENCE_LOOP_S)."""
    loop_s = workloads.loop_seconds()
    started = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - started
    scaled = workloads.at_reference_speed(elapsed, loop_s)
    print(f"[perfbench] set-up {elapsed:.3f} s wall, loop {loop_s:.4f} s, "
          f"{scaled:.3f} s scaled", file=sys.stderr)
    return scaled


def setup_probe(args, work: Path) -> int:
    """Child side of a set-up sample: set up, tear down, report."""
    workload = workloads.make(args.workload, args.seed, work, trace=False)
    try:
        setup_s = timed_setup(workload)
    finally:
        workload.close()
        stop_pool_helpers()
    print(json.dumps({"setup_s": setup_s}))
    return 0


def probe_setup(args) -> float:
    """One set-up sample in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def write_trace(args, workload, result, layers, events) -> None:
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = traces / f"{args.workload}-seed{args.seed}"
    chrome = tr.chrome_trace(result.events, os.getpid())
    if events:
        server = tr.chrome_trace(events, workload.proc.pid)
        chrome["traceEvents"].extend(server["traceEvents"])
    stem.with_suffix(".json").write_text(json.dumps(chrome))
    stem.with_suffix(".txt").write_text(tr.format_table(layers, args.workload) + "\n")
    print(f"[perfbench] per-layer table {stem}.txt, Chrome trace {stem}.json", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    use_checkout_environment()
    # On SIGTERM unwind through the finally blocks that stop the pool,
    # the server and the set-up probes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.setup_probe:
            return setup_probe(args, work)
        if not build_kernel():
            print("[perfbench] no C kernel: netsim runs on its numpy fallback", file=sys.stderr)
        samples = [probe_setup(args) for _ in range(SETUP_PROBES)]

        trace = bool(args.trace)
        workload = workloads.make(args.workload, args.seed, work, trace)
        attempted = failed = 0
        server_events = []
        try:
            samples.append(timed_setup(workload))
            if args.workload == "dcn":
                value, ok = workload.check_flow_err()
                attempted += 1
                failed += not ok
                if not ok:
                    print(f"[perfbench] flow_err {value} != reference", file=sys.stderr)
            result = workload.measure(args.seconds)
        finally:
            workload.close()
            stop_pool_helpers()
        attempted += result.attempted
        failed += result.failed

        if trace:
            layers = dict.fromkeys(tr.LAYER_METRICS, 0.0)
            if args.workload == "serve":
                server_layers, server_events = workload.server_layers(result.attempted)
                layers.update(server_layers)
            else:
                layers.update(result.layers)
            layers["host.loop_ms"] = 1000.0 * statistics.median(result.loops)
            layers["host.reference_ms"] = result.reference_ms
            write_trace(args, workload, result, layers, server_events)
            metrics = {
                name: {"value": layers[name], "unit": unit}
                for name, unit in tr.LAYER_METRICS.items()
            }
        else:
            metrics = {
                "latency_ms": {"value": statistics.median(result.report_ms), "unit": "ms"},
                "peak_rss_mb": {"value": result.peak_rss_mb, "unit": "MB"},
                "setup_s": {"value": statistics.median(samples), "unit": "s"},
            }
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
