"""Cold-start benchmark: what a fresh process pays before its first answer.

Every on-disk cache keys on a source fingerprint (``repro.fingerprint``),
so a fresh process computes fingerprints before it can answer from a
warm cache. Two measurements, each the median of :data:`RUNS` fresh
processes:

* ``keys`` — every key a whole sweep needs: one ``cache_key`` per
  experiment, ``api.query_key`` of the sweep, and
  ``mapping_source_fingerprint``. ``import_s`` is importing the
  modules that hold those functions; ``key_s`` is computing the keys
  after that (scan, parse, hash, and whatever the scan imports).
* ``warm_cli`` — wall time and child max RSS of
  ``python -m repro experiments`` against a result cache that a first
  run filled.

Usage::

    PYTHONPATH=src python benchmarks/bench_cold_start.py

Writes ``BENCH_cold_start.json`` next to the repo root and exits
non-zero when ``key_s`` exceeds :data:`KEY_GATE_RATIO` times the
committed value, scaled by the host-speed calibration probe that
``bench_netsim_speed.py`` uses.

Also collected by pytest as a quick smoke test.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

from bench_netsim_speed import calibration_score

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT_PATH = REPO_ROOT / "BENCH_cold_start.json"

#: Allowed ``key_s`` over the committed value, after host calibration.
KEY_GATE_RATIO = 1.5

#: Fresh processes behind each median.
RUNS = 3

_KEYS_SCRIPT = """
import json, time
start = time.perf_counter()
from repro import api
from repro.experiments.base import EXPERIMENT_IDS
from repro.experiments.cache import cache_key
from repro.mapping.store import mapping_source_fingerprint
imported = time.perf_counter()
for experiment_id in EXPERIMENT_IDS:
    cache_key(experiment_id, True)
api.query_key(api.SweepQuery(experiments=EXPERIMENT_IDS, fast=True))
mapping_source_fingerprint()
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "key_s": done - imported,
                  "experiments": len(EXPERIMENT_IDS)}))
"""


def _env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def key_times(runs: int = RUNS) -> dict:
    """Median import and key-computation seconds over fresh processes."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", _KEYS_SCRIPT],
            capture_output=True, text=True, env=_env(), check=True,
        )
        samples.append(json.loads(proc.stdout))
    return {
        "experiments": samples[0]["experiments"],
        "import_s": round(statistics.median(s["import_s"] for s in samples), 4),
        "key_s": round(statistics.median(s["key_s"] for s in samples), 4),
        "key_s_samples": [round(s["key_s"], 4) for s in samples],
    }


#: Runs argv and reports its wall time and max RSS. A child's max RSS
#: starts at its parent's RSS at fork time, so the command is started
#: from this small launcher, not from the benchmark process.
_LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps({"wall_s": time.perf_counter() - start,
                  "max_rss_mb": usage.ru_maxrss / 1024.0,
                  "exit": os.waitstatus_to_exitcode(status)}))
"""


def _timed_run(argv, env) -> dict:
    """Wall seconds and max RSS (MB) of one child process."""
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    sample = json.loads(proc.stdout)
    if sample["exit"]:
        raise subprocess.CalledProcessError(sample["exit"], argv)
    return sample


def warm_cli(ids=(), runs: int = RUNS) -> dict:
    """Median wall and max RSS of ``python -m repro experiments [ids]``
    on a warm result cache (a first, untimed run fills it)."""
    argv = [sys.executable, "-m", "repro", "experiments", *ids]
    with tempfile.TemporaryDirectory() as cache:
        env = _env(REPRO_CACHE_DIR=cache)
        _timed_run(argv, env)
        samples = [_timed_run(argv, env) for _ in range(runs)]
    return {
        "command": " ".join(["python -m repro experiments", *ids]),
        "wall_s": round(statistics.median(s["wall_s"] for s in samples), 4),
        "max_rss_mb": round(statistics.median(s["max_rss_mb"] for s in samples), 1),
        "wall_s_samples": [round(s["wall_s"], 4) for s in samples],
    }


def key_gate(report: dict, committed: dict) -> dict:
    """Hold ``key_s`` to :data:`KEY_GATE_RATIO` x the committed value.

    The ceiling scales with the calibration probe ratio, so a host half
    as fast as the recording host gets twice the time.
    """
    gate: dict = {"max_ratio": KEY_GATE_RATIO, "passed": True}
    base = (committed.get("keys") or {}).get("key_s")
    base_calibration = committed.get("calibration_ops_per_sec")
    if not base or not base_calibration:
        gate["skipped"] = "committed report lacks keys/calibration"
        return gate
    scale = report["calibration_ops_per_sec"] / base_calibration
    ceiling = base / scale * KEY_GATE_RATIO
    measured = report["keys"]["key_s"]
    gate.update(
        calibration_scale=round(scale, 3),
        baseline_key_s=base,
        ceiling_key_s=round(ceiling, 4),
        measured_key_s=measured,
        passed=measured <= ceiling,
    )
    return gate


def run_all() -> dict:
    # Best-of calibration before and after, as bench_netsim_speed does.
    calibration = calibration_score()
    report = {"keys": key_times(), "warm_cli": warm_cli()}
    report["calibration_ops_per_sec"] = round(max(calibration, calibration_score()), 1)
    committed = json.loads(ARTIFACT_PATH.read_text()) if ARTIFACT_PATH.exists() else {}
    report["key_gate"] = key_gate(report, committed)
    return report


def main() -> int:
    report = run_all()
    keys, cli, gate = report["keys"], report["warm_cli"], report["key_gate"]
    print(f"keys: import {keys['import_s']:.3f} s, {keys['experiments']} cache keys"
          f" + query key + mapping fingerprint {keys['key_s']:.3f} s")
    print(f"warm `{cli['command']}`: {cli['wall_s']:.3f} s wall,"
          f" {cli['max_rss_mb']:.1f} MB max RSS")
    if gate.get("skipped"):
        print(f"key gate: skipped ({gate['skipped']})")
    else:
        print(f"key gate: {gate['measured_key_s']:.3f} s vs ceiling"
              f" {gate['ceiling_key_s']:.3f} s ({'pass' if gate['passed'] else 'FAIL'})")
    ARTIFACT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {ARTIFACT_PATH}")
    return 0 if gate["passed"] else 1


def test_cold_start_smoke():
    """One fresh process per measurement, on one cheap experiment."""
    keys = key_times(runs=1)
    assert keys["experiments"] > 0 and keys["key_s"] > 0
    cli = warm_cli(ids=("tab06",), runs=1)
    assert cli["wall_s"] > 0 and cli["max_rss_mb"] > 0


def test_key_gate():
    """Gate math: pass under the ceiling, fail over it, scale-aware."""
    committed = {"calibration_ops_per_sec": 1000.0, "keys": {"key_s": 0.2}}
    report = {"calibration_ops_per_sec": 500.0,  # host half as fast -> ceiling 0.6
              "keys": {"key_s": 0.59}}
    assert key_gate(report, committed)["passed"]
    report["keys"]["key_s"] = 0.61
    assert not key_gate(report, committed)["passed"]
    assert key_gate(report, {}).get("skipped")


if __name__ == "__main__":
    sys.exit(main())
