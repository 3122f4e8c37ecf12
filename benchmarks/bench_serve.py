"""Serve-layer load benchmark: latency, coalescing, cache hit rate.

Boots ``python -m repro serve`` as a real subprocess on a loopback
port with an isolated cache directory, then drives it with an asyncio
HTTP client through four phases:

1. **warm latency** — one cold design query populates the response
   cache, then many sequential warm repeats measure the per-request
   p50/p99 (acceptance: warm p50 < 20 ms);
2. **hot hit** — one cold telemetry simulate query (a ~70 KB body),
   then hundreds of sequential warm repeats. A hit sends the stored
   bytes verbatim, so its p50 must be below this process's own median
   ``json.loads`` + ``json.dumps`` round trip of the same body, one
   timed after each hit, and every warm body must equal the cold body
   byte for byte (acceptance: both);
3. **dedup** — N concurrent *identical* cold queries; the in-flight
   coalescing table must collapse them into a handful of pool
   submissions (acceptance: dedup ratio >= 0.9, i.e. <= N/10
   submissions for N=100);
4. **mixed storm** — a large burst of concurrent queries mixing warm
   design/sweep/simulate hits with a spread of cold simulate queries
   (acceptance: zero failed requests).

Writes ``BENCH_serve.json`` with the latency percentiles, dedup ratio,
cache hit rate and server counters. Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --warm 500 --hot 500 --mixed 2000

Also collected by pytest as a scaled-down smoke test.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT_PATH = REPO_ROOT / "BENCH_serve.json"

#: Small-but-real queries: cold compute is a fraction of a second so
#: the benchmark finishes quickly, yet every layer (pool, cache,
#: coalescing) is exercised exactly as with full-size queries.
DESIGN_QUERY = {"substrate_mm": 100.0, "mapping_restarts": 1}
SWEEP_QUERY = {"experiments": ["fig01"]}

#: A hit whose body is large enough (~70 KB: two load points' telemetry
#: reports) that encoding work, not process wake-ups, would dominate.
HOT_SIM_QUERY = {
    "network": "waferscale",
    "terminals": 64,
    "radix": 16,
    "loads": [0.1, 0.3],
    "warmup_cycles": 300,
    "measure_cycles": 1500,
    "telemetry": True,
    "seed": 0,
}


def sim_query(seed: int = 1) -> dict:
    return {
        "network": "single-router",
        "terminals": 8,
        "vcs": 2,
        "buffer_flits": 8,
        "loads": [0.1],
        "warmup_cycles": 50,
        "measure_cycles": 100,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Minimal asyncio HTTP client (keep-alive per request, JSON bodies)
# ----------------------------------------------------------------------


async def raw_request(port: int, method: str, path: str, body=None):
    """One HTTP exchange; returns (status, the body's bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = b"" if body is None else json.dumps(body).encode()
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n"
            ).encode()
            + data
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), payload


async def request(port: int, method: str, path: str, body=None):
    """One HTTP exchange; returns (status, parsed-JSON body)."""
    status, payload = await raw_request(port, method, path, body)
    return status, json.loads(payload)


async def timed_request(port: int, path: str, body) -> tuple:
    """One POST; returns (status, milliseconds, the body's bytes)."""
    start = time.perf_counter()
    status, payload = await raw_request(port, "POST", path, body)
    return status, (time.perf_counter() - start) * 1000.0, payload


def percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------


class ServerProcess:
    """``python -m repro serve`` on a kernel-picked port."""

    def __init__(self, cache_dir: str):
        env = dict(os.environ, REPRO_CACHE_DIR=cache_dir)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        banner = self.proc.stdout.readline()
        if "listening on" not in banner:
            raise RuntimeError(f"serve failed to boot: {banner!r}")
        self.port = int(banner.rsplit(":", 1)[1])

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


async def phase_warm(port: int, repeats: int) -> dict:
    status, cold_ms, _ = await timed_request(port, "/v1/design", DESIGN_QUERY)
    assert status == 200, f"cold design query failed: {status}"
    latencies = []
    for _ in range(repeats):
        status, warm_ms, _ = await timed_request(port, "/v1/design", DESIGN_QUERY)
        assert status == 200
        latencies.append(warm_ms)
    return {
        "cold_ms": round(cold_ms, 2),
        "requests": repeats,
        "p50_ms": round(percentile(latencies, 0.50), 3),
        "p99_ms": round(percentile(latencies, 0.99), 3),
    }


def json_round_trip_ms(body: bytes) -> float:
    """Milliseconds this process takes to parse ``body`` and encode it
    again: what a hit would cost on top of its I/O if the server decoded
    the stored entry and re-encoded the response."""
    start = time.perf_counter()
    json.dumps(json.loads(body)).encode()
    return (time.perf_counter() - start) * 1000.0


async def phase_hot_hit(port: int, repeats: int) -> dict:
    status, cold_ms, cold = await timed_request(port, "/v1/simulate", HOT_SIM_QUERY)
    assert status == 200, f"cold hot-hit query failed: {status}"
    # Each hit is paired with one round trip, so both medians see the
    # same host load.
    latencies, round_trips, differing = [], [], 0
    for _ in range(repeats):
        status, warm_ms, warm = await timed_request(
            port, "/v1/simulate", HOT_SIM_QUERY
        )
        assert status == 200
        latencies.append(warm_ms)
        differing += warm != cold
        round_trips.append(json_round_trip_ms(cold))
    p50 = percentile(latencies, 0.50)
    round_trip = statistics.median(round_trips)
    return {
        "cold_ms": round(cold_ms, 2),
        "body_bytes": len(cold),
        "requests": repeats,
        "differing_bodies": differing,
        "p50_ms": round(p50, 3),
        "p99_ms": round(percentile(latencies, 0.99), 3),
        "json_round_trip_ms": round(round_trip, 3),
        "gate": "p50_ms < json_round_trip_ms and differing_bodies == 0",
        "passed": p50 < round_trip and differing == 0,
    }


async def stats(port: int) -> dict:
    status, body = await request(port, "GET", "/v1/stats")
    assert status == 200
    return body


async def phase_dedup(port: int, concurrency: int) -> dict:
    before = (await stats(port))["counters"]
    query = sim_query(seed=424242)  # never seen before -> genuinely cold
    outcomes = await asyncio.gather(
        *[timed_request(port, "/v1/simulate", query) for _ in range(concurrency)]
    )
    failed = sum(1 for status, _, _ in outcomes if status != 200)
    after = (await stats(port))["counters"]
    submissions = after["pool_submissions"] - before["pool_submissions"]
    return {
        "requests": concurrency,
        "failed": failed,
        "pool_submissions": submissions,
        "dedup_ratio": round(1.0 - submissions / concurrency, 4),
    }


async def phase_mixed(port: int, total: int, cold_seeds: int) -> dict:
    """Concurrent storm: mostly warm hits plus a spread of cold sims."""
    tasks = []
    for i in range(total):
        slot = i % 10
        if slot < 4:
            tasks.append(timed_request(port, "/v1/design", DESIGN_QUERY))
        elif slot < 7:
            tasks.append(timed_request(port, "/v1/simulate", sim_query(seed=1)))
        elif slot < 9:
            tasks.append(timed_request(port, "/v1/sweep", SWEEP_QUERY))
        else:
            # Cold sims, cycled over a small seed pool so several
            # requests coalesce onto each genuinely new computation.
            tasks.append(
                timed_request(
                    port, "/v1/simulate", sim_query(seed=9000 + i % cold_seeds)
                )
            )
    start = time.perf_counter()
    outcomes = await asyncio.gather(*tasks)
    wall = time.perf_counter() - start
    latencies = [ms for _, ms, _ in outcomes]
    return {
        "requests": total,
        "failed": sum(1 for status, _, _ in outcomes if status != 200),
        "wall_seconds": round(wall, 2),
        "requests_per_second": round(total / wall, 1),
        "p50_ms": round(percentile(latencies, 0.50), 2),
        "p99_ms": round(percentile(latencies, 0.99), 2),
    }


async def drive(port: int, warm: int, hot: int, dedup: int, mixed: int) -> dict:
    # Prime the sweep + warm sim entries so the mixed storm measures a
    # realistic warm/cold blend rather than 1000 cold stampedes.
    status, _ = await request(port, "POST", "/v1/sweep", SWEEP_QUERY)
    assert status == 200
    status, _ = await request(port, "POST", "/v1/simulate", sim_query(seed=1))
    assert status == 200

    report = {
        "warm_design": await phase_warm(port, warm),
        "hot_hit": await phase_hot_hit(port, hot),
        "dedup": await phase_dedup(port, dedup),
        "mixed": await phase_mixed(port, mixed, cold_seeds=max(2, mixed // 100)),
    }
    final = await stats(port)
    report["server"] = final
    report["cache_hit_rate"] = round(final["cache_hit_rate"], 4)
    return report


def run_bench(
    warm: int = 300, hot: int = 300, dedup: int = 100, mixed: int = 1000
) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as cache_dir:
        server = ServerProcess(cache_dir)
        try:
            report = asyncio.run(drive(server.port, warm, hot, dedup, mixed))
        finally:
            server.stop()
    report["scale"] = {"warm": warm, "hot": hot, "dedup": dedup, "mixed": mixed}
    report["passed"] = (
        report["warm_design"]["p50_ms"] < 20.0
        and report["hot_hit"]["passed"]
        and report["dedup"]["dedup_ratio"] >= 0.9
        and report["dedup"]["failed"] == 0
        and report["mixed"]["failed"] == 0
    )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--warm", type=int, default=300)
    parser.add_argument("--hot", type=int, default=300)
    parser.add_argument("--dedup", type=int, default=100)
    parser.add_argument("--mixed", type=int, default=1000)
    args = parser.parse_args()

    report = run_bench(
        warm=args.warm, hot=args.hot, dedup=args.dedup, mixed=args.mixed
    )
    hot = report["hot_hit"]
    print(
        f"warm design p50 {report['warm_design']['p50_ms']} ms "
        f"(p99 {report['warm_design']['p99_ms']} ms, cold "
        f"{report['warm_design']['cold_ms']} ms)\n"
        f"hot hit ({hot['body_bytes']} bytes) p50 {hot['p50_ms']} ms vs "
        f"json round trip {hot['json_round_trip_ms']} ms, "
        f"{hot['differing_bodies']} differing bodies\n"
        f"dedup: {report['dedup']['requests']} concurrent identical -> "
        f"{report['dedup']['pool_submissions']} pool submission(s), "
        f"ratio {report['dedup']['dedup_ratio']}\n"
        f"mixed: {report['mixed']['requests']} concurrent, "
        f"{report['mixed']['failed']} failed, "
        f"{report['mixed']['requests_per_second']} req/s "
        f"(p50 {report['mixed']['p50_ms']} ms, p99 {report['mixed']['p99_ms']} ms)\n"
        f"cache hit rate {report['cache_hit_rate']}, "
        f"passed: {report['passed']}"
    )
    ARTIFACT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {ARTIFACT_PATH}")
    return 0 if report["passed"] else 1


def test_serve_bench_smoke(tmp_path, monkeypatch):
    """Scaled-down pass of all four phases against a real subprocess."""
    del tmp_path, monkeypatch  # isolation comes from run_bench's temp dir
    report = run_bench(warm=20, hot=20, dedup=20, mixed=60)
    assert report["hot_hit"]["differing_bodies"] == 0
    assert report["dedup"]["failed"] == 0
    assert report["mixed"]["failed"] == 0
    assert report["dedup"]["pool_submissions"] <= 2
    assert report["warm_design"]["p50_ms"] < 100  # generous for shared CI


if __name__ == "__main__":
    raise SystemExit(main())
