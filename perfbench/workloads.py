"""The four benchmark workloads and the checks on their outputs.

Every workload drives the program through its public entry points:
``repro.api.execute`` in this process (``sweep_design``, ``sweep_sim``,
``dcn``) or ``python -m repro serve`` over HTTP (``serve``).  Each has
``setup()`` (everything one-time, timed as ``setup_s``), ``measure()``
(the timed operations) and ``close()``.  ``repro`` is imported inside
``setup()`` so that its import cost is part of set-up time.

Why these workloads, and what each metric means, is in README.md.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_design", "sweep_sim", "dcn", "serve")

#: Simulation-backed paper figures; every other experiment is analytical.
SIM_IDS = ("fig21", "fig22", "fig23", "fig24")

#: Table-VIII-shape fabric: 72 leaf + 36 spine = 108 radix-72 wafers.
DCN_SHAPE = dict(hosts=2592, wafer_radix=72, ssc_radix=12)
DCN_QUERY = dict(
    DCN_SHAPE, duration_cycles=256, load=0.03, fidelity="hybrid",
    cycle_wafers=(0, 72), executor="auto",
)
DCN_PATTERNS = ("uniform", "dp_allreduce")

#: Smoke shape of the fidelity ladder (6 wafers), where the flow rung is
#: checked against the cycle-accurate rung.  Fixed inputs: flow_err is a
#: property of the code, not of the workload seed.
FLOW_ERR_SHAPE = dict(n_hosts=32, wafer_radix=16, ssc_radix=8)
FLOW_ERR_TRAFFIC = dict(pattern="uniform", duration_cycles=256, load=0.1, traffic_seed=3)

MIN_OPS = 3

#: Host-speed calibration.  This is a shared 2-core machine whose speed
#: drifts by a quarter within minutes, for pure-Python loops as much as
#: for the program.  Set-up and the in-process operations are therefore
#: timed right after a fixed pure-Python loop, at a point where the
#: program has nothing running, and reported as they would read on a
#: host that runs the loop at this many seconds per million iterations.
#: README.md has the measurements behind this.
REFERENCE_LOOP_S = 0.100

#: Serve requests are scaled the same way by a like-for-like reference
#: instead (reference_server.py), which tracks them where no loop did:
#: reported as on a host where its request takes this many milliseconds.
REFERENCE_REQUEST_MS = 6.0


def loop_seconds(iterations: int = 1_000_000) -> float:
    """Seconds per million iterations of the calibration loop, now."""
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return (time.perf_counter() - started) * 1_000_000 / iterations


def at_reference_speed(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the loop took ``loop_s``, rescaled."""
    return seconds * REFERENCE_LOOP_S / loop_s


def percentile_95(values: List[float]) -> float:
    return statistics.quantiles(values, n=20)[18] if len(values) > 1 else values[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Result:
    """What ``measure()`` hands back to run.py."""

    def __init__(self):
        self.latencies_ms: List[float] = []  # host wall time
        self.report_ms: List[float] = []  # what latency_ms is the median of
        self.loops: List[float] = []  # calibration loop, s per million
        self.reference_ms = 0.0  # serve: median reference request
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.layers: Dict[str, float] = {}
        self.events: list = []


# ----------------------------------------------------------------------
# Output checks (test_perfbench.py feeds them tampered inputs)
# ----------------------------------------------------------------------


def _canonical(value):
    """Floats to 10 significant digits, so a digest survives a machine
    whose float summation differs in the last bits."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def sweep_digest(response: Dict[str, Any]) -> str:
    """Digest of a sweep's tables, in experiment-id order.

    Covers id, title, headers, rows and notes; leaves out the note that
    names the netsim engine, which says how the rows were computed, not
    what they are.
    """
    bodies = []
    for table in sorted(response["result"]["experiments"], key=lambda t: t["experiment_id"]):
        bodies.append({
            "id": table["experiment_id"],
            "title": table["title"],
            "headers": table["headers"],
            "rows": _canonical(table["rows"]),
            "notes": [n for n in table["notes"] if not n.startswith("netsim engine:")],
        })
    return hashlib.sha256(json.dumps(bodies, sort_keys=True).encode()).hexdigest()


def dcn_errors(result: Dict[str, Any]) -> List[str]:
    """Why one DCN response is wrong (empty when it is right)."""
    errors = []
    if result["truncated"]:
        errors.append("run truncated before draining")
    if result["flits_delivered"] != result["flits_offered"]:
        errors.append(
            f"delivered {result['flits_delivered']} of {result['flits_offered']} flits"
        )
    if result["packets_delivered"] != result["packets_routed"]:
        errors.append(
            f"delivered {result['packets_delivered']} of {result['packets_routed']} packets"
        )
    return errors


def dcn_signature(result: Dict[str, Any]) -> str:
    """Everything a repeat of the same DCN query must reproduce."""
    keep = {k: v for k, v in result.items() if k not in ("wall_seconds", "executor", "engine")}
    return hashlib.sha256(json.dumps(keep, sort_keys=True).encode()).hexdigest()


def reference() -> Dict[str, Any]:
    """The committed expected outputs (see :func:`compute_reference`)."""
    return json.loads((HERE / "reference.json").read_text())


def flow_err_ok(value: float) -> bool:
    return abs(value - reference()["dcn_flow_err"]) <= 1e-6


def sweep_ids(name: str) -> List[str]:
    """Experiment ids of ``sweep_design`` or ``sweep_sim``."""
    from repro.experiments.base import EXPERIMENT_IDS

    return [i for i in EXPERIMENT_IDS if (i in SIM_IDS) == (name == "sweep_sim")]


def flow_err() -> float:
    """Flow rung vs cycle-accurate rung, delivered throughput, at the
    smoke shape."""
    import dataclasses

    from repro.dcn import DCNConfig, DCNShape, run_dcn

    base = DCNConfig(shape=DCNShape(**FLOW_ERR_SHAPE), **FLOW_ERR_TRAFFIC)
    rate = {}
    for fidelity in ("cycle", "flow"):
        run = run_dcn(dataclasses.replace(base, fidelity=fidelity), executor="serial")
        rate[fidelity] = run.flits_delivered / run.makespan
    return abs(rate["flow"] - rate["cycle"]) / rate["cycle"]


def compute_reference() -> Dict[str, Any]:
    """What reference.json holds, computed from the program as it is."""
    import tempfile

    from repro import api

    with tempfile.TemporaryDirectory() as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        reference = {
            name: sweep_digest(api.execute(
                api.SweepQuery(experiments=tuple(sweep_ids(name))), cache=None
            ))
            for name in ("sweep_design", "sweep_sim")
        }
        reference["dcn_flow_err"] = round(flow_err(), 9)
    return reference


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


class InProcess:
    """A workload whose operations are ``repro.api.execute`` calls here."""

    name = ""

    def __init__(self, seed: int, work: Path, tracer: Optional[tr.Tracer]):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.layers: Dict[str, float] = {}
        self._fresh = 0

    def fresh_cache_root(self) -> None:
        """Point every on-disk cache at a new empty directory."""
        old = os.environ.get("REPRO_CACHE_DIR")
        self._fresh += 1
        path = self.work / f"cache-{self._fresh}"
        path.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(path)
        if old and Path(old).parent == self.work:
            shutil.rmtree(old, ignore_errors=True)

    def setup(self) -> None:
        self.fresh_cache_root()
        from repro import api  # noqa: F401 — part of set-up time
        from repro.netsim import _fast_step

        started = time.perf_counter()
        _fast_step.load_kernel()
        self.layers["netsim.kernel_load_s"] = time.perf_counter() - started

    def prepare(self) -> None:
        """Untimed work before each operation."""

    def op(self) -> Any:
        raise NotImplementedError

    def errors(self, output: Any) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def measure(self, seconds: float) -> Result:
        from repro.mapping import store as mapping_store

        result = Result()
        mapping_before = mapping_store.stats_snapshot()
        trace_before = self.tracer.snapshot() if self.tracer else None
        deadline = time.perf_counter() + seconds
        while True:
            self.prepare()
            gc.collect()
            # Host speed, sampled while the program has nothing running.
            loop_s = loop_seconds()
            started = time.perf_counter()
            output = self.op()
            elapsed = time.perf_counter() - started
            result.events.append(("op", threading.get_ident(), started, elapsed))
            result.latencies_ms.append(elapsed * 1000.0)
            result.report_ms.append(at_reference_speed(elapsed, loop_s) * 1000.0)
            result.loops.append(loop_s)
            print(f"[perfbench] {self.name} op {len(result.loops)}: {elapsed:.3f} s wall, "
                  f"loop {loop_s:.4f} s, {result.report_ms[-1] / 1000.0:.3f} s scaled",
                  file=sys.stderr)
            result.attempted += 1
            errors = self.errors(output)
            if errors:
                result.failed += 1
                print(f"[perfbench] {self.name} op {result.attempted} wrong: {errors}",
                      file=sys.stderr)
            next_s = statistics.median(result.latencies_ms) / 1000.0 + loop_s
            if len(result.latencies_ms) >= MIN_OPS and time.perf_counter() + next_s > deadline:
                break
        result.peak_rss_mb = peak_rss_mb()
        if self.tracer is not None:
            window = self.tracer.since(trace_before)
            delta = mapping_store.stats_delta(mapping_before)
            window["counters"].update({
                "mapping.optimized": delta.get("optimized", 0),
                "mapping.optimize_s": delta.get("optimize_seconds", 0.0),
                "mapping.store_hits": delta.get("store_hits", 0),
                "mapping.memo_hits": delta.get("memo_hits", 0),
            })
            ops = result.attempted
            layers = tr.layer_metrics(window, ops, tr.wrapper_cost())
            layers["unattributed_s"] = (
                sum(result.latencies_ms) / 1000.0 - window["root_s"]
            ) / ops
            layers.update(self.layers)
            result.layers = layers
            result.events.extend(self.tracer.events)
        return result


class Sweep(InProcess):
    """Cold ``experiments`` run: a fresh cache root before every op."""

    def __init__(self, name: str, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.name = name
        self.reference = reference()[name]
        self.first: Optional[str] = None

    def setup(self) -> None:
        super().setup()
        import importlib

        from repro import api
        from repro.experiments.base import get_spec
        from repro.experiments.cache import cache_key
        from repro.fingerprint import transitive_modules
        from repro.mapping.store import mapping_source_fingerprint

        ids = sweep_ids(self.name)
        # The seed only orders the experiments; results must not depend
        # on run order, and the digest check holds them to that.
        random.Random(self.seed).shuffle(ids)
        self.ids = tuple(ids)
        # One-time costs of a first run in a process: lazy imports and
        # the source fingerprints behind every cache key.
        for experiment_id in self.ids:
            module = get_spec(experiment_id).module_name
            for name in transitive_modules(module):
                importlib.import_module(name)
            cache_key(experiment_id, True)
        mapping_source_fingerprint()
        self.query = api.SweepQuery(experiments=self.ids, fast=True)
        api.query_key(self.query)
        if self.tracer is not None:
            tr.install(self.tracer)

    def prepare(self) -> None:
        from repro.core.design import clear_mapping_cache

        self.fresh_cache_root()
        clear_mapping_cache()

    def op(self) -> Any:
        from repro import api

        return api.execute(self.query)

    def errors(self, output) -> List[str]:
        digest = sweep_digest(output)
        if self.first is None:
            self.first = digest
        errors = []
        if digest != self.reference:
            errors.append(f"digest {digest[:16]} != reference {self.reference[:16]}")
        if digest != self.first:
            errors.append("differs from this run's first op")
        return errors


class DCN(InProcess):
    """Table-VIII-shape hybrid DCN run, uniform then dp_allreduce."""

    name = "dcn"

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.first: Optional[List[str]] = None

    def setup(self) -> None:
        super().setup()
        from repro import api
        from repro.dcn import DCNShape
        from repro.dcn.flow import curves_for_shape
        from repro.parallel import shared_pool

        self.queries = [
            api.DCNQuery(pattern=p, seed=self.seed, **DCN_QUERY) for p in DCN_PATTERNS
        ]
        api.query_key(self.queries[0])
        started = time.perf_counter()
        shared_pool().submit_task(abs, (0,)).result()
        self.layers["parallel.spawn_s"] = time.perf_counter() - started
        started = time.perf_counter()
        curves_for_shape(DCNShape(n_hosts=DCN_SHAPE["hosts"], wafer_radix=DCN_SHAPE["wafer_radix"],
                                  ssc_radix=DCN_SHAPE["ssc_radix"]))
        self.layers["dcn.curve_s"] = time.perf_counter() - started
        # First pinned partitions on the workers: their dcn imports.
        api.execute(api.DCNQuery(hosts=16, back_to_back=True, duration_cycles=64,
                                 load=0.05, executor="auto"))
        if self.tracer is not None:
            tr.install(self.tracer)

    def check_flow_err(self) -> Tuple[float, bool]:
        """:func:`flow_err` against the reference (untimed, once a run)."""
        value = flow_err()
        self.layers["dcn.flow_err"] = value
        return value, flow_err_ok(value)

    def op(self) -> Any:
        from repro import api

        return [api.execute(q)["result"] for q in self.queries]

    def errors(self, output) -> List[str]:
        errors = [e for result in output for e in dcn_errors(result)]
        signature = [dcn_signature(r) for r in output]
        if self.first is None:
            self.first = signature
        elif signature != self.first:
            errors.append("differs from this run's first op")
        return errors

    def close(self) -> None:
        from repro.parallel import shutdown_shared_executor

        shutdown_shared_executor()


# ----------------------------------------------------------------------
# serve: open loop over HTTP
# ----------------------------------------------------------------------

#: Hot keys: answered from the response cache after set-up.  The
#: simulate key asks for telemetry, so its response (about 70 KB) makes
#: a hit mostly response-cache and HTTP work rather than process
#: wake-ups; the design key is the default design point.
HOT = (
    ("/v1/simulate", {"network": "waferscale", "terminals": 64, "radix": 16,
                      "loads": [0.1, 0.3], "warmup_cycles": 300,
                      "measure_cycles": 1500, "telemetry": True, "seed": 0}),
    ("/v1/design", {}),
    ("/v1/sweep", {"experiments": ["fig01"]}),
)

#: One frame: a cold simulate query at its start (re-sent 2 ms later in
#: about half the frames, while it is still in flight), then, once the
#: cold query is answered, nine hits 40 ms apart in seeded order: the
#: simulate key five times, the design and sweep keys once each and two
#: earlier cold keys.  The same mix in every frame keeps the median
#: inside the simulate-sized hits, whatever the seed.  Each hit is
#: followed 20 ms later, when the server is idle again, by one request
#: to the reference server.
FRAME_S = 0.5
FIRST_HIT_S = 0.15
HIT_GAP_S = 0.04
HITS_PER_FRAME = [0, 0, 0, 0, 0, 1, 2, None, None]  # HOT index, or an old cold key
REFERENCE_DELAY_S = 0.02
RESEND_DELAY_S = 0.002
SPIN_S = 0.002


def cold_payload(seed: int) -> Dict[str, Any]:
    return dict(HOT[0][1], seed=seed)


def schedule(seed: int, seconds: float) -> List[Tuple[float, str, str, Dict[str, Any]]]:
    """``(due offset, kind, path, payload)`` for one run, in due order;
    kind is ``cold``, ``coalesce`` or ``hit`` (to the program) or
    ``reference`` (to the reference server)."""
    rng = random.Random(seed)
    done_cold: List[Tuple[str, Dict[str, Any]]] = []
    plan = []
    for frame in range(max(1, int(seconds / FRAME_S))):
        start = frame * FRAME_S
        cold = ("/v1/simulate", cold_payload(seed * 100003 + frame + 1))
        plan.append((start, "cold", *cold))
        if rng.random() < 0.5:
            plan.append((start + RESEND_DELAY_S, "coalesce", *cold))
        # Cold keys two frames old have long been answered and stored.
        old = done_cold[:-1]
        hits = []
        for index in HITS_PER_FRAME:
            if index is not None:
                hits.append(HOT[index])
            elif old:
                hits.append(rng.choice(old))
            else:
                hits.append(HOT[len(hits) % len(HOT)])
        rng.shuffle(hits)
        for slot, (path, payload) in enumerate(hits):
            due = start + FIRST_HIT_S + slot * HIT_GAP_S
            plan.append((due, "hit", path, payload))
            plan.append((due + REFERENCE_DELAY_S, "reference", "/", {}))
        done_cold.append(cold)
    return plan


def key_of(path: str, payload: Dict[str, Any]) -> str:
    return path + json.dumps(payload, sort_keys=True)


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    async def request(self, method: str, path: str, payload=None) -> Tuple[int, bytes]:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode() + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def serve_errors(
    plan_kinds: List[str],
    statuses: List[int],
    bodies: List[bytes],
    keys: List[str],
    cold_bodies: Dict[str, bytes],
) -> List[str]:
    """Per-request errors: non-2xx, or a hit/coalesced body that is not
    byte-identical to the cold response for its key."""
    errors = []
    for kind, status, body, key in zip(plan_kinds, statuses, bodies, keys):
        if not 200 <= status < 300:
            errors.append(f"{kind} {key[:40]} -> HTTP {status}")
        elif kind != "cold" and body != cold_bodies.get(key):
            errors.append(f"{kind} {key[:40]} body differs from its cold response")
    return errors


def mix_errors(intended: Dict[str, int], counters: Dict[str, int]) -> int:
    """Requests the server answered by another path than intended."""
    return sum(
        abs(counters.get(name, 0) - want) for name, want in intended.items()
    )


class Serve:
    """``python -m repro serve`` on a fresh cache root, open loop.

    Request times are scaled to :data:`REFERENCE_REQUEST_MS` by the
    median time of the interleaved reference requests.
    """

    name = "serve"

    def __init__(self, seed: int, work: Path, trace: bool):
        self.seed = seed
        self.work = work
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None
        self.reference_server: Optional[subprocess.Popen] = None
        self.loop = asyncio.new_event_loop()
        self.conns: List[Connection] = []
        self.reference_conn: Optional[Connection] = None
        self.cold_bodies: Dict[str, bytes] = {}
        self.trace_file = work / "serve-trace.json"

    def setup(self) -> None:
        cache = self.work / "serve-cache"
        cache.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
        env["PYTHONPATH"] = str(ROOT / "src")
        if self.trace:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(self.trace_file)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve"]
        self.proc = subprocess.Popen(
            cmd + ["--port", "0"], cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=open(self.work / "serve.log", "w"), text=True, start_new_session=True,
        )
        banner = self.proc.stdout.readline()
        if "listening on" not in banner:
            raise RuntimeError(f"server did not boot: {banner!r}")
        port = int(banner.rsplit(":", 1)[1])
        self.loop.run_until_complete(self._connect(port))
        self.loop.run_until_complete(self._fill_hot())

    async def _connect(self, port: int) -> None:
        for _ in range(2):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            self.conns.append(Connection(reader, writer))

    def _start_reference(self) -> None:
        """Boot reference_server.py on the hot simulate key's response."""
        document = self.work / "reference.json"
        document.write_bytes(self.cold_bodies[key_of(*HOT[0])])
        self.reference_server = subprocess.Popen(
            [sys.executable, str(HERE / "reference_server.py"), str(document)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        banner = self.reference_server.stdout.readline()
        if not banner.startswith("listening on"):
            raise RuntimeError(f"reference server did not boot: {banner!r}")
        reader, writer = self.loop.run_until_complete(
            asyncio.open_connection("127.0.0.1", int(banner.split()[-1]))
        )
        self.reference_conn = Connection(reader, writer)

    async def _fill_hot(self) -> None:
        """First cold answers: spawn the pool and cache the hot keys,
        one connection each so both workers take a first task."""
        async def fill(conn, items):
            for path, payload in items:
                status, body = await conn.request("POST", path, payload)
                if status != 200:
                    raise RuntimeError(f"hot key {path} -> HTTP {status}")
                self.cold_bodies[key_of(path, payload)] = body

        await asyncio.gather(fill(self.conns[0], HOT[1:]), fill(self.conns[1], HOT[:1]))

    def _signal_mark(self) -> None:
        """Ask the traced server to snapshot its tracer (and wait)."""
        os.kill(self.proc.pid, signal.SIGUSR1)
        line = self.proc.stdout.readline()
        if not line.startswith("mark"):
            raise RuntimeError(f"traced server did not mark: {line!r}")

    async def _stats(self) -> Dict[str, int]:
        status, body = await self.conns[0].request("GET", "/v1/stats")
        return json.loads(body)["counters"]

    async def _drive(self, plan, t0: float):
        # Idle connections: the program's two, and the reference one.
        free = {"program": asyncio.Queue(), "reference": asyncio.Queue()}
        for conn in self.conns:
            free["program"].put_nowait(conn)
        free["reference"].put_nowait(self.reference_conn)
        n = len(plan)
        sent = [0.0] * n
        done = [0.0] * n
        statuses = [0] * n
        bodies = [b""] * n

        async def one(i, idle, conn, path, payload):
            try:
                statuses[i], bodies[i] = await conn.request("POST", path, payload)
            finally:
                done[i] = time.perf_counter()
                idle.put_nowait(conn)

        tasks = []
        for i, (offset, kind, path, payload) in enumerate(plan):
            delay = t0 + offset - time.perf_counter()
            if delay > SPIN_S:
                await asyncio.sleep(delay - SPIN_S)
            # Spin the last stretch: the event loop's timer alone wakes
            # up to a millisecond late, which is half a hit's latency.
            while time.perf_counter() < t0 + offset:
                pass
            idle = free["reference" if kind == "reference" else "program"]
            conn = await idle.get()
            sent[i] = time.perf_counter()
            tasks.append(asyncio.ensure_future(one(i, idle, conn, path, payload)))
        await asyncio.gather(*tasks)
        return sent, done, statuses, bodies

    def measure(self, seconds: float) -> Result:
        result = Result()
        self._start_reference()
        timeline = schedule(self.seed, seconds)
        before = self.loop.run_until_complete(self._stats())
        if self.trace:
            self._signal_mark()
        result.loops.append(loop_seconds())
        t0 = time.perf_counter() + 0.05
        sent, done, statuses, bodies = self.loop.run_until_complete(self._drive(timeline, t0))
        if self.trace:
            self._signal_mark()
        after = self.loop.run_until_complete(self._stats())
        counters = {k: after[k] - before.get(k, 0) for k in after}

        # Split the program's requests from the reference requests.
        wall_ms = [(d - t0 - p[0]) * 1000.0 for d, p in zip(done, timeline)]
        program = [i for i, p in enumerate(timeline) if p[1] != "reference"]
        reference_ms = [wall_ms[i] for i, p in enumerate(timeline) if p[1] == "reference"]
        if any(statuses[i] != 200 for i, p in enumerate(timeline) if p[1] == "reference"):
            raise RuntimeError("reference server failed a request")
        plan = [timeline[i] for i in program]
        kinds = [p[1] for p in plan]
        keys = [key_of(p[2], p[3]) for p in plan]
        statuses = [statuses[i] for i in program]
        bodies = [bodies[i] for i in program]
        result.latencies_ms = [wall_ms[i] for i in program]
        result.reference_ms = statistics.median(reference_ms)
        scale = REFERENCE_REQUEST_MS / result.reference_ms
        result.report_ms = [ms * scale for ms in result.latencies_ms]
        print(f"[perfbench] serve: {len(plan)} requests, median "
              f"{statistics.median(result.latencies_ms):.3f} ms wall, reference "
              f"{result.reference_ms:.3f} ms, {statistics.median(result.report_ms):.3f} ms scaled",
              file=sys.stderr)
        for kind, key, status, body in zip(kinds, keys, statuses, bodies):
            if kind == "cold" and status == 200:
                self.cold_bodies[key] = body
        errors = serve_errors(kinds, statuses, bodies, keys, self.cold_bodies)
        intended = {
            "requests": len(plan),
            "cache_hits": kinds.count("hit"),
            "coalesced": kinds.count("coalesce"),
            "pool_submissions": kinds.count("cold"),
            "errors": 0,
        }
        misrouted = mix_errors(intended, counters)
        if misrouted:
            print(f"[perfbench] serve counters {counters} != intended mix {intended}",
                  file=sys.stderr)
        for error in errors[:10]:
            print(f"[perfbench] serve wrong: {error}", file=sys.stderr)
        result.attempted = len(plan)
        result.failed = min(len(plan), len(errors) + misrouted)
        result.peak_rss_mb = self._server_peak_rss_mb()

        ops = len(plan)
        by_kind = {
            kind: [lat for lat, k in zip(result.report_ms, kinds) if k == kind]
            for kind in ("hit", "cold")
        }
        late = [(sent[i] - t0 - timeline[i][0]) * 1000.0 for i in program]
        self.client_layers = {
            "serve.requests": counters.get("requests", 0) / ops,
            "serve.cache_hits": counters.get("cache_hits", 0) / ops,
            "serve.coalesced": counters.get("coalesced", 0) / ops,
            "serve.pool_submissions": counters.get("pool_submissions", 0) / ops,
            "serve.errors": counters.get("errors", 0) / ops,
            "serve.hit_ratio": counters.get("cache_hits", 0) / max(1, counters.get("requests", 0)),
            "serve.client_late_ms": percentile_95(late),
            "serve.latency_p95_ms": percentile_95(result.report_ms),
            "serve.hit_latency_ms": statistics.median(by_kind["hit"]),
            "serve.miss_latency_ms": statistics.median(by_kind["cold"]),
        }
        self.service_s = sum(done[i] - sent[i] for i in program)
        result.events = [
            ("request:" + timeline[i][1], 0, sent[i], done[i] - sent[i]) for i in program
        ]
        return result

    def _server_peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def server_layers(self, ops: int) -> Tuple[Dict[str, float], list]:
        """Per-layer metrics from the traced server's marks (after close)."""
        data = json.loads(self.trace_file.read_text())
        before, after = data["marks"][0], data["marks"][1]
        window = tr.window(before, after, data["tasks"])
        layers = tr.layer_metrics(window, ops, data["costs"])
        layers.update(self.client_layers)
        requests = data["requests"][before["requests"]:after["requests"]]
        hits = [d for _t0, d, hit in requests if hit]
        layers["serve.handler_s"] = statistics.mean(hits) if hits else 0.0
        # What the client waited for that neither the dispatcher nor the
        # response write claims: request parsing, sockets, the client.
        claimed = sum(d for _t0, d, _h in requests) + window["stats"].get(
            "serve.http_write", [0, 0.0])[1]
        layers["unattributed_s"] = (self.service_s - claimed) / ops
        if data["tasks"]:
            first = data["tasks"][0]
            layers["parallel.spawn_s"] = (
                first["t_done"] - first["t_submit"] - first.get("busy_s", 0.0)
            )
        events = [tuple(e) for e in data["events"]]
        return layers, events

    async def _close_connections(self) -> None:
        conns = self.conns + ([self.reference_conn] if self.reference_conn else [])
        await asyncio.gather(*(conn.close() for conn in conns), return_exceptions=True)

    def close(self) -> None:
        # Run the loop until the sockets are really closed: a server
        # stopping on SIGINT waits for its open connections.
        try:
            self.loop.run_until_complete(self._close_connections())
        finally:
            self.conns = []
            self.reference_conn = None
            self.loop.close()
            if self.reference_server is not None:
                self.reference_server.kill()
                self.reference_server.wait()
                self.reference_server.stdout.close()
            if self.proc is not None:
                self._stop_server()

    def _stop_server(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=3)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        # Pool workers and the fork server share the server's session;
        # make sure none outlives it.
        deadline = time.monotonic() + 5.0
        while session_members(self.proc.pid) and time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def session_members(sid: int) -> List[int]:
    """Live (not zombie) processes of session ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def make(name: str, seed: int, work: Path, trace: bool):
    """The workload object for ``--workload name``."""
    if name == "serve":
        return Serve(seed, work, trace)
    tracer = tr.Tracer() if trace else None
    if name == "dcn":
        return DCN(seed, work, tracer)
    return Sweep(name, seed, work, tracer)
