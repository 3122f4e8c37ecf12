"""In-memory span tracer wrapped around the program's layer entry points.

The benchmark measures end-to-end numbers with nothing installed, and
per-layer numbers in a separate traced run (``--trace 1``).  For that
run :func:`install` replaces each entry point listed in
:data:`ENTRY_POINTS` -- in its owner module or class *and* in every
``repro`` module that imported it by name -- with a wrapper that times
the call.  Nothing in ``src/`` is edited; :meth:`Tracer.uninstall`
puts the originals back.

Each wrapped call is a span.  Spans nest per thread, so a span's *self*
time is its duration minus the time its child spans cover, and a
layer's busy time is the self time of its spans.  Spans on the main
thread with no parent are *roots*; an operation's wall time minus the
root coverage is time no layer claimed (``unattributed_s``).

"Hot" entry points (hundreds of thousands of calls per operation, such
as ``DCNFabric.route``) only add to the per-name totals; every other
span is also kept as an event for the Chrome trace written at the end
of the run (:func:`chrome_trace`).  Pool tasks are timed from the
``(value, stats)`` rows their futures resolve to, through a done
callback, so the worker's own time and the dispatch time come from the
pool itself.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: Per-request record for the serve launcher: ``ResponseCache.load``
#: marks whether the request that called it was answered from cache.
REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request")


class Tracer:
    """Span totals, span events and pool-task rows for one process."""

    def __init__(self):
        self.stats: Dict[str, List[float]] = {}  # name -> [count, total, self]
        self.counters: Dict[str, float] = {}
        self.events: List[Tuple[str, int, float, float]] = []
        self.tasks: List[Dict[str, Any]] = []
        self.requests: List[Tuple[float, float, bool]] = []
        self.root_s = 0.0
        self.calls = 0
        self.hot_calls = 0
        self._local = threading.local()
        # Re-entrant: the serve launcher snapshots from a signal handler,
        # which may interrupt the main thread inside a locked section.
        self._lock = threading.RLock()
        self._main = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _close(self, name, t0, t1, frame, stack, hot) -> None:
        duration = t1 - t0
        with self._lock:
            row = self.stats.get(name)
            if row is None:
                row = self.stats[name] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            elif threading.get_ident() == self._main:
                self.root_s += duration
            if hot:
                self.hot_calls += 1
            else:
                self.calls += 1
                self.events.append((name, threading.get_ident(), t0, duration))

    def wrap(
        self,
        name: str,
        fn: Callable,
        hot: bool = False,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``after(tracer, frame, call,
        result, seconds)`` runs once the span closes (extra counters),
        with ``call`` the ``(args, kwargs)`` pair."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0, name, set()]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._close(name, t0, t1, frame, stack, hot)
            if after is not None:
                after(tracer, frame, (args, kwargs), result, t1 - t0)
            return result

        return wrapper

    def mark(self, fn: Callable, span: str, flag: str) -> Callable:
        """``fn`` that flags the innermost open ``span`` when called."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for frame in reversed(tracer._stack()):
                if frame[1] == span:
                    frame[2].add(flag)
                    break
            return fn(*args, **kwargs)

        return wrapper

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Coroutine ``fn`` timed per request (no nesting across awaits)."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            record = {"hit": False}
            REQUEST.set(record)
            t0 = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                with tracer._lock:
                    tracer.requests.append((t0, t1 - t0, record["hit"]))
                    tracer.events.append((name, threading.get_ident(), t0, t1 - t0))
                    tracer.calls += 1

        return wrapper

    def wrap_submit_task(self, fn: Callable) -> Callable:
        """``WorkerPool.submit_task`` whose future reports its stats row."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            submitted = perf_counter()
            future = fn(*args, **kwargs)
            label = kwargs.get("label") or ""

            def done(fut) -> None:
                row = {"t_submit": submitted, "t_done": perf_counter(), "label": label}
                if fut.cancelled():
                    row["error"] = "cancelled"
                elif fut.exception() is not None:
                    row["error"] = type(fut.exception()).__name__
                else:
                    stats = fut.result()[1]
                    row["busy_s"] = stats.get("seconds_in_worker", 0.0)
                    row["dispatch_s"] = stats.get("dispatch_s", 0.0)
                    row["attempts"] = stats.get("attempts", 1)
                with tracer._lock:
                    tracer.tasks.append(row)

            future.add_done_callback(done)
            with tracer._lock:
                tracer.calls += 1
            return future

        return wrapper

    # -- patching ------------------------------------------------------

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr``; for a module attribute also every
        ``repro`` module global bound to the same object."""
        original = owner.__dict__[attr]
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module
                for name, module in list(sys.modules.items())
                if name.startswith("repro") and module is not owner
                and module.__dict__.get(attr) is original
            ]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "stats": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters),
                "tasks": len(self.tasks),
                "requests": len(self.requests),
                "root_s": self.root_s,
                "calls": self.calls,
                "hot_calls": self.hot_calls,
            }

    def since(self, before: Dict[str, Any]) -> Dict[str, Any]:
        """Totals accumulated after ``before`` (a :meth:`snapshot`)."""
        with self._lock:
            return window(before, self.snapshot(), self.tasks)


def window(before: Dict[str, Any], after: Dict[str, Any], tasks: list) -> Dict[str, Any]:
    """What happened between two :meth:`Tracer.snapshot` calls."""
    stats = {}
    for name, (count, total, self_s) in after["stats"].items():
        b = before["stats"].get(name, [0, 0.0, 0.0])
        stats[name] = [count - b[0], total - b[1], self_s - b[2]]
    return {
        "stats": stats,
        "counters": {
            k: v - before["counters"].get(k, 0) for k, v in after["counters"].items()
        },
        "tasks": list(tasks[before["tasks"]:after["tasks"]]),
        "root_s": after["root_s"] - before["root_s"],
        "calls": after["calls"] - before["calls"],
        "hot_calls": after["hot_calls"] - before["hot_calls"],
    }


# ----------------------------------------------------------------------
# Entry points per layer
# ----------------------------------------------------------------------


def _first_arg(call, name: str):
    args, kwargs = call
    return args[0] if args else kwargs[name]


def _netsim_cycles(tracer, frame, call, result, seconds) -> None:
    if frame[1] == "netsim.replay":
        network = _first_arg(call, "network")
    else:
        network = call[0][0].network  # Simulator.run: self
    tracer.count("netsim.cycles", network.cycle)
    if "c" not in frame[2]:  # the compiled kernel did not run this one
        tracer.count("netsim.fallback_runs")
        tracer.count("netsim.fallback_s", seconds)


def _dcn_epochs(tracer, frame, call, result, seconds) -> None:
    tracer.count("dcn.epochs", result.epochs)


def _wire_encoded(tracer, frame, call, result, seconds) -> None:
    tracer.count("wire.bytes", len(result))


def _wire_decoded(tracer, frame, call, result, seconds) -> None:
    tracer.count("wire.bytes", len(_first_arg(call, "payload")))


def _cache_load(tracer, frame, call, result, seconds) -> None:
    record = REQUEST.get(None)
    if record is not None and result is not None:
        record["hit"] = True


#: ``(module, owner, attribute, span name, hot, after-hook)``; ``owner``
#: is a class name in the module, or None for a module-level function.
ENTRY_POINTS = (
    ("repro.experiments.runner", None, "run_experiments", "experiments.run", False, None),
    ("repro.experiments.base", "ExperimentSpec", "run_unit", "experiments.unit", False, None),
    ("repro.experiments.cache", "ResultCache", "load", "experiments.cache_io", False, None),
    ("repro.experiments.cache", "ResultCache", "store", "experiments.cache_io", False, None),
    ("repro.core.explorer", None, "max_feasible_design", "core.explore", False, None),
    ("repro.core.design", None, "evaluate_design", "core.design", False, None),
    ("repro.mapping.exchange", None, "optimize_mapping", "mapping.optimize", False, None),
    ("repro.mapping.store", "MappingStore", "load", "mapping.store_io", False, None),
    ("repro.mapping.store", "MappingStore", "store", "mapping.store_io", False, None),
    ("repro.netsim.sim", "Simulator", "run", "netsim.run", False, _netsim_cycles),
    ("repro.netsim.trace", None, "replay_trace", "netsim.replay", False, _netsim_cycles),
    ("repro.netsim.sim", None, "load_latency_sweep", "netsim.sweep", False, None),
    ("repro.netsim.sim", None, "saturation_throughput", "netsim.saturation", False, None),
    ("repro.dcn.sim", None, "run_dcn", "dcn.run", False, _dcn_epochs),
    ("repro.dcn.sim", "_Plan", "__init__", "dcn.plan", False, None),
    ("repro.dcn.sim", None, "_run_epochs", "dcn.epoch", False, None),
    ("repro.dcn.fabric", "DCNFabric", "route", "dcn.route", True, None),
    ("repro.dcn.traffic", None, "generate", "dcn.traffic", False, None),
    ("repro.dcn.flow", "FlowWaferNode", "advance", "dcn.flow", True, None),
    ("repro.dcn.flow", None, "curves_for_shape", "dcn.curve", False, None),
    ("repro.wire", None, "encode", "wire.encode", True, _wire_encoded),
    ("repro.wire", None, "decode", "wire.decode", True, _wire_decoded),
    ("repro.serve.dispatch", "ResponseCache", "load", "serve.cache_load", False, _cache_load),
    ("repro.serve.dispatch", "ResponseCache", "store", "serve.cache_store", False, None),
    ("repro.serve.server", "ServeServer", "_write_json", "serve.http_write", False, None),
)


def install(tracer: Tracer, serve: bool = False) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS` (and the pool).

    The owner modules are imported here, so call this after the
    workload's own imports and before its first timed operation.
    """
    for module_name, owner_name, attr, span, hot, after in ENTRY_POINTS:
        if module_name.startswith("repro.serve") and not serve:
            continue
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        tracer.patch(owner, attr, tracer.wrap(span, original, hot=hot, after=after))
    fast_core = importlib.import_module("repro.netsim.fast_core")
    tracer.patch(
        fast_core.FastEngine, "_c_run_bernoulli",
        tracer.mark(fast_core.FastEngine.__dict__["_c_run_bernoulli"], "netsim.run", "c"),
    )
    parallel = importlib.import_module("repro.parallel")
    tracer.patch(
        parallel.WorkerPool, "submit_task",
        tracer.wrap_submit_task(parallel.WorkerPool.__dict__["submit_task"]),
    )
    if serve:
        dispatch = importlib.import_module("repro.serve.dispatch")
        tracer.patch(
            dispatch.Dispatcher, "submit",
            tracer.wrap_async("serve.submit", dispatch.Dispatcher.__dict__["submit"]),
        )


def wrapper_cost(calls: int = 20000) -> Dict[str, float]:
    """Seconds one wrapped call adds over a plain call (event, hot)."""

    def noop():
        return None

    costs = {}
    for hot in (False, True):
        probe = Tracer()
        wrapped = probe.wrap("probe", noop, hot=hot)
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        plain = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        costs["hot" if hot else "event"] = max(0.0, (perf_counter() - t0 - plain) / calls)
    return costs


# ----------------------------------------------------------------------
# Per-layer table and Chrome trace
# ----------------------------------------------------------------------

#: Per-layer metrics: name -> unit.  Counts and times are per operation
#: (for ``serve`` an operation is one request) unless the README says
#: the metric is a one-time setup cost.
LAYER_METRICS = {
    "experiments.units": "count",
    "experiments.busy_s": "s",
    "experiments.cache_io_s": "s",
    "core.designs": "count",
    "core.busy_s": "s",
    "mapping.optimized": "count",
    "mapping.optimize_s": "s",
    "mapping.store_hits": "count",
    "mapping.memo_hits": "count",
    "mapping.store_io_s": "s",
    "netsim.runs": "count",
    "netsim.busy_s": "s",
    "netsim.cycles": "count",
    "netsim.cycles_per_s": "1/s",
    "netsim.fallback_runs": "count",
    "netsim.fallback_s": "s",
    "netsim.kernel_load_s": "s",
    "dcn.plan_s": "s",
    "dcn.route_calls": "count",
    "dcn.route_s": "s",
    "dcn.traffic_s": "s",
    "dcn.epochs": "count",
    "dcn.epoch_s": "s",
    "dcn.flow_s": "s",
    "dcn.curve_s": "s",
    "dcn.flow_err": "ratio",
    "parallel.tasks": "count",
    "parallel.wait_s": "s",
    "parallel.dispatch_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.retries": "count",
    "parallel.affinity_lost": "count",
    "parallel.spawn_s": "s",
    "wire.bytes": "count",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "serve.requests": "count",
    "serve.cache_hits": "count",
    "serve.coalesced": "count",
    "serve.pool_submissions": "count",
    "serve.errors": "count",
    "serve.hit_ratio": "ratio",
    "serve.cache_load_s": "s",
    "serve.cache_store_s": "s",
    "serve.handler_s": "s",
    "serve.http_write_s": "s",
    "serve.client_late_ms": "ms",
    "serve.latency_p95_ms": "ms",
    "serve.hit_latency_ms": "ms",
    "serve.miss_latency_ms": "ms",
    "unattributed_s": "s",
    "trace_overhead_ms": "ms",
    "host.loop_ms": "ms",
    "host.reference_ms": "ms",
}

#: Span names whose self time is a layer's busy time.
_BUSY = {
    "experiments.busy_s": ("experiments.run", "experiments.unit", "experiments.cache_io"),
    "core.busy_s": ("core.explore", "core.design"),
    "netsim.busy_s": ("netsim.run", "netsim.replay", "netsim.sweep", "netsim.saturation"),
}

#: Span names whose inclusive time is reported as is.
_TOTAL = {
    "experiments.cache_io_s": "experiments.cache_io",
    "mapping.store_io_s": "mapping.store_io",
    "dcn.plan_s": "dcn.plan",
    "dcn.route_s": "dcn.route",
    "dcn.traffic_s": "dcn.traffic",
    "dcn.epoch_s": "dcn.epoch",
    "dcn.flow_s": "dcn.flow",
    "wire.encode_s": "wire.encode",
    "wire.decode_s": "wire.decode",
    "serve.cache_load_s": "serve.cache_load",
    "serve.cache_store_s": "serve.cache_store",
    "serve.http_write_s": "serve.http_write",
}

#: Span names whose call count is reported.
_CALLS = {
    "experiments.units": "experiments.unit",
    "core.designs": "core.design",
    "dcn.route_calls": "dcn.route",
}


def task_metrics(tasks: List[Dict[str, Any]]) -> Dict[str, float]:
    """Pool metrics from done-callback rows (totals, not per op)."""
    out = dict.fromkeys(
        ("parallel.tasks", "parallel.wait_s", "parallel.dispatch_s",
         "parallel.worker_busy_s", "parallel.retries", "parallel.affinity_lost"),
        0.0,
    )
    for row in tasks:
        out["parallel.tasks"] += 1
        if "error" in row:
            out["parallel.affinity_lost"] += row["error"] == "AffinityLostError"
            continue
        busy, dispatch = row["busy_s"], row["dispatch_s"]
        out["parallel.worker_busy_s"] += busy
        out["parallel.dispatch_s"] += dispatch
        out["parallel.wait_s"] += max(0.0, row["t_done"] - row["t_submit"] - busy - dispatch)
        out["parallel.retries"] += row["attempts"] - 1
    return out


def layer_metrics(window: Dict[str, Any], ops: int, costs: Dict[str, float]) -> Dict[str, float]:
    """Per-operation layer metrics from a :meth:`Tracer.since` window."""
    stats, counters = window["stats"], window["counters"]
    ops = max(1, ops)
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    for metric, spans in _BUSY.items():
        out[metric] = sum(stats.get(s, [0, 0.0, 0.0])[2] for s in spans) / ops
    for metric, span in _TOTAL.items():
        out[metric] = stats.get(span, [0, 0.0, 0.0])[1] / ops
    for metric, span in _CALLS.items():
        out[metric] = stats.get(span, [0, 0.0, 0.0])[0] / ops
    runs = sum(stats.get(s, [0])[0] for s in ("netsim.run", "netsim.replay"))
    out["netsim.runs"] = runs / ops
    for name, value in counters.items():
        out[name] = value / ops
    sim_s = sum(stats.get(s, [0, 0.0])[1] for s in ("netsim.run", "netsim.replay"))
    out["netsim.cycles_per_s"] = counters.get("netsim.cycles", 0.0) / sim_s if sim_s else 0.0
    for name, value in task_metrics(window["tasks"]).items():
        out[name] = value / ops
    out["trace_overhead_ms"] = 1000.0 * (
        window["calls"] * costs["event"] + window["hot_calls"] * costs["hot"]
    ) / ops
    return out


def chrome_trace(events, pid: int) -> Dict[str, Any]:
    """Chrome trace-event JSON (``ph: X`` complete events, microseconds)."""
    out = [
        {
            "name": name, "cat": name.split(".")[0], "ph": "X", "pid": pid,
            "tid": tid, "ts": round(t0 * 1e6, 1), "dur": round(duration * 1e6, 1),
        }
        for name, tid, t0, duration in events
    ]
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def format_table(metrics: Dict[str, float], workload: str) -> str:
    """The per-layer table written next to the Chrome trace."""
    lines = [f"per-layer metrics, workload {workload} (per operation unless noted in README)"]
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        lines.append(f"  {name.ljust(width)}  {value:14.6f}  {LAYER_METRICS[name]}")
    return "\n".join(lines)
