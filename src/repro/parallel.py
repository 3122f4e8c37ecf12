"""Warm-worker dispatch: one persistent pool behind every parallel path.

A throwaway ``ProcessPoolExecutor`` per call paid worker spawn and
cold imports for every work unit and lost to serial on small machines
(a 0.55x "speedup" on one core), so everything runs on a single
long-lived :class:`WorkerPool`:

* **Warm workers.** Worker processes are spawned once (``forkserver``
  start method, no inherited parent FDs), preload the heavy modules —
  numpy, the compiled netsim step kernel, the vectorized mapping
  kernel, the experiments layer — and then pull task after task until
  shut down. The second unit a worker runs imports nothing.
* **One pool lifecycle.** The experiment scheduler
  (:mod:`repro.experiments.scheduler`), the mapping optimizer's
  parallel restarts (:mod:`repro.mapping.exchange`) and the serve
  dispatcher (:mod:`repro.serve.dispatch`) all share the pool returned
  by :func:`shared_pool`.
* **First in, first out.** Pending tasks wait in one queue and run in
  submission order; a retried task goes back to the front. Results
  travel back through :mod:`repro.wire` (one pickle per result).
* **Serial fast path.** :func:`effective_jobs` degrades a parallel
  request to plain in-process serial execution when the *effective*
  core count (CPU affinity and cgroup quota respected, see
  :func:`effective_cpu_count`) or the task count is too small to
  amortize dispatch. ``REPRO_PARALLEL=force`` disables the heuristic
  (tests and benchmarks use it); ``REPRO_PARALLEL=serial`` forces the
  serial path outright.

Failure policy (enforced per task):

1. a task that raises in a worker, or whose result cannot be encoded
   there or decoded in the parent, is **retried once** on the pool;
2. a task that fails twice is reported on stderr and falls back to
   serial execution in the parent; its future carries the original
   exception type;
3. a worker that *dies* (hard crash) is respawned and its task retried
   under the same accounting; one crash no longer abandons the run;
4. a stall (no completion within ``timeout`` seconds) abandons all
   outstanding tasks to serial and recycles their workers;
5. an error that also reproduces serially propagates — the work is
   genuinely broken, not a scheduling casualty.

The relocatable roots (``REPRO_CACHE_DIR``, ``REPRO_TELEMETRY_DIR``)
travel **per task**, so a long-lived worker always sees the submitting
process's current roots, not a snapshot from spawn time. Engines ride
in the task's own arguments. ``fn`` must be a module-level callable
(or otherwise picklable) and every task tuple picklable. Full
reference: ``docs/parallel.md``.
"""

from __future__ import annotations

import importlib
import itertools
import math
import os
import pickle
import sys
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, FIRST_COMPLETED, Future
from concurrent.futures import wait as futures_wait
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import wire

#: Placeholder for a result not yet produced.
_UNSET = object()

#: Total attempts per task on the pool before the serial fallback.
MAX_POOL_ATTEMPTS = 2

#: ``REPRO_PARALLEL``: ``auto`` (default heuristic), ``force`` (always
#: use the pool when ``jobs > 1``), ``serial`` (never use the pool).
PARALLEL_MODE_ENV = "REPRO_PARALLEL"

#: Mirrored into workers per task: the cache/telemetry roots, which
#: per-test/per-run isolation moves around long after the warm workers
#: were spawned.
PROPAGATED_ENV_VARS = (
    "REPRO_CACHE_DIR",
    "REPRO_TELEMETRY_DIR",
)

#: Modules imported once per worker at spawn, before any task runs.
#: Importing the experiments layer pulls in numpy, the ctypes kernel
#: loader, and the mapping kernel's driver — the bulk of cold-import
#: time for every real workload this pool serves.
PRELOAD_MODULES = (
    "numpy",
    "repro.engines",
    "repro.netsim.fast_core",
    "repro.ckernel",
    "repro.mapping.fast_exchange",
    "repro.experiments.base",
)

#: cgroup mount probed by :func:`effective_cpu_count` (tests repoint it).
_CGROUP_ROOT = "/sys/fs/cgroup"


def _propagated_env() -> Dict[str, str]:
    return {
        name: os.environ[name]
        for name in PROPAGATED_ENV_VARS
        if name in os.environ
    }


def _warn(message: str) -> None:
    print(f"[scheduler] {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# Effective parallelism
# ----------------------------------------------------------------------


def _cgroup_cpu_limit(root: Optional[str] = None) -> Optional[int]:
    """CPU quota from the cgroup (v2 then v1), as a whole core count."""
    base = Path(root if root is not None else _CGROUP_ROOT)
    try:  # cgroup v2: "quota period" or "max period"
        fields = (base / "cpu.max").read_text().split()
        if fields and fields[0] != "max":
            quota = int(fields[0])
            period = int(fields[1]) if len(fields) > 1 else 100_000
            if quota > 0 and period > 0:
                return max(1, math.ceil(quota / period))
    except (OSError, ValueError):
        pass
    try:  # cgroup v1
        quota = int((base / "cpu" / "cpu.cfs_quota_us").read_text())
        period = int((base / "cpu" / "cpu.cfs_period_us").read_text())
        if quota > 0 and period > 0:
            return max(1, math.ceil(quota / period))
    except (OSError, ValueError):
        pass
    return None


def effective_cpu_count() -> int:
    """Cores this process may actually use (not just ``os.cpu_count``).

    Respects the scheduler affinity mask (``taskset``, container CPU
    pinning) and any cgroup CPU quota, so ``--jobs auto`` inside a
    2-core-quota container resolves to 2 even on a 64-core host.
    """
    try:
        count = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        count = os.cpu_count() or 1
    quota = _cgroup_cpu_limit()
    if quota is not None:
        count = min(count, quota)
    return max(1, count)


def effective_jobs(jobs: Optional[int], n_tasks: int) -> int:
    """Workers actually worth using for ``n_tasks`` (1 = run serial).

    The degraded-to-serial fast path: parallel dispatch only pays when
    there are at least 2 effective cores *and* at least 2 tasks, so
    anything smaller resolves to 1 and :func:`pool_map` never touches
    the pool. ``jobs=None`` means auto-detect (all effective cores).
    ``REPRO_PARALLEL=force`` trusts the requested ``jobs`` outright —
    no core-count or task-count clamp — so tests and benchmarks can
    exercise the real pool on any machine; ``REPRO_PARALLEL=serial``
    always returns 1.
    """
    mode = os.environ.get(PARALLEL_MODE_ENV, "auto")
    if mode == "serial" or n_tasks < 1:
        return 1
    if jobs is None:
        jobs = effective_cpu_count()
    if mode == "force":
        return max(1, jobs)
    if n_tasks <= 1 or jobs <= 1:
        return 1
    return max(1, min(jobs, n_tasks, effective_cpu_count()))


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------


def _apply_env(env: Dict[str, str]) -> None:
    """Mirror the submitting process's roots exactly."""
    for name in PROPAGATED_ENV_VARS:
        os.environ.pop(name, None)
    os.environ.update(env)


def _error(seq: int, exc: BaseException) -> Tuple[Any, ...]:
    """The ``("err", ...)`` message that fails task ``seq`` with ``exc``."""
    try:
        blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 — unpicklable exception
        blob = None
    return ("err", seq, {"error": repr(exc)}, blob)


def _worker_main(
    conn,
    preload_modules: Sequence[str],
    env: Dict[str, str],
) -> None:
    """Persistent worker loop: preload once, then task after task."""
    _apply_env(env)
    for name in preload_modules:
        try:
            importlib.import_module(name)
        except Exception:  # noqa: BLE001 — preload is best-effort warmth
            pass

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        _, seq, t_send, task_env, fn, args = message
        _apply_env(task_env)
        modules_before = len(sys.modules)
        t_start = time.monotonic()
        try:
            value = fn(*args)
            t_end = time.monotonic()
            stats = {
                "t_start": t_start,
                "t_end": t_end,
                "seconds_in_worker": t_end - t_start,
                "worker_pid": os.getpid(),
                "new_modules": len(sys.modules) - modules_before,
            }
            # Encoding sits inside the try: a result that cannot be
            # pickled fails the task, not the worker.
            payload = wire.encode(("ok", seq, stats, value))
        except Exception as exc:  # noqa: BLE001 — worker errors are policy
            payload = wire.encode(_error(seq, exc))
        try:
            conn.send_bytes(payload)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


def _settle(future: "Future", value=None, error: Optional[BaseException] = None):
    """Resolve a future, tolerating a concurrent :meth:`WorkerPool.abandon`."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)
    except Exception:  # noqa: BLE001 — InvalidStateError from a cancel race
        pass


class _Item:
    """One submitted task and its bookkeeping."""

    __slots__ = (
        "seq", "fn", "args", "future", "label",
        "env", "attempts", "t_send",
    )

    def __init__(self, seq, fn, args, label, env):
        self.seq = seq
        self.fn = fn
        self.args = args
        self.future: "Future[Tuple[Any, Dict[str, Any]]]" = Future()
        self.label = label
        self.env = env
        self.attempts = 0
        self.t_send = 0.0


class _Worker:
    __slots__ = ("proc", "conn", "item")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.item: Optional[_Item] = None


class WorkerPool:
    """A persistent pool of warm worker processes.

    One dispatcher thread owns every worker (spawn, feed, reap,
    respawn); callers interact only through :meth:`submit` /
    :meth:`submit_task`, which return ``concurrent.futures.Future``
    objects resolving to ``(value, stats)`` pairs (:meth:`submit`
    unwraps to just the value for drop-in executor compatibility).
    Pending tasks are dispatched first in, first out.
    """

    def __init__(self, preload: Sequence[str] = PRELOAD_MODULES):
        import multiprocessing

        try:
            self._ctx = multiprocessing.get_context("forkserver")
            self._ctx.set_forkserver_preload(["repro.parallel"])
        except ValueError:  # platform without forkserver
            self._ctx = multiprocessing.get_context("spawn")
        self._preload = tuple(preload)
        self._lock = threading.Lock()
        self._pending: "deque[_Item]" = deque()
        self._items: Dict[int, _Item] = {}
        self._workers: List[_Worker] = []
        self._kill: List[_Worker] = []
        self._target = 0
        self._seq = itertools.count()
        self._wake_r, self._wake_w = os.pipe()
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- caller side ---------------------------------------------------

    def ensure_workers(self, count: int) -> None:
        """Raise the worker target to ``count`` (never shrinks)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is shut down")
            self._target = max(self._target, max(1, count))
        self._start_thread()
        self._wake()

    @property
    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def submit_task(
        self,
        fn: Callable[..., Any],
        args: Tuple = (),
        label: Optional[str] = None,
    ) -> "Future[Tuple[Any, Dict[str, Any]]]":
        """Queue one task; the future resolves to ``(value, stats)``."""
        item = _Item(
            next(self._seq), fn, tuple(args),
            label or getattr(fn, "__name__", "task"),
            _propagated_env(),
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is shut down")
            self._target = max(self._target, 1)
            self._items[item.seq] = item
            self._pending.append(item)
        self._start_thread()
        self._wake()
        return item.future

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Executor-style submit: the future resolves to the bare value.

        This is the drop-in surface the serve dispatcher uses in place
        of ``ProcessPoolExecutor.submit``; pool-level stats are
        dropped, retry-once and crash-respawn still apply.
        """
        inner = self.submit_task(fn, args)
        outer: "Future[Any]" = Future()

        def _chain(done: "Future[Tuple[Any, Dict[str, Any]]]") -> None:
            if done.cancelled():
                outer.cancel()
                return
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
            else:
                outer.set_result(done.result()[0])

        inner.add_done_callback(_chain)
        return outer

    def abandon(self, futures: Sequence["Future"]) -> None:
        """Cancel the given task futures; kill + respawn their workers.

        Used by the stall watchdog: queued tasks are dropped, in-flight
        ones get their worker terminated so a wedged unit cannot hold a
        pool slot forever. Safe to call with already-finished futures.
        """
        targets = {id(f) for f in futures}
        with self._lock:
            for item in list(self._items.values()):
                if id(item.future) not in targets:
                    continue
                item.future.cancel()
                for worker in self._workers:
                    if worker.item is item and worker not in self._kill:
                        self._kill.append(worker)
        self._wake()

    def shutdown(self, wait: bool = True) -> None:
        """Terminate workers and fail any unfinished futures."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake()
        if self._thread is not None and wait:
            self._thread.join(timeout=10.0)

    # -- dispatcher thread ---------------------------------------------

    def _start_thread(self) -> None:
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._loop, name="repro-pool-dispatch", daemon=True
                )
                self._thread.start()

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._preload, _propagated_env()),
            name="repro-pool-worker",
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def _loop(self) -> None:
        try:
            self._loop_inner()
        except BaseException as exc:  # noqa: BLE001 — never strand futures
            with self._lock:
                self._closed = True
                items = list(self._items.values())
                self._items = {}
                self._pending.clear()
            for item in items:
                _settle(item.future, error=RuntimeError(
                    f"pool dispatcher failed: {exc!r}"
                ))
            self._teardown()
            raise

    def _loop_inner(self) -> None:
        from multiprocessing.connection import wait as conn_wait

        while True:
            with self._lock:
                closed = self._closed
                kill, self._kill = self._kill, []
            for worker in kill:
                self._terminate_worker(worker)
            if closed:
                self._teardown()
                return
            self._spawn_to_target()
            self._assign_pending()
            waitables: List[Any] = [self._wake_r]
            with self._lock:
                for worker in self._workers:
                    waitables.append(worker.conn)
                    waitables.append(worker.proc.sentinel)
            ready = conn_wait(waitables, timeout=1.0)
            if self._wake_r in ready:
                try:
                    os.read(self._wake_r, 4096)
                except OSError:
                    pass
            with self._lock:
                by_conn = {w.conn: w for w in self._workers}
                by_sentinel = {w.proc.sentinel: w for w in self._workers}
            for obj in ready:
                worker = by_conn.get(obj)
                if worker is not None:
                    self._on_readable(worker)
                    continue
                worker = by_sentinel.get(obj)
                if worker is not None and not worker.proc.is_alive():
                    self._on_death(worker)

    def _spawn_to_target(self) -> None:
        # Eager spawn-to-target is the warm-pool point: workers import
        # the preload set while the first tasks are still being queued.
        while True:
            with self._lock:
                if len(self._workers) >= self._target:
                    return
            worker = self._spawn_worker()
            with self._lock:
                self._workers.append(worker)

    def _assign_pending(self) -> None:
        while True:
            with self._lock:
                while self._pending and self._pending[0].future.cancelled():
                    self._items.pop(self._pending.popleft().seq, None)
                idle = next(
                    (w for w in self._workers if w.item is None), None
                )
                if not self._pending or idle is None:
                    return
                item = self._pending.popleft()
                idle.item = item
            item.attempts += 1
            item.t_send = time.monotonic()
            try:
                idle.conn.send((
                    "task", item.seq, item.t_send,
                    item.env, item.fn, item.args,
                ))
            except (BrokenPipeError, OSError):
                self._on_death(idle)

    def _on_readable(self, worker: _Worker) -> None:
        try:
            payload = worker.conn.recv_bytes()
        except (EOFError, OSError):
            self._on_death(worker)
            return
        try:
            status, seq, stats, value = wire.decode(payload)
        except Exception as exc:  # noqa: BLE001 — as an encode failure
            # A result that pickled in the worker but will not unpickle
            # here fails the task in flight, not the dispatcher.
            if worker.item is None:
                return
            status, seq, stats, value = _error(worker.item.seq, exc)
        t_recv = time.monotonic()
        with self._lock:
            item = self._items.get(seq)
            if worker.item is item:
                worker.item = None
        if item is None or item.future.cancelled():
            return
        if status == "ok":
            stats["dispatch_s"] = round(
                max(0.0, stats.pop("t_start") - item.t_send)
                + max(0.0, t_recv - stats.pop("t_end")),
                6,
            )
            stats["attempts"] = item.attempts
            with self._lock:
                self._items.pop(seq, None)
            _settle(item.future, (value, stats))
        else:
            error_repr = stats.get("error", "unknown worker error")
            if item.attempts < MAX_POOL_ATTEMPTS:
                _warn(
                    f"{item.label} failed in worker ({error_repr}); retrying"
                )
                with self._lock:
                    self._pending.appendleft(item)
            else:
                try:
                    exc = pickle.loads(value) if value is not None else None
                except Exception:  # noqa: BLE001
                    exc = None
                if not isinstance(exc, BaseException):
                    exc = RuntimeError(error_repr)
                with self._lock:
                    self._items.pop(seq, None)
                _settle(item.future, error=exc)

    def _on_death(self, worker: _Worker) -> None:
        with self._lock:
            if worker not in self._workers:
                return
            self._workers.remove(worker)
            item, worker.item = worker.item, None
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=0.1)
        if item is None or item.future.cancelled():
            return
        pid = worker.proc.pid
        error = f"worker process {pid} died while running {item.label}"
        if item.attempts < MAX_POOL_ATTEMPTS:
            _warn(f"{error}; retrying")
            with self._lock:
                self._pending.appendleft(item)
        else:
            with self._lock:
                self._items.pop(item.seq, None)
            _settle(item.future, error=RuntimeError(error))

    def _terminate_worker(self, worker: _Worker) -> None:
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        try:
            worker.proc.terminate()
        except OSError:
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=0.5)
        if worker.proc.is_alive():
            worker.proc.kill()

    def _teardown(self) -> None:
        with self._lock:
            workers, self._workers = self._workers, []
            items, self._items = list(self._items.values()), {}
            self._pending.clear()
        for worker in workers:
            self._terminate_worker(worker)
        for item in items:
            if not item.future.done():
                item.future.cancel()


# ----------------------------------------------------------------------
# The shared pool
# ----------------------------------------------------------------------

_SHARED_POOL: Optional[WorkerPool] = None
_SHARED_LOCK = threading.Lock()


def shared_pool(max_workers: Optional[int] = None) -> WorkerPool:
    """The process-wide warm pool (created on first use).

    All three parallel consumers — the experiment scheduler, the
    mapping optimizer's restarts, and the serve dispatcher — draw from
    this one pool, so workers warmed by any of them serve the others.
    ``max_workers`` raises the worker target (it never shrinks); it
    defaults to :func:`effective_cpu_count`.

    Workers are started via ``forkserver``, so they never inherit
    parent file descriptors — the serve layer spawns workers lazily
    while client sockets are open, and a plain fork would hold those
    connections half-open long after the server closes them.
    """
    global _SHARED_POOL
    with _SHARED_LOCK:
        if _SHARED_POOL is None or _SHARED_POOL._closed:
            _SHARED_POOL = WorkerPool()
            import atexit

            atexit.register(shutdown_shared_executor)
        pool = _SHARED_POOL
    pool.ensure_workers(max_workers or effective_cpu_count())
    return pool


def shutdown_shared_executor() -> None:
    """Tear down the shared pool (the next use recreates it)."""
    global _SHARED_POOL
    with _SHARED_LOCK:
        pool, _SHARED_POOL = _SHARED_POOL, None
    if pool is not None:
        pool.shutdown(wait=True)


# ----------------------------------------------------------------------
# pool_map
# ----------------------------------------------------------------------


def pool_map(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple],
    jobs: Optional[int] = 1,
    timeout: Optional[float] = None,
    labels: Optional[Sequence[str]] = None,
    dispatch_stats: Optional[List[Optional[Dict[str, Any]]]] = None,
) -> List[Any]:
    """Ordered ``[fn(*task) for task in tasks]`` fanned over warm workers.

    ``jobs`` is the requested fan-out (``None`` = auto-detect);
    :func:`effective_jobs` may degrade it to the serial fast path.
    ``timeout`` is a stall watchdog: if no task completes for that many
    seconds, outstanding tasks are abandoned to serial execution and
    their workers recycled. Tasks are submitted in order. ``labels``
    names tasks in warnings.

    ``dispatch_stats``, if given, is filled with one dict per task
    (``dispatch_s``, ``worker_pid``, ``attempts``, ``new_modules``, …
    for pool-executed tasks; ``{"mode": "serial"}`` for tasks the fast
    path or a fallback ran in the parent). A task that failed
    :data:`MAX_POOL_ATTEMPTS` times on the pool runs serially
    afterwards, so an error that reproduces serially propagates to the
    caller.
    """
    tasks = list(tasks)
    results: List[Any] = [_UNSET] * len(tasks)
    stats_rows: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    eff = effective_jobs(jobs, len(tasks))
    forced = os.environ.get(PARALLEL_MODE_ENV) == "force" and tasks
    if eff > 1 or forced:
        _run_pool(fn, tasks, results, stats_rows, eff, timeout, labels)
    # Serial completion: everything the pool did not produce (all of it
    # on the fast path) runs in the parent, where errors propagate.
    for index, task in enumerate(tasks):
        if results[index] is _UNSET:
            results[index] = fn(*task)
            if stats_rows[index] is None:
                stats_rows[index] = {"mode": "serial", "dispatch_s": 0.0}
    if dispatch_stats is not None:
        dispatch_stats[:] = stats_rows
    return results


def _label(labels: Optional[Sequence[str]], index: int) -> str:
    if labels is not None and index < len(labels):
        return labels[index]
    return f"task[{index}]"


def _run_pool(fn, tasks, results, stats_rows, eff, timeout, labels) -> None:
    """Best-effort parallel pass; leaves failed cells as ``_UNSET``."""
    pool = shared_pool(eff)
    futures = {
        pool.submit_task(fn, task, label=_label(labels, index)): index
        for index, task in enumerate(tasks)
    }
    remaining = set(futures)
    while remaining:
        done, _ = futures_wait(
            remaining, timeout=timeout, return_when=FIRST_COMPLETED
        )
        if not done:
            _warn(
                f"no work unit completed within {timeout}s; "
                f"abandoning {len(remaining)} outstanding unit(s) to "
                "serial execution"
            )
            pool.abandon(list(remaining))
            break
        for future in done:
            remaining.discard(future)
            index = futures[future]
            try:
                value, stats = future.result()
            except CancelledError:
                continue
            except Exception as exc:  # noqa: BLE001 — worker errors are policy
                _warn(
                    f"{_label(labels, index)} failed in workers ({exc!r}); "
                    "falling back to serial"
                )
                continue
            results[index] = value
            stats_rows[index] = stats
