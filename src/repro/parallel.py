"""Warm-worker dispatch: one persistent pool behind every parallel path.

This module used to build a throwaway ``ProcessPoolExecutor`` per
:func:`pool_map` call; each work unit paid task pickling, and on small
machines the fan-out *lost* to serial (``BENCH_runner.json`` recorded a
0.55x "speedup" on one core). It is now organized around a single
long-lived :class:`WorkerPool`:

* **Warm workers.** Worker processes are spawned once (``forkserver``
  start method, no inherited parent FDs), preload the heavy modules —
  numpy, the compiled netsim step kernel, the vectorized mapping
  kernel, the experiments layer — and then pull task after task until
  recycled or shut down. The second unit a worker runs imports nothing.
* **One pool lifecycle.** The experiment scheduler
  (:mod:`repro.experiments.scheduler`), the mapping optimizer's
  parallel restarts (:mod:`repro.mapping.exchange`) and the serve
  dispatcher (:mod:`repro.serve.dispatch`) all share the pool returned
  by :func:`shared_pool` / :func:`shared_executor`.
* **Compact results.** Workers ship results back through the
  :mod:`repro.wire` encoding (raw buffers for numpy arrays, pickle
  only as an explicit fallback) rather than pickling whole rows.
* **Cost-aware dispatch.** Tasks carry an optional cost estimate;
  the pool dispatches expensive tasks first so a big netsim unit never
  starts last and strands the pool behind it.
* **Serial fast path.** :func:`effective_jobs` degrades a parallel
  request to plain in-process serial execution when the *effective*
  core count (CPU affinity and cgroup quota respected, see
  :func:`effective_cpu_count`) or the task count is too small to
  amortize dispatch. ``REPRO_PARALLEL=force`` disables the heuristic
  (tests and benchmarks use it); ``REPRO_PARALLEL=serial`` forces the
  serial path outright.

Failure policy (unchanged from the old layer, enforced per task):

1. a task that raises in a worker is **retried once** on the pool;
2. a task that fails twice is **quarantined** — a structured report is
   emitted (see ``quarantine`` on :func:`pool_map`) and the task falls
   back to serial execution in the parent;
3. a worker that *dies* (hard crash) is respawned and its task retried
   under the same accounting; one crash no longer abandons the run;
4. a stall (no completion within ``timeout`` seconds) abandons all
   outstanding tasks to serial and recycles their workers;
5. an error that also reproduces serially propagates — the work is
   genuinely broken, not a scheduling casualty.

Engine selection (``REPRO_SCALAR_NETSIM`` & co) plus the cache-root
switches travel **per task**, so a long-lived worker always sees the
submitting process's current configuration, not a snapshot from spawn
time. ``fn`` must be a module-level callable (or otherwise picklable)
and every task tuple picklable. Full reference: ``docs/parallel.md``.
"""

from __future__ import annotations

import heapq
import importlib
import itertools
import math
import os
import pickle
import sys
import threading
import time
from concurrent.futures import CancelledError, FIRST_COMPLETED, Future
from concurrent.futures import wait as futures_wait
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Placeholder for a result not yet produced.
_UNSET = object()

#: Total attempts per task on the pool before quarantine + serial fallback.
MAX_POOL_ATTEMPTS = 2

#: ``REPRO_PARALLEL``: ``auto`` (default heuristic), ``force`` (always
#: use the pool when ``jobs > 1``), ``serial`` (never use the pool).
PARALLEL_MODE_ENV = "REPRO_PARALLEL"

#: Engine-selection switches forwarded to pool workers. A run forced
#: onto the scalar netsim oracle (or the scalar mapping kernels) must
#: not silently come back vectorized from a long-lived worker
#: configured before the flag was set.
ENGINE_ENV_VARS = (
    "REPRO_SCALAR_NETSIM",
    "REPRO_SCALAR_MAPPING",
)

#: Everything mirrored into workers per task: the engine switches plus
#: the cache/telemetry roots, which per-test/per-run isolation moves
#: around long after the warm workers were spawned.
PROPAGATED_ENV_VARS = ENGINE_ENV_VARS + (
    "REPRO_CACHE_DIR",
    "REPRO_TELEMETRY_DIR",
)

#: Modules imported once per worker at spawn, before any task runs.
#: Importing the experiments layer pulls in numpy, the ctypes step-kernel
#: loader, and the vectorized mapping kernel — the bulk of cold-import
#: cost for every real workload this pool serves.
PRELOAD_MODULES = (
    "numpy",
    "repro.engines",
    "repro.netsim.fast_core",
    "repro.netsim._fast_step",
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
    """Mirror the submitting process's switches exactly."""
    for name in PROPAGATED_ENV_VARS:
        os.environ.pop(name, None)
    os.environ.update(env)


def _worker_main(
    conn,
    preload_modules: Sequence[str],
    env: Dict[str, str],
) -> None:
    """Persistent worker loop: preload once, then task after task."""
    from repro import wire

    _apply_env(env)
    preload_start = time.monotonic()
    for name in preload_modules:
        try:
            importlib.import_module(name)
        except Exception:  # noqa: BLE001 — preload is best-effort warmth
            pass
    preload_seconds = time.monotonic() - preload_start

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message[0] == "stop":
            break
        _, seq, t_send, task_env, fn, args = message
        _apply_env(task_env)
        modules_before = len(sys.modules)
        t_start = time.monotonic()
        try:
            value = fn(*args)
        except Exception as exc:  # noqa: BLE001 — worker errors are policy
            t_end = time.monotonic()
            try:
                blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:  # noqa: BLE001 — unpicklable exception
                blob = None
            stats = {
                "t_start": t_start,
                "t_end": t_end,
                "worker_pid": os.getpid(),
                "error": repr(exc),
            }
            payload = wire.encode(("err", seq, stats, blob))
        else:
            t_end = time.monotonic()
            stats = {
                "t_start": t_start,
                "t_end": t_end,
                "seconds_in_worker": t_end - t_start,
                "worker_pid": os.getpid(),
                "new_modules": len(sys.modules) - modules_before,
                "preload_seconds": preload_seconds,
            }
            payload = wire.encode(("ok", seq, stats, value))
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


class AffinityLostError(RuntimeError):
    """An affinity-pinned task lost the worker holding its state.

    Pinned tasks are never retried on another worker — the whole point
    of the pin is process-local state (e.g. a live simulation partition)
    that a fresh worker does not have. Callers catch this and restart
    the stateful computation from scratch (typically serially).
    """


class _Item:
    """One submitted task and its bookkeeping."""

    __slots__ = (
        "seq", "fn", "args", "future", "cost", "label",
        "env", "attempts", "worker_pids", "t_send",
        "affinity",
    )

    def __init__(self, seq, fn, args, cost, label, env, affinity=None):
        self.seq = seq
        self.fn = fn
        self.args = args
        self.future: "Future[Tuple[Any, Dict[str, Any]]]" = Future()
        self.cost = cost
        self.label = label
        self.env = env
        self.attempts = 0
        self.worker_pids: List[int] = []
        self.t_send = 0.0
        self.affinity = affinity

    def report(self, error: str) -> Dict[str, Any]:
        """Structured quarantine report for a task the pool gave up on."""
        return {
            "label": self.label,
            "attempts": self.attempts,
            "error": error,
            "worker_pids": list(self.worker_pids),
            "quarantined": True,
        }


class _Worker:
    __slots__ = ("proc", "conn", "item", "done_count")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.item: Optional[_Item] = None
        self.done_count = 0


class WorkerPool:
    """A persistent pool of warm worker processes.

    One dispatcher thread owns every worker (spawn, feed, reap,
    respawn); callers interact only through :meth:`submit` /
    :meth:`submit_task`, which return ``concurrent.futures.Future``
    objects resolving to ``(value, stats)`` pairs (:meth:`submit`
    unwraps to just the value for drop-in executor compatibility).
    Pending tasks are dispatched most-expensive-first by their ``cost``
    estimate. ``recycle_after`` bounds tasks per worker (a fresh worker
    replaces a recycled one lazily).
    """

    def __init__(
        self,
        preload: Sequence[str] = PRELOAD_MODULES,
        recycle_after: Optional[int] = None,
    ):
        import multiprocessing

        try:
            self._ctx = multiprocessing.get_context("forkserver")
            self._ctx.set_forkserver_preload(["repro.parallel"])
        except ValueError:  # platform without forkserver
            self._ctx = multiprocessing.get_context("spawn")
        self._preload = tuple(preload)
        self._recycle_after = recycle_after
        self._lock = threading.Lock()
        self._pending: List[Tuple[float, int, _Item]] = []
        self._items: Dict[int, _Item] = {}
        self._affinity: Dict[str, _Worker] = {}
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
        cost: float = 0.0,
        label: Optional[str] = None,
        affinity: Optional[str] = None,
    ) -> "Future[Tuple[Any, Dict[str, Any]]]":
        """Queue one task; the future resolves to ``(value, stats)``.

        ``affinity`` pins every task sharing the key to one worker: the
        key binds to a worker on first dispatch (idle worker with the
        fewest existing bindings) and later tasks with the same key wait
        for that specific worker. Pinned tasks are never retried
        elsewhere — if the bound worker dies or the task raises, the
        future fails (``AffinityLostError`` on death) because whatever
        process-local state the pin protected is gone. Callers release
        pins with :meth:`release_affinity` when the stateful run ends.
        """
        item = _Item(
            next(self._seq), fn, tuple(args), cost,
            label or getattr(fn, "__name__", "task"),
            _propagated_env(), affinity=affinity,
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is shut down")
            self._target = max(self._target, 1)
            self._items[item.seq] = item
            heapq.heappush(self._pending, (-item.cost, item.seq, item))
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
                self._pending = []
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
                self._terminate_worker(worker, requeue=False)
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

    def _bind_affinity(self, key: str) -> Optional[_Worker]:
        """Bind ``key`` to the idle worker with the fewest pins (locked)."""
        idle = [w for w in self._workers if w.item is None]
        if not idle:
            return None
        loads: Dict[int, int] = {}
        for bound in self._affinity.values():
            loads[id(bound)] = loads.get(id(bound), 0) + 1
        worker = min(idle, key=lambda w: loads.get(id(w), 0))
        self._affinity[key] = worker
        return worker

    def release_affinity(self, prefix: str) -> None:
        """Drop every affinity binding whose key starts with ``prefix``."""
        with self._lock:
            for key in [k for k in self._affinity if k.startswith(prefix)]:
                del self._affinity[key]

    def _assign_pending(self) -> None:
        deferred: List[_Item] = []
        try:
            while True:
                with self._lock:
                    item = None
                    while self._pending:
                        _, _, candidate = heapq.heappop(self._pending)
                        if not candidate.future.cancelled():
                            item = candidate
                            break
                        self._items.pop(candidate.seq, None)
                    if item is None:
                        return
                    if item.affinity is not None:
                        idle = self._affinity.get(item.affinity)
                        if idle is None or idle not in self._workers:
                            idle = self._bind_affinity(item.affinity)
                        if idle is None or idle.item is not None:
                            # Bound worker busy (or none idle to bind):
                            # park this task without blocking the rest.
                            deferred.append(item)
                            continue
                    else:
                        idle = next(
                            (w for w in self._workers if w.item is None),
                            None,
                        )
                        if idle is None:
                            deferred.append(item)
                            return
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
        finally:
            if deferred:
                with self._lock:
                    for item in deferred:
                        heapq.heappush(
                            self._pending, (-item.cost, item.seq, item)
                        )

    def _on_readable(self, worker: _Worker) -> None:
        from repro import wire

        try:
            payload = worker.conn.recv_bytes()
        except (EOFError, OSError):
            self._on_death(worker)
            return
        status, seq, stats, value = wire.decode(payload)
        t_recv = time.monotonic()
        with self._lock:
            item = self._items.get(seq)
            if worker.item is item:
                worker.item = None
            worker.done_count += 1
        if item is None or item.future.cancelled():
            self._maybe_recycle(worker)
            return
        item.worker_pids.append(stats.get("worker_pid", -1))
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
            if item.attempts < MAX_POOL_ATTEMPTS and item.affinity is None:
                _warn(
                    f"{item.label} failed in worker ({error_repr}); retrying"
                )
                with self._lock:
                    heapq.heappush(
                        self._pending, (-item.cost, item.seq, item)
                    )
            else:
                try:
                    exc = pickle.loads(value) if value is not None else None
                except Exception:  # noqa: BLE001
                    exc = None
                if not isinstance(exc, BaseException):
                    exc = RuntimeError(error_repr)
                exc.worker_report = item.report(error_repr)
                with self._lock:
                    self._items.pop(seq, None)
                _settle(item.future, error=exc)
        self._maybe_recycle(worker)

    def _drop_affinity_for(self, worker: _Worker) -> None:
        """Unbind every pin held by a departing worker (locked)."""
        for key in [k for k, w in self._affinity.items() if w is worker]:
            del self._affinity[key]

    def _on_death(self, worker: _Worker) -> None:
        with self._lock:
            if worker not in self._workers:
                return
            self._workers.remove(worker)
            self._drop_affinity_for(worker)
            item, worker.item = worker.item, None
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=0.1)
        if item is None or item.future.cancelled():
            return
        pid = worker.proc.pid or -1
        item.worker_pids.append(pid)
        error = f"worker process {pid} died while running {item.label}"
        if item.affinity is not None:
            exc = AffinityLostError(error)
            exc.worker_report = item.report(error)
            with self._lock:
                self._items.pop(item.seq, None)
            _settle(item.future, error=exc)
        elif item.attempts < MAX_POOL_ATTEMPTS:
            _warn(f"{error}; retrying")
            with self._lock:
                heapq.heappush(self._pending, (-item.cost, item.seq, item))
        else:
            exc = RuntimeError(error)
            exc.worker_report = item.report(error)
            with self._lock:
                self._items.pop(item.seq, None)
            _settle(item.future, error=exc)

    def _maybe_recycle(self, worker: _Worker) -> None:
        with self._lock:
            pinned = any(w is worker for w in self._affinity.values())
        if (
            self._recycle_after is not None
            and worker.done_count >= self._recycle_after
            and worker.item is None
            and not pinned
        ):
            self._terminate_worker(worker, requeue=False, graceful=True)

    def _terminate_worker(
        self, worker: _Worker, requeue: bool, graceful: bool = False
    ) -> None:
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
            self._drop_affinity_for(worker)
            item, worker.item = worker.item, None
            if requeue and item is not None and not item.future.cancelled():
                if item.affinity is not None:
                    self._items.pop(item.seq, None)
                    _settle(item.future, error=AffinityLostError(
                        f"worker terminated while running {item.label}"
                    ))
                    item = None
                else:
                    heapq.heappush(
                        self._pending, (-item.cost, item.seq, item)
                    )
        try:
            if graceful:
                worker.conn.send(("stop",))
            else:
                worker.proc.terminate()
        except (BrokenPipeError, OSError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=1.0 if graceful else 0.5)
        if worker.proc.is_alive():
            worker.proc.kill()

    def _teardown(self) -> None:
        with self._lock:
            workers, self._workers = self._workers, []
            items, self._items = list(self._items.values()), {}
            self._pending = []
            self._affinity = {}
        for worker in workers:
            self._terminate_worker(worker, requeue=False)
        for item in items:
            if not item.future.done():
                item.future.cancel()


# ----------------------------------------------------------------------
# The shared pool + executor facade
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


def shared_executor(max_workers: Optional[int] = None) -> WorkerPool:
    """Executor-compatible alias for :func:`shared_pool`.

    Kept for callers that only need ``.submit(fn) -> Future`` (the
    serve dispatcher, tests injecting fakes).
    """
    return shared_pool(max_workers)


def shutdown_shared_executor() -> None:
    """Tear down the shared pool (the next use recreates it)."""
    global _SHARED_POOL
    with _SHARED_LOCK:
        pool, _SHARED_POOL = _SHARED_POOL, None
    if pool is not None:
        pool.shutdown(wait=True)


#: Back-compat alias; the shared pool replaced the shared executor.
shutdown_shared_pool = shutdown_shared_executor


# ----------------------------------------------------------------------
# pool_map
# ----------------------------------------------------------------------


def pool_map(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple],
    jobs: Optional[int] = 1,
    timeout: Optional[float] = None,
    labels: Optional[Sequence[str]] = None,
    costs: Optional[Sequence[float]] = None,
    dispatch_stats: Optional[List[Optional[Dict[str, Any]]]] = None,
    quarantine: Optional[List[Dict[str, Any]]] = None,
) -> List[Any]:
    """Ordered ``[fn(*task) for task in tasks]`` fanned over warm workers.

    ``jobs`` is the requested fan-out (``None`` = auto-detect);
    :func:`effective_jobs` may degrade it to the serial fast path.
    ``timeout`` is a stall watchdog: if no task completes for that many
    seconds, outstanding tasks are abandoned to serial execution and
    their workers recycled. ``costs`` (same length as ``tasks``) makes
    dispatch cost-aware — expensive tasks first; results keep task
    order regardless. ``labels`` names tasks in warnings and reports.

    ``dispatch_stats``, if given, is filled with one dict per task
    (``dispatch_s``, ``worker_pid``, ``attempts``, ``new_modules``, …
    for pool-executed tasks; ``{"mode": "serial"}`` for tasks the fast
    path or a fallback ran in the parent). ``quarantine`` receives one
    structured report per task that failed :data:`MAX_POOL_ATTEMPTS`
    times on the pool; those tasks still run serially afterwards, so an
    error that reproduces serially propagates to the caller.
    """
    tasks = list(tasks)
    results: List[Any] = [_UNSET] * len(tasks)
    stats_rows: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    eff = effective_jobs(jobs, len(tasks))
    forced = os.environ.get(PARALLEL_MODE_ENV) == "force" and tasks
    if eff > 1 or forced:
        _run_pool(
            fn, tasks, results, stats_rows, eff, timeout, labels, costs,
            quarantine,
        )
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


def _run_pool(
    fn, tasks, results, stats_rows, eff, timeout, labels, costs, quarantine
) -> None:
    """Best-effort parallel pass; leaves failed cells as ``_UNSET``."""
    pool = shared_pool(eff)
    futures: Dict["Future", int] = {}
    order = range(len(tasks))
    if costs is not None:
        order = sorted(order, key=lambda i: -costs[i])
    for index in order:
        future = pool.submit_task(
            fn,
            tasks[index],
            cost=(costs[index] if costs is not None else 0.0),
            label=_label(labels, index),
        )
        futures[future] = index
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
            label = _label(labels, index)
            try:
                value, stats = future.result()
            except CancelledError:
                continue
            except Exception as exc:  # noqa: BLE001 — worker errors are policy
                report = getattr(exc, "worker_report", None) or {
                    "label": label,
                    "attempts": MAX_POOL_ATTEMPTS,
                    "error": repr(exc),
                    "worker_pids": [],
                    "quarantined": True,
                }
                report["task_index"] = index
                _warn(
                    f"{label} failed {report['attempts']}x in workers "
                    f"({report['error']}); falling back to serial"
                )
                if quarantine is not None:
                    quarantine.append(report)
                continue
            results[index] = value
            stats_rows[index] = stats
