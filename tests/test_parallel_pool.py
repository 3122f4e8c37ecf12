"""Warm worker pool: fast path, warm reuse, crashes, wire, cores.

Complements ``tests/experiments/test_parallel_runner.py`` (which
exercises the pool through the experiment scheduler) with direct tests
of :mod:`repro.parallel`'s own contracts: the degraded-to-serial fast
path, persistent-worker reuse and preload warmth, first-in first-out
dispatch, crash → retry-once → serial fallback, the executor-style
``submit`` facade, effective core detection under affinity/cgroup
limits, and the :mod:`repro.wire` encoding both sides of the pipe
speak.
"""

import itertools
import json
import os
import time

import pytest

from repro import parallel, wire

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture
def force_pool(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "force")


# Module-level task functions so the pool can pickle them into workers.


def _pid(_=None):
    return os.getpid()


def _env_value(name):
    return os.environ.get(name)


def _square(x):
    return x * x


def _crash_in_worker(x):
    import multiprocessing

    if multiprocessing.current_process().name != "MainProcess":
        raise ValueError(f"unit {x} poisoned")
    return x


def _module_count(_=None):
    import sys

    return len(sys.modules)


# ----------------------------------------------------------------------
# wire encoding
# ----------------------------------------------------------------------


def test_wire_round_trips_scalars_and_containers():
    for obj in (
        None, True, False, 0, -1, 2**62, 2**80, -(2**80), 3.5,
        float("inf"), "text", "ünïcode", b"\x00\xff", [], (), {},
        [1, [2, (3, {"k": b"v"})]], {"a": 1, 2: "b", None: [True]},
        ("mixed", 1, 2.0, None, b"x"),
    ):
        assert wire.decode(wire.encode(obj)) == obj


def test_wire_round_trips_numpy_arrays():
    np = pytest.importorskip("numpy")
    grid = np.arange(12, dtype=np.int64).reshape(3, 4)
    strided = grid[:, ::2]
    assert not strided.flags.c_contiguous
    for array in (
        grid,
        strided,
        np.linspace(0.0, 1.0, 7),
        np.zeros((0, 3), dtype=np.float32),
        np.array([[True, False]]),
    ):
        back = wire.decode(wire.encode(array))
        assert back.dtype == array.dtype
        assert back.shape == array.shape
        assert (back == array).all()


def test_wire_pickle_fallback_for_arbitrary_objects():
    payload = {"path": __import__("pathlib").Path("/tmp/x"), "n": 3}
    assert wire.decode(wire.encode(payload)) == payload


# ----------------------------------------------------------------------
# effective cores / serial fast path
# ----------------------------------------------------------------------


def test_effective_cpu_count_respects_cgroup_quota(tmp_path, monkeypatch):
    (tmp_path / "cpu.max").write_text("200000 100000\n")
    monkeypatch.setattr(parallel, "_CGROUP_ROOT", str(tmp_path))
    assert parallel._cgroup_cpu_limit() == 2
    assert parallel.effective_cpu_count() <= max(
        1, min(2, len(os.sched_getaffinity(0)))
    )


def test_effective_cpu_count_cgroup_v1_and_unlimited(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "_CGROUP_ROOT", str(tmp_path))
    assert parallel._cgroup_cpu_limit() is None  # no cgroup files at all
    (tmp_path / "cpu.max").write_text("max 100000\n")
    assert parallel._cgroup_cpu_limit() is None  # v2 unlimited
    v1 = tmp_path / "cpu"
    v1.mkdir()
    (v1 / "cpu.cfs_quota_us").write_text("350000")
    (v1 / "cpu.cfs_period_us").write_text("100000")
    assert parallel._cgroup_cpu_limit() == 4  # ceil(3.5)


def test_effective_jobs_degrades_small_runs(monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    assert parallel.effective_jobs(8, 1) == 1  # one task
    assert parallel.effective_jobs(1, 100) == 1  # one job
    assert parallel.effective_jobs(0, 100) == 1
    # auto never exceeds task count or the effective core count
    many = parallel.effective_jobs(64, 3)
    assert many <= 3
    assert many <= parallel.effective_cpu_count()
    monkeypatch.setenv("REPRO_PARALLEL", "serial")
    assert parallel.effective_jobs(8, 100) == 1
    monkeypatch.setenv("REPRO_PARALLEL", "force")
    assert parallel.effective_jobs(8, 100) == 8


def test_serial_fast_path_never_leaves_the_parent(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "serial")
    stats = []
    results = parallel.pool_map(
        _pid, [()] * 4, jobs=8, dispatch_stats=stats
    )
    assert set(results) == {os.getpid()}
    assert all(row == {"mode": "serial", "dispatch_s": 0.0} for row in stats)


# ----------------------------------------------------------------------
# warm pool behavior (real worker processes)
# ----------------------------------------------------------------------


def test_warm_workers_are_reused_across_calls(force_pool):
    first = parallel.pool_map(_pid, [()] * 4, jobs=2)
    second = parallel.pool_map(_pid, [()] * 4, jobs=2)
    workers = set(first) | set(second)
    assert os.getpid() not in workers
    assert set(second) & set(first), "second call should reuse warm workers"


def test_second_task_on_a_worker_imports_nothing(force_pool):
    # Two rounds on the same worker: the preloaded module set must be
    # complete enough that running another task imports zero modules.
    parallel.pool_map(_module_count, [()], jobs=1)
    stats = []
    parallel.pool_map(_module_count, [()], jobs=1, dispatch_stats=stats)
    assert stats[0]["new_modules"] == 0


def test_env_propagates_per_task_not_per_spawn(force_pool, monkeypatch, tmp_path):
    # Warm the pool first, then move the cache root: persistent workers
    # must see the *current* value, not the spawn-time snapshot.
    parallel.pool_map(_pid, [()], jobs=1)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    (value,) = parallel.pool_map(_env_value, [("REPRO_CACHE_DIR",)], jobs=1)
    assert value == str(tmp_path)
    monkeypatch.delenv("REPRO_CACHE_DIR")
    (value,) = parallel.pool_map(_env_value, [("REPRO_CACHE_DIR",)], jobs=1)
    assert value is None


def test_quarantine_report_structure(force_pool, capfd):
    # Failing on every pool attempt: retried once, then run serially in
    # the parent, each step reported on one stderr line.
    stats = []
    results = parallel.pool_map(
        _crash_in_worker,
        [(7,)],
        jobs=1,
        labels=["poisoned[7]"],
        dispatch_stats=stats,
    )
    assert results == [7]  # serial fallback in the parent succeeded
    assert stats == [{"mode": "serial", "dispatch_s": 0.0}]
    err = capfd.readouterr().err
    error = "ValueError('unit 7 poisoned')"
    assert f"poisoned[7] failed in worker ({error}); retrying" in err
    assert f"poisoned[7] failed in workers ({error}); falling back to serial" in err


_ORDER = itertools.count()


def _next_position():
    return next(_ORDER)


def test_fifo_dispatch_drains_in_submission_order(force_pool):
    # A dedicated single-worker pool; a blocker holds the worker busy
    # so every later task is queued before the first one runs.
    pool = parallel.WorkerPool()
    try:
        pool.ensure_workers(1)
        blocker = pool.submit_task(time.sleep, (1.0,))
        futures = [pool.submit_task(_next_position) for _ in range(5)]
        blocker.result(timeout=60)
        positions = [future.result(timeout=60)[0] for future in futures]
        assert positions == sorted(positions)
    finally:
        pool.shutdown()


def test_executor_submit_facade(force_pool):
    pool = parallel.shared_pool(2)
    future = pool.submit(_square, 9)
    assert future.result(timeout=60) == 81


def test_submit_sets_original_exception_type(force_pool):
    pool = parallel.shared_pool(1)
    future = pool.submit(_crash_in_worker, 1)
    with pytest.raises(ValueError, match="poisoned"):
        future.result(timeout=60)
    assert type(future.exception()) is ValueError
    assert pool.submit(_square, 3).result(timeout=60) == 9


def _make_lock():
    import threading

    return threading.Lock()


def test_unencodable_result_fails_the_task_not_the_worker(force_pool):
    with pytest.raises(Exception) as expected:
        wire.encode(_make_lock())
    pool = parallel.WorkerPool()
    try:
        pool.ensure_workers(1)
        before = pool.submit_task(_pid).result(timeout=60)[0]
        future = pool.submit_task(_make_lock)
        with pytest.raises(expected.type):
            future.result(timeout=60)
        assert type(future.exception()) is expected.type
        assert pool.submit_task(_pid).result(timeout=60)[0] == before
    finally:
        pool.shutdown()


class _Undecodable(Exception):
    pass


def _refuse_to_unpickle():
    raise _Undecodable("this result does not unpickle")


class _PicklesButWontLoad:
    def __reduce__(self):
        return (_refuse_to_unpickle, ())


def _make_undecodable():
    return _PicklesButWontLoad()


def test_undecodable_result_fails_the_task_not_the_dispatcher(force_pool):
    pool = parallel.WorkerPool()
    try:
        pool.ensure_workers(1)
        future = pool.submit_task(_make_undecodable)
        with pytest.raises(_Undecodable):
            future.result(timeout=60)
        assert type(future.exception()) is _Undecodable
        assert pool.submit_task(_square, (5,)).result(timeout=60)[0] == 25
    finally:
        pool.shutdown()


# ----------------------------------------------------------------------
# hard worker death
# ----------------------------------------------------------------------


def _die_hard(_=None):
    os._exit(17)


def test_worker_death_is_retried_then_reported(force_pool, capfd):
    pool = parallel.WorkerPool()
    try:
        pool.ensure_workers(1)
        future = pool.submit_task(_die_hard)
        with pytest.raises(RuntimeError, match="died while running _die_hard"):
            future.result(timeout=60)
        err = capfd.readouterr().err
        assert err.count("died while running _die_hard; retrying") == 1
        # The pool itself survives: respawned workers serve new tasks.
        assert pool.submit_task(_square, (4,)).result(timeout=60)[0] == 16
    finally:
        pool.shutdown()


def test_pool_returns_the_in_process_simulate_response(
    force_pool, monkeypatch, tmp_path
):
    # The serve path end to end: a telemetry-bearing simulate response
    # crosses the pipe and equals the one computed in this process.
    import asyncio

    from repro import api
    from repro.serve.dispatch import Dispatcher

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    payload = {
        "kind": "simulate", "network": "single-router", "terminals": 8,
        "vcs": 2, "buffer_flits": 8, "loads": [0.2, 0.4],
        "warmup_cycles": 50, "measure_cycles": 100, "telemetry": True,
    }
    dispatcher = Dispatcher(executor=parallel.shared_pool(1), cache=None)
    status, body = asyncio.run(dispatcher.submit(dict(payload)))
    assert status == 200
    assert dispatcher.counters["pool_submissions"] == 1
    assert json.loads(body)["result"]["telemetry"]
    assert body == api.execute_payload(payload)
