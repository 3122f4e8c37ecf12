"""Dispatcher unit tests: coalescing, crash isolation, caching.

The executor is injected, so these tests control exactly when (and
whether) cold work completes — no process pool, no timing races.
"""

import asyncio
import json
from concurrent.futures import Future

import pytest

from repro import api
from repro.serve.dispatch import Dispatcher, ResponseCache

QUERY = {
    "kind": "simulate",
    "network": "single-router",
    "terminals": 8,
    "vcs": 2,
    "buffer_flits": 8,
    "loads": [0.2],
    "warmup_cycles": 50,
    "measure_cycles": 100,
}


class FakeExecutor:
    """Records submissions; the test resolves the futures by hand."""

    def __init__(self):
        self.futures = []

    def submit(self, fn, *args, **kwargs):
        del fn, args, kwargs
        future = Future()
        self.futures.append(future)
        return future


async def _settled(dispatcher, n, resolve):
    """n concurrent identical submits; ``resolve(executor)`` fires once
    every waiter is parked on the in-flight future."""
    tasks = [
        asyncio.ensure_future(dispatcher.submit(dict(QUERY))) for _ in range(n)
    ]
    # Let every task reach its await point (cache miss -> coalesce).
    for _ in range(10):
        await asyncio.sleep(0)
    resolve()
    return await asyncio.gather(*tasks)


def test_concurrent_identical_cold_queries_submit_once():
    """Satellite: N identical in-flight queries -> one pool submission."""
    executor = FakeExecutor()
    dispatcher = Dispatcher(executor=executor, cache=None)

    async def scenario():
        return await _settled(
            dispatcher,
            25,
            lambda: executor.futures[0].set_result({"ok": True}),
        )

    outcomes = asyncio.run(scenario())
    assert len(executor.futures) == 1
    assert all(outcome == (200, {"ok": True}) for outcome in outcomes)
    counters = dispatcher.counters
    assert counters["requests"] == 25
    assert counters["pool_submissions"] == 1
    assert counters["coalesced"] == 24
    assert dispatcher.stats()["dedup_ratio"] == pytest.approx(24 / 25)


def test_crash_returns_structured_error_to_all_waiters(tmp_path):
    """Satellite: a crashing cold query faults every waiter identically
    and leaves nothing in the response cache."""
    executor = FakeExecutor()
    cache = ResponseCache(tmp_path)
    dispatcher = Dispatcher(executor=executor, cache=cache)

    async def scenario():
        return await _settled(
            dispatcher,
            10,
            lambda: executor.futures[0].set_exception(
                RuntimeError("worker exploded")
            ),
        )

    outcomes = asyncio.run(scenario())
    assert len(executor.futures) == 1
    for status, body in outcomes:
        assert status == 500
        assert body["error"]["type"] == "RuntimeError"
        assert "worker exploded" in body["error"]["message"]
    # The cache was not poisoned: no entry exists, and a retry of the
    # same query goes back to the pool instead of replaying the error.
    assert list(tmp_path.iterdir()) == []

    async def retry():
        task = asyncio.ensure_future(dispatcher.submit(dict(QUERY)))
        for _ in range(10):
            await asyncio.sleep(0)
        executor.futures[1].set_result({"ok": True})
        return await task

    assert asyncio.run(retry()) == (200, {"ok": True})
    # One failed computation -> one error, however many waiters shared it.
    assert dispatcher.counters["errors"] == 1
    assert dispatcher.counters["pool_submissions"] == 2


def test_completed_response_is_cached_and_served_warm(tmp_path):
    executor = FakeExecutor()
    dispatcher = Dispatcher(executor=executor, cache=ResponseCache(tmp_path))

    async def scenario():
        first = asyncio.ensure_future(dispatcher.submit(dict(QUERY)))
        for _ in range(10):
            await asyncio.sleep(0)
        executor.futures[0].set_result({"answer": 42})
        assert await first == (200, {"answer": 42})
        # Same query again: served from disk, no new submission.
        return await dispatcher.submit(dict(QUERY))

    assert asyncio.run(scenario()) == (200, {"answer": 42})
    assert len(executor.futures) == 1
    assert dispatcher.counters["cache_hits"] == 1
    # The entry is plain JSON on disk under the content key.
    key = api.query_key(api.query_from_dict(dict(QUERY)))
    entry = tmp_path / "serve" / f"{key}.json"
    assert json.loads(entry.read_text()) == {"answer": 42}


def test_malformed_queries_answered_without_submission():
    executor = FakeExecutor()
    dispatcher = Dispatcher(executor=executor, cache=None)

    async def scenario():
        return [
            await dispatcher.submit(payload)
            for payload in (
                "not a dict",
                {"no": "kind"},
                {"kind": "simulate", "pattern": 3.14, "loads": "xyz"},
                {"kind": "design", "wattage": 9000},
            )
        ]

    outcomes = asyncio.run(scenario())
    assert [status for status, _ in outcomes] == [400, 400, 400, 400]
    assert all(body["error"]["type"] == "QueryError" for _, body in outcomes)
    assert executor.futures == []
    assert dispatcher.counters["errors"] == 4


class InlineExecutor:
    """Runs each submission immediately in this process."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 — the future carries it
            future.set_exception(exc)
        return future


def test_invalid_network_shape_answers_400():
    dispatcher = Dispatcher(executor=InlineExecutor(), cache=None)
    payload = {**QUERY, "network": "waferscale", "terminals": 30, "radix": 8}
    status, body = asyncio.run(dispatcher.submit(payload))
    assert status == 400
    assert body["error"]["type"] == "QueryError"
    assert "multiple of the SSC radix" in body["error"]["message"]


def test_distinct_queries_do_not_coalesce():
    executor = FakeExecutor()
    dispatcher = Dispatcher(executor=executor, cache=None)

    async def scenario():
        a = asyncio.ensure_future(dispatcher.submit(dict(QUERY)))
        b = asyncio.ensure_future(dispatcher.submit({**QUERY, "seed": 7}))
        for _ in range(10):
            await asyncio.sleep(0)
        executor.futures[0].set_result({"which": "a"})
        executor.futures[1].set_result({"which": "b"})
        return await asyncio.gather(a, b)

    outcomes = asyncio.run(scenario())
    assert len(executor.futures) == 2
    assert dispatcher.counters["coalesced"] == 0
    assert {body["which"] for _, body in outcomes} == {"a", "b"}

