"""Transport-agnostic request broker for the serve layer.

The :class:`Dispatcher` sits between any front end (the HTTP server in
:mod:`repro.serve.server`, or a test driving it directly) and the
:mod:`repro.api` facade. It answers each query payload through a
three-level ladder:

1. **Response cache** — completed responses persist as JSON under
   ``.repro_cache/serve/`` keyed by :func:`repro.api.query_key`
   (query fields + resolved netsim engine + source fingerprint), so a
   warm query is one small file read whose bytes go out verbatim;
2. **In-flight coalescing** — identical cold queries that arrive while
   the first one is still computing attach to its future instead of
   resubmitting; one pool submission serves all of them, and a crash
   delivers the same structured error to every waiter **without**
   poisoning the cache (errors are never cached);
3. **Pool dispatch** — genuinely cold work runs
   :func:`repro.api.execute_payload` on the shared warm worker pool
   from :mod:`repro.parallel` (or any injected executor). The pool is
   the same one the experiment scheduler and the mapping optimizer
   use: its workers are persistent and preloaded, so a cold query
   pays sub-millisecond dispatch, not a process spawn plus imports
   (see docs/parallel.md).

A response is JSON-encoded once, in the worker: the bytes it returns
are the cache entry (plus a newline), the cold body, every coalesced
waiter's body and every later hit's body.

``simulate`` queries with ``telemetry: true`` can instead be streamed:
:meth:`Dispatcher.stream` runs them on a thread (telemetry callbacks
cannot cross a process boundary) and yields each load point's report
the moment it is finished, followed by the final response.

Every decision increments a counter (``requests``, ``cache_hits``,
``coalesced``, ``pool_submissions``, ``errors``, ``streamed``)
surfaced by the server's ``/v1/stats`` endpoint and consumed by
``benchmarks/bench_serve.py`` to measure dedup and hit ratios.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import Executor
from functools import partial
from pathlib import Path
from typing import Any, AsyncIterator, Dict, Optional, Tuple

from repro import api, cas

#: A dispatch outcome: (HTTP-ish status code, the JSON body's bytes).
Outcome = Tuple[int, bytes]


def error_body(status: int, kind: str, message: str) -> Dict[str, Any]:
    """Structured error envelope (mirrors the response envelope tags)."""
    return {
        "schema": api.RESPONSE_SCHEMA,
        "version": api.RESPONSE_SCHEMA_VERSION,
        "error": {"status": status, "type": kind, "message": message},
    }


def failure(status: int, kind: str, message: str) -> Outcome:
    """An error outcome: its envelope, encoded once."""
    return status, json.dumps(error_body(status, kind, message)).encode()


class ResponseCache:
    """Persists completed serve responses in the ``serve`` namespace.

    ``root`` pins the cache root (default: :func:`repro.cas.cache_root`).
    An entry is a response's JSON bytes plus ``"\\n"``. A hit is one
    file read: ``load`` returns the bytes to send verbatim, without the
    newline, and parses nothing. An entry counts only if it starts with
    ``{`` and ends with ``}\\n``; ``json.dumps`` never emits a raw
    newline, so a truncated or torn entry fails that test and, like a
    missing or unreadable file, is a miss (``None``). Only successful
    responses are ever stored — see :class:`Dispatcher`.
    """

    def __init__(self, root: Optional[cas.PathLike] = None):
        self.entries = cas.Store("serve", root)

    def load(self, key: str) -> Optional[bytes]:
        try:
            data = self.entries.path(key).read_bytes()
        except OSError:
            return None
        return data[:-1] if data.startswith(b"{") and data.endswith(b"}\n") else None

    def store(self, key: str, body: bytes) -> Path:
        path = self.entries.path(key)
        cas.publish(path, body.decode() + "\n")
        return path


class Dispatcher:
    """Coalescing broker from query payloads to response bodies.

    Args:
        executor: Anything with ``submit(fn) -> concurrent.futures.
            Future``; defaults (lazily) to the shared warm worker pool
            of :mod:`repro.parallel`. Tests inject a fake to count and
            control submissions.
        cache: A :class:`ResponseCache`, or ``None`` to disable warm
            responses (every request then coalesces or recomputes).
        engine: Netsim kernel of every simulate and dcn query this
            dispatcher executes (a :mod:`repro.engines` name).
        sweep_cache: Forwarded to :func:`repro.api.execute` as its
            ``cache`` argument for sweep queries.
    """

    def __init__(
        self,
        executor: Optional[Executor] = None,
        cache: Optional[ResponseCache] = None,
        engine: str = "auto",
        sweep_cache: Any = "default",
    ):
        self._executor = executor
        self.cache = cache
        self.engine = engine
        self.sweep_cache = sweep_cache
        self._inflight: Dict[str, "asyncio.Future[Outcome]"] = {}
        self.counters: Dict[str, int] = {
            "requests": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "pool_submissions": 0,
            "errors": 0,
            "streamed": 0,
        }

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------

    def executor(self) -> Executor:
        """The target for cold work (created on first use)."""
        if self._executor is None:
            from repro.parallel import shared_pool

            self._executor = shared_pool()
        return self._executor

    def _parse(self, payload: Any) -> api.Query:
        if not isinstance(payload, dict):
            raise api.QueryError("query payload must be a JSON object")
        return api.query_from_dict(payload)

    def _execute_call(self, query: api.Query):
        """Module-level-picklable call for the process pool; it returns
        the response's JSON bytes, encoded in the worker."""
        return partial(
            api.execute_payload,
            query.to_dict(),
            engine=self.engine,
            cache=self.sweep_cache,
        )

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    async def submit(self, payload: Any) -> Outcome:
        """Answer one query payload; never raises for request faults.

        Returns ``(status, body)`` where body is the JSON response's
        bytes and status is 200 on success, 400 for malformed queries
        and 500 for execution failures. Every coalesced waiter shares
        the one outcome, bytes object included. Faulted outcomes are
        never written to the response cache, so one crash cannot
        poison later identical requests.
        """
        self.counters["requests"] += 1
        try:
            query = self._parse(payload)
        except api.QueryError as exc:
            self.counters["errors"] += 1
            return failure(400, "QueryError", str(exc))

        key = api.query_key(query, self.engine)
        if self.cache is not None:
            cached = self.cache.load(key)
            if cached is not None:
                self.counters["cache_hits"] += 1
                return 200, cached

        pending = self._inflight.get(key)
        if pending is not None:
            self.counters["coalesced"] += 1
            return await asyncio.shield(pending)

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Outcome]" = loop.create_future()
        self._inflight[key] = future
        try:
            outcome = await self._run_cold(query, key)
        except BaseException:
            # Cancellation or a bug in our own plumbing: wake waiters
            # with a structured error rather than hanging them.
            outcome = failure(500, "DispatchError", "dispatch failed")
            raise
        finally:
            self._inflight.pop(key, None)
            future.set_result(outcome)
        return outcome

    async def _run_cold(self, query: api.Query, key: str) -> Outcome:
        self.counters["pool_submissions"] += 1
        loop = asyncio.get_running_loop()
        try:
            body = await asyncio.wrap_future(
                self.executor().submit(self._execute_call(query)),
                loop=loop,
            )
        except api.QueryError as exc:
            self.counters["errors"] += 1
            return failure(400, "QueryError", str(exc))
        except Exception as exc:
            self.counters["errors"] += 1
            return failure(500, type(exc).__name__, str(exc))
        if self.cache is not None:
            self.cache.store(key, body)
        return 200, body

    # ------------------------------------------------------------------
    # Streaming path (simulate + telemetry)
    # ------------------------------------------------------------------

    async def stream(self, payload: Any) -> AsyncIterator[Dict[str, Any]]:
        """Stream a simulate query as NDJSON-ready event dicts.

        Yields ``{"event": "telemetry", "load": ..., "report": ...}``
        per finished load point, then exactly one terminal event:
        ``{"event": "result", "status": ..., "body": ...}``. Runs on a
        worker thread (not the process pool) so telemetry callbacks can
        cross back into the event loop as each point completes; the
        final successful response still lands in the response cache,
        and a warm stream parses the cached bytes to replay telemetry.
        """
        self.counters["requests"] += 1
        self.counters["streamed"] += 1
        try:
            query = self._parse(payload)
            if not isinstance(query, api.SimQuery):
                raise api.QueryError("only simulate queries can stream")
        except api.QueryError as exc:
            self.counters["errors"] += 1
            yield {
                "event": "result",
                "status": 400,
                "body": error_body(400, "QueryError", str(exc)),
            }
            return

        key = api.query_key(query, self.engine)
        if self.cache is not None:
            data = self.cache.load(key)
            if data is not None:
                self.counters["cache_hits"] += 1
                cached = json.loads(data)
                for point in cached["result"].get("telemetry", []):
                    yield {"event": "telemetry", **point}
                yield {"event": "result", "status": 200, "body": cached}
                return

        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()

        def on_telemetry(load: float, report: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(
                queue.put_nowait,
                {"event": "telemetry", "load": load, "report": report},
            )

        def run() -> None:
            try:
                response = api.execute(
                    query,
                    engine=self.engine,
                    cache=self.sweep_cache,
                    on_telemetry=on_telemetry,
                )
                event = {"event": "result", "status": 200, "body": response}
            except api.QueryError as exc:
                event = {
                    "event": "result",
                    "status": 400,
                    "body": error_body(400, "QueryError", str(exc)),
                }
            except Exception as exc:  # crash -> structured terminal event
                event = {
                    "event": "result",
                    "status": 500,
                    "body": error_body(500, type(exc).__name__, str(exc)),
                }
            loop.call_soon_threadsafe(queue.put_nowait, event)

        runner = loop.run_in_executor(None, run)
        try:
            while True:
                event = await queue.get()
                if event["event"] == "result":
                    if event["status"] == 200:
                        if self.cache is not None:
                            self.cache.store(key, json.dumps(event["body"]).encode())
                    else:
                        self.counters["errors"] += 1
                    yield event
                    return
                yield event
        finally:
            await runner

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot plus derived ratios for ``/v1/stats``."""
        counters = dict(self.counters)
        requests = counters["requests"]
        deduped = counters["cache_hits"] + counters["coalesced"]
        return {
            "counters": counters,
            "inflight": len(self._inflight),
            "dedup_ratio": (deduped / requests) if requests else 0.0,
            "cache_hit_rate": (
                counters["cache_hits"] / requests if requests else 0.0
            ),
        }
