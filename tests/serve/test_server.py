"""End-to-end serve tests: real sockets, real dispatcher, real pool.

Each test boots a :class:`ServeServer` on a kernel-picked loopback
port inside the test's event loop and speaks actual HTTP/1.1 to it.
"""

import asyncio
import json

import pytest

from repro import api
from repro.serve.dispatch import Dispatcher, ResponseCache
from repro.serve.server import ServeServer

SIM_QUERY = {
    "network": "single-router",
    "terminals": 8,
    "vcs": 2,
    "buffer_flits": 8,
    "loads": [0.1],
    "warmup_cycles": 50,
    "measure_cycles": 100,
}


async def http(port, method, path, body=None, raw_body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = raw_body if raw_body is not None else (
            b"" if body is None else json.dumps(body).encode()
        )
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n"
            ).encode()
            + data
        )
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, payload = response.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    if b"Transfer-Encoding: chunked" in head:
        decoded = b""
        while payload:
            size_line, _, rest = payload.partition(b"\r\n")
            size = int(size_line, 16)
            if size == 0:
                break
            decoded += rest[:size]
            payload = rest[size + 2:]
        return status, decoded
    return status, payload


def run_with_server(scenario, tmp_path):
    """Boot a server around ``scenario(port, dispatcher)``, tear down."""

    async def body():
        dispatcher = Dispatcher(cache=ResponseCache(tmp_path))
        server = ServeServer(dispatcher, port=0)
        await server.start()
        try:
            return await scenario(server.port, dispatcher)
        finally:
            await server.stop()

    return asyncio.run(body())


def test_healthz_stats_and_routing(tmp_path):
    async def scenario(port, dispatcher):
        status, payload = await http(port, "GET", "/healthz")
        assert (status, json.loads(payload)) == (200, {"ok": True})
        status, payload = await http(port, "GET", "/v1/stats")
        assert status == 200
        assert json.loads(payload)["counters"]["requests"] == 0
        status, _ = await http(port, "GET", "/v1/nope")
        assert status == 404
        status, _ = await http(port, "POST", "/v1/nope", {})
        assert status == 404
        status, payload = await http(
            port, "POST", "/v1/simulate", raw_body=b"{corrupt"
        )
        assert status == 400
        assert json.loads(payload)["error"]["type"] == "BadJSON"
        # A kind that contradicts the route is rejected, not guessed.
        status, _ = await http(
            port, "POST", "/v1/design", {"kind": "simulate"}
        )
        assert status == 400

    run_with_server(scenario, tmp_path)


def test_cold_then_warm_query_through_real_pool(tmp_path, monkeypatch):
    """Satellite/CI shape: cold query computes on the shared pool, the
    identical warm query is answered from the response cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    async def scenario(port, dispatcher):
        status, payload = await http(port, "POST", "/v1/simulate", SIM_QUERY)
        assert status == 200
        cold = json.loads(payload)
        assert cold["kind"] == "simulate"
        assert dispatcher.counters["pool_submissions"] == 1

        status, payload = await http(port, "POST", "/v1/simulate", SIM_QUERY)
        assert status == 200
        assert json.loads(payload) == cold
        assert dispatcher.counters["cache_hits"] == 1
        assert dispatcher.counters["pool_submissions"] == 1  # unchanged

    run_with_server(scenario, tmp_path)


@pytest.mark.parametrize(
    "path, query",
    [
        ("/v1/simulate", {**SIM_QUERY, "telemetry": True, "loads": [0.1, 0.2]}),
        ("/v1/design", {"substrate_mm": 100.0, "mapping_restarts": 1}),
        ("/v1/sweep", {"experiments": ["fig01"]}),
    ],
    ids=["simulate-telemetry", "design", "sweep"],
)
def test_cold_coalesced_and_warm_bodies_are_the_same_bytes(
    path, query, tmp_path, monkeypatch
):
    """A response is encoded once, in the worker: the cold body, every
    coalesced waiter's body and a later hit's body are the same bytes,
    and the cache entry is those bytes plus a newline."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    async def scenario(port, dispatcher):
        first = await asyncio.gather(
            *[http(port, "POST", path, query) for _ in range(3)]
        )
        warm = await http(port, "POST", path, query)
        assert dispatcher.counters["pool_submissions"] == 1
        assert dispatcher.counters["coalesced"] >= 1
        assert dispatcher.counters["cache_hits"] >= 1
        return [*first, warm]

    outcomes = run_with_server(scenario, tmp_path)
    assert {status for status, _ in outcomes} == {200}
    cold = outcomes[0][1]
    assert all(body == cold for _, body in outcomes)
    assert json.loads(cold)["kind"] == path.rsplit("/", 1)[1]
    (entry,) = (tmp_path / "serve").iterdir()
    assert entry.read_bytes() == cold + b"\n"


def test_every_truncated_entry_is_a_miss(tmp_path):
    """A hit needs a whole entry: cut anywhere, it is not served."""
    cache = ResponseCache(tmp_path)
    body = api.execute_payload({"kind": "simulate", **SIM_QUERY})
    path = cache.store("k", body)
    entry = path.read_bytes()
    assert entry == body + b"\n"
    assert cache.load("k") == body
    for length in range(len(entry)):
        path.write_bytes(entry[:length])
        assert cache.load("k") is None, length


def test_warm_stream_replays_a_pooled_response(tmp_path, monkeypatch):
    """A stream hit parses the stored bytes: its telemetry events and
    result equal the cold, pool-computed body it replays."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    query = {**SIM_QUERY, "telemetry": True, "loads": [0.1, 0.2], "seed": 3}

    async def scenario(port, dispatcher):
        _, cold = await http(port, "POST", "/v1/simulate", query)
        _, payload = await http(port, "POST", "/v1/simulate?stream=1", query)
        assert dispatcher.counters["pool_submissions"] == 1
        assert dispatcher.counters["cache_hits"] == 1
        return json.loads(cold), payload

    cold, payload = run_with_server(scenario, tmp_path)
    events = [json.loads(line) for line in payload.decode().splitlines()]
    assert [e["event"] for e in events] == ["telemetry", "telemetry", "result"]
    assert [{"load": e["load"], "report": e["report"]} for e in events[:-1]] == (
        cold["result"]["telemetry"]
    )
    assert events[-1] == {"event": "result", "status": 200, "body": cold}


def test_streaming_telemetry_over_chunked_ndjson(tmp_path):
    query = {**SIM_QUERY, "telemetry": True, "loads": [0.1, 0.2], "seed": 5}

    async def scenario(port, dispatcher):
        status, payload = await http(
            port, "POST", "/v1/simulate?stream=1", query
        )
        assert status == 200
        events = [json.loads(line) for line in payload.decode().splitlines()]
        assert [e["event"] for e in events] == [
            "telemetry",
            "telemetry",
            "result",
        ]
        assert [e["load"] for e in events[:-1]] == [0.1, 0.2]
        assert events[0]["report"]["schema"] == "repro-netsim-telemetry"
        result = events[-1]
        assert result["status"] == 200
        assert len(result["body"]["result"]["points"]) == 2
        assert dispatcher.counters["streamed"] == 1

        # The streamed response landed in the cache; a warm stream
        # replays the same telemetry without recomputing.
        status, payload = await http(
            port, "POST", "/v1/simulate?stream=1", query
        )
        events = [json.loads(line) for line in payload.decode().splitlines()]
        assert [e["event"] for e in events] == [
            "telemetry",
            "telemetry",
            "result",
        ]
        assert dispatcher.counters["cache_hits"] == 1

    run_with_server(scenario, tmp_path)


def test_stream_rejects_non_simulate_queries(tmp_path):
    async def scenario(port, dispatcher):
        # stream=1 without telemetry falls back to a plain response.
        status, payload = await http(
            port, "POST", "/v1/simulate?stream=1", {**SIM_QUERY, "seed": 9}
        )
        assert status == 200
        assert json.loads(payload)["kind"] == "simulate"

        status, payload = await http(
            port, "POST", "/v1/query?stream=1", {"kind": "design", "telemetry": True}
        )
        assert status == 200  # chunked error stream
        events = [json.loads(line) for line in payload.decode().splitlines()]
        assert events[-1]["status"] == 400
        assert events[-1]["body"]["error"]["type"] == "QueryError"

    run_with_server(scenario, tmp_path)
