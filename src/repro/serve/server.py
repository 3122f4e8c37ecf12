"""HTTP/1.1 binding for the serve dispatcher (stdlib asyncio only).

A deliberately small server: request line + headers + Content-Length
body in, JSON out, keep-alive by default, chunked NDJSON for telemetry
streams. It exists so the reproduction can be queried as a service
without adding any web framework to the image.

Endpoints (see ``docs/serve.md`` for the full schema reference):

* ``GET  /healthz``      — liveness probe, ``{"ok": true}``;
* ``GET  /v1/stats``     — dispatcher counters and derived ratios;
* ``POST /v1/query``     — any query payload (``kind`` field picks);
* ``POST /v1/design``    — :class:`repro.api.DesignQuery` fields;
* ``POST /v1/sweep``     — :class:`repro.api.SweepQuery` fields;
* ``POST /v1/simulate``  — :class:`repro.api.SimQuery` fields; with
  ``telemetry: true`` and ``?stream=1`` the response is chunked
  ``application/x-ndjson``, one telemetry event per finished load
  point and a terminal ``result`` event;
* ``POST /v1/dcn``       — :class:`repro.api.DCNQuery` fields (a
  partitioned multi-wafer DCN run, see docs/dcn.md).
"""

from __future__ import annotations

import argparse
import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.serve.dispatch import Dispatcher, Outcome, ResponseCache, failure

#: Largest accepted request body; queries are tiny, so anything bigger
#: is a mistake (or abuse) and is rejected before buffering it.
MAX_BODY_BYTES = 1 << 20

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"}


def _head(
    status: int, content_type: str, extra: str = "", length: Optional[int] = None
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
        f"Content-Type: {content_type}",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    if extra:
        lines.append(extra)
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


class ServeServer:
    """One listening socket in front of one :class:`Dispatcher`."""

    def __init__(
        self,
        dispatcher: Optional[Dispatcher] = None,
        host: str = "127.0.0.1",
        port: int = 8177,
    ):
        self.dispatcher = dispatcher if dispatcher is not None else Dispatcher(
            cache=ResponseCache()
        )
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # Port 0 means "pick one"; reflect the kernel's choice back.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                try:
                    await self._respond(writer, method, path, body)
                except ConnectionError:
                    break
                if not keep_alive:
                    break
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
    ) -> None:
        path, _, query_string = path.partition("?")
        if method == "GET" and path == "/healthz":
            self._write_json(writer, 200, b'{"ok": true}')
            return
        if method == "GET" and path == "/v1/stats":
            stats = json.dumps(self.dispatcher.stats()).encode()
            self._write_json(writer, 200, stats)
            return
        if method != "POST":
            self._write_json(
                writer, *failure(404, "NotFound", f"no route {method} {path}")
            )
            return

        payload, parse_error = self._parse_body(path, body)
        if parse_error is not None:
            self._write_json(writer, *parse_error)
            return

        if (
            path in ("/v1/simulate", "/v1/query")
            and "stream=1" in query_string.split("&")
            and isinstance(payload, dict)
            and payload.get("telemetry")
        ):
            await self._write_stream(writer, payload)
            return

        self._write_json(writer, *await self.dispatcher.submit(payload))

    def _parse_body(self, path: str, body: bytes) -> Tuple[Any, Optional[Outcome]]:
        """JSON-decode the body and imply ``kind`` from the route."""
        kinds = {
            "/v1/design": "design",
            "/v1/sweep": "sweep",
            "/v1/simulate": "simulate",
            "/v1/dcn": "dcn",
        }
        if path not in kinds and path != "/v1/query":
            return None, failure(404, "NotFound", f"no route POST {path}")
        try:
            payload = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, failure(400, "BadJSON", str(exc))
        if isinstance(payload, dict) and path in kinds:
            implied = kinds[path]
            if payload.setdefault("kind", implied) != implied:
                return None, failure(
                    400,
                    "QueryError",
                    f"kind {payload['kind']!r} does not match route {path}",
                )
        return payload, None

    def _write_json(
        self, writer: asyncio.StreamWriter, status: int, body: bytes
    ) -> None:
        """Send one JSON response; ``body`` is already encoded."""
        writer.write(_head(status, "application/json", length=len(body)) + body)

    async def _write_stream(
        self, writer: asyncio.StreamWriter, payload: Dict[str, Any]
    ) -> None:
        """Chunked NDJSON: one line per event, flushed as produced."""
        writer.write(
            _head(
                200,
                "application/x-ndjson",
                extra="Transfer-Encoding: chunked",
            )
        )
        async for event in self.dispatcher.stream(payload):
            line = json.dumps(event).encode() + b"\n"
            writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()


async def _amain(args: argparse.Namespace) -> None:
    dispatcher = Dispatcher(
        cache=None if args.no_cache else ResponseCache(),
        engine=args.engine,
    )
    server = ServeServer(dispatcher, host=args.host, port=args.port)
    await server.start()
    print(f"repro serve listening on http://{server.host}:{server.port}", flush=True)
    assert server._server is not None
    async with server._server:
        await server._server.serve_forever()


def main(argv: Optional[list] = None) -> int:
    """Entry point for ``python -m repro serve``."""
    from repro.engines import NETSIM_ENGINES

    parser = argparse.ArgumentParser(
        prog="repro serve", description="query the reproduction as a service"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8177, help="0 picks a free port")
    parser.add_argument(
        "--engine",
        choices=NETSIM_ENGINES,
        default="auto",
        help="netsim kernel of simulate and dcn queries (default auto)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk response cache (coalescing still applies)",
    )
    args = parser.parse_args(argv)
    try:
        asyncio.run(_amain(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
