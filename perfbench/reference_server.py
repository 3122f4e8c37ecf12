"""Host-speed reference for the ``serve`` workload.

Usage::

    python3 perfbench/reference_server.py DOCUMENT

A stand-alone HTTP/1.1 keep-alive server that answers every request the
way the program answers a response-cache hit: read ``DOCUMENT`` (a JSON
response body) from disk, parse it, encode it again and write it back.
It imports nothing from the program, so its request time moves only
with the host.  It prints ``listening on PORT`` once it accepts
connections and runs until it is terminated.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path


async def answer(document: Path, reader, writer) -> None:
    while await reader.readline():
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        await reader.readexactly(length)
        body = json.dumps(json.loads(document.read_text())).encode()
        writer.write(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body
        )
        await writer.drain()
    writer.close()


async def main(document: Path) -> None:
    server = await asyncio.start_server(
        lambda r, w: answer(document, r, w), "127.0.0.1", 0
    )
    print(f"listening on {server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(main(Path(sys.argv[1])))
