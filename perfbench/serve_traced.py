"""``python -m repro serve`` with the per-layer tracer installed.

Usage::

    PYTHONPATH=src python3 perfbench/serve_traced.py TRACE_OUT [serve options]

Wraps the server's entry points (``ResponseCache``,
``Dispatcher.submit``, the worker pool, the wire encoding and the
response write; see ``tracer.ENTRY_POINTS``), then hands over to
``repro.serve.server.main``.  Each ``SIGUSR1`` snapshots the span
totals and answers with a ``mark N`` line on standard output, so the
client can bracket its measured window.  On exit (``SIGINT``) the
snapshots, pool-task rows, per-request records, span events and the
wrapper's own cost are written to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import os
import signal
import sys


def main(argv) -> int:
    import tracer as tr
    from repro.serve import server

    trace_out, serve_args = argv[0], argv[1:]
    tracer = tr.Tracer()
    tr.install(tracer, serve=True)
    marks = []

    def on_mark(signum, frame) -> None:
        marks.append(tracer.snapshot())
        print(f"mark {len(marks)}", flush=True)

    signal.signal(signal.SIGUSR1, on_mark)
    try:
        return server.main(serve_args)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as out:
            json.dump({
                "pid": os.getpid(),
                "marks": marks,
                "tasks": tracer.tasks,
                "requests": tracer.requests,
                "events": tracer.events,
                "costs": tr.wrapper_cost(),
            }, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
