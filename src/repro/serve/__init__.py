"""Design-space exploration as a service.

An asyncio server exposing the :mod:`repro.api` facade over HTTP:
``design``, ``sweep`` and ``simulate`` queries arrive as JSON, warm
queries are answered from the on-disk response cache in well under a
millisecond, identical in-flight cold queries are coalesced into one
computation on the shared process pool, and ``simulate`` queries can
stream their telemetry reports per load point as NDJSON chunks.

Layers:

* :mod:`repro.serve.dispatch` — transport-agnostic request broker
  (coalescing, response cache, pool dispatch, counters);
* :mod:`repro.serve.server` — a thin HTTP/1.1 binding on
  ``asyncio.start_server`` (stdlib only).

Start it with ``python -m repro serve`` and see ``docs/serve.md`` for
the endpoint and query schema reference.
"""
