"""Tests for the repro.api facade.

The facade is the serve layer's contract: typed queries round-trip
through JSON, content keys are stable and engine-sensitive, and
``execute`` answers every query kind without any ``REPRO_*``
environment variable being set.
"""

import json

import pytest

from repro import api

TINY_SIM = dict(
    network="single-router",
    terminals=8,
    vcs=2,
    buffer_flits=8,
    loads=(0.2,),
    warmup_cycles=50,
    measure_cycles=100,
)


# ----------------------------------------------------------------------
# Query serialization
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "query",
    [
        api.DesignQuery(),
        api.DesignQuery(substrate_mm=100.0, hetero=True, mapping_restarts=1),
        api.SweepQuery(experiments=("fig01", "tab06"), fast=True),
        api.SimQuery(**TINY_SIM),
        api.SimQuery(telemetry=True, loads=(0.1, 0.3)),
    ],
)
def test_query_roundtrips_through_json(query):
    payload = json.loads(json.dumps(query.to_dict()))
    assert api.query_from_dict(payload) == query


def test_query_from_dict_requires_kind():
    with pytest.raises(api.QueryError, match="kind"):
        api.query_from_dict({"substrate_mm": 100.0})
    with pytest.raises(api.QueryError, match="unknown query kind"):
        api.query_from_dict({"kind": "frobnicate"})


def test_query_from_dict_rejects_unknown_fields():
    with pytest.raises(api.QueryError, match="unknown design query fields"):
        api.query_from_dict({"kind": "design", "wattage": 9000})


def test_query_key_is_stable_and_engine_sensitive():
    query = api.SimQuery(**TINY_SIM)
    same = api.query_from_dict(query.to_dict())
    assert api.query_key(query) == api.query_key(same)
    assert api.query_key(query, engine="scalar") != api.query_key(
        query, engine="c"
    )
    assert api.query_key(query) != api.query_key(api.SimQuery(**{**TINY_SIM, "seed": 2}))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def test_execute_simulate_envelope_and_engines():
    response = api.execute(api.SimQuery(**TINY_SIM), engine="c")
    json.dumps(response)  # strictly serializable
    assert response["schema"] == api.RESPONSE_SCHEMA
    assert response["kind"] == "simulate"
    assert response["engines"]["netsim"] == "c"
    assert len(response["result"]["points"]) == 1
    point = response["result"]["points"][0]
    assert point["offered_load"] == 0.2
    assert point["avg_latency_cycles"] > 0


def test_execute_engine_forcing_is_bit_identical():
    """scalar and C kernels must agree through the facade too."""
    a = api.execute(api.SimQuery(**TINY_SIM), engine="scalar")
    b = api.execute(api.SimQuery(**TINY_SIM), engine="c")
    assert a["result"]["points"] == b["result"]["points"]


def test_execute_simulate_streams_telemetry():
    seen = []
    response = api.execute(
        api.SimQuery(**{**TINY_SIM, "telemetry": True, "loads": (0.1, 0.2)}),
        on_telemetry=lambda load, report: seen.append((load, report["schema"])),
    )
    assert [load for load, _ in seen] == [0.1, 0.2]
    assert all(schema == "repro-netsim-telemetry" for _, schema in seen)
    assert len(response["result"]["telemetry"]) == 2


def test_execute_rejects_bad_sim_queries():
    with pytest.raises(api.QueryError, match="traffic pattern"):
        api.execute(api.SimQuery(**{**TINY_SIM, "pattern": "bogus"}))
    with pytest.raises(api.QueryError, match="network model"):
        api.execute(api.SimQuery(**{**TINY_SIM, "network": "hypercube"}))
    with pytest.raises(api.QueryError, match="at least one load"):
        api.execute(api.SimQuery(**{**TINY_SIM, "loads": ()}))



@pytest.mark.parametrize("radix", [7, 8])
def test_execute_rejects_invalid_network_shapes(radix):
    """An odd radix, or terminals not a multiple of it, is a malformed
    query (HTTP 400), not an execution failure."""
    query = api.SimQuery(terminals=30, radix=radix, loads=(0.1,))
    with pytest.raises(api.QueryError, match="bad simulate query"):
        api.execute(query)


@pytest.mark.slow
def test_execute_design_rehydrates(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    response = api.execute(
        api.DesignQuery(substrate_mm=100.0, mapping_restarts=1)
    )
    json.dumps(response)
    result = response["result"]
    assert result["feasible"]
    from repro.core.design import DesignPoint

    design = DesignPoint.from_dict(result["design"])
    assert design.feasible
    assert design.substrate_side_mm == 100.0


def test_execute_design_rejects_unknown_technologies():
    with pytest.raises(api.QueryError, match="WSI technology"):
        api.execute(api.DesignQuery(wsi="unobtainium"))
    with pytest.raises(api.QueryError, match="external I/O technology"):
        api.execute(api.DesignQuery(external_io="carrier pigeon"))
    with pytest.raises(api.QueryError, match="topology family"):
        api.execute(api.DesignQuery(family="torus-of-tori"))


@pytest.mark.slow
def test_execute_sweep_uses_cache(tmp_path):
    response = api.execute(
        api.SweepQuery(experiments=("fig01",)), cache=tmp_path
    )
    assert response["result"]["cached"]
    tables = response["result"]["experiments"]
    assert len(tables) == 1
    # Second run must be served from the cache directory we pinned.
    again = api.execute(api.SweepQuery(experiments=("fig01",)), cache=tmp_path)
    assert again["result"]["experiments"] == tables
    assert any(tmp_path.iterdir())


def test_execute_sweep_rejects_unknown_ids():
    with pytest.raises(api.QueryError, match="unknown experiment ids"):
        api.execute(api.SweepQuery(experiments=("fig99",)), cache=None)


def test_execute_payload_matches_execute():
    query = api.SimQuery(**TINY_SIM)
    direct = api.execute(query, engine="c")
    via_payload = api.execute_payload(query.to_dict(), engine="c")
    assert via_payload == direct
