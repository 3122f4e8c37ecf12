"""Tests for explicit engine selection (repro.engines).

Covers the resolution ladder (env override > explicit argument >
process default > hard default), validation, and the threading of
process defaults through the pool-worker initializer.
"""

import pytest

from repro import engines
from repro.parallel import pool_map


@pytest.fixture(autouse=True)
def _pristine(monkeypatch):
    """Each test starts with no env overrides and 'auto' defaults."""
    for name in (engines.SCALAR_NETSIM_ENV, engines.SCALAR_MAPPING_ENV):
        monkeypatch.delenv(name, raising=False)
    before = engines.default_engines()
    engines.set_default_engines(netsim="auto", mapping="auto")
    yield
    engines.set_default_engines(**before)


def test_auto_resolves_to_c_then_scalar(monkeypatch):
    assert engines.resolve_netsim_engine("auto") == "c"
    monkeypatch.setenv(engines.SCALAR_NETSIM_ENV, "1")
    assert engines.resolve_netsim_engine("auto") == "scalar"


def test_explicit_argument_wins_over_process_default():
    engines.set_default_engines(netsim="scalar")
    assert engines.resolve_netsim_engine("auto") == "scalar"
    assert engines.resolve_netsim_engine("c") == "c"


def test_env_override_wins_over_explicit_argument(monkeypatch):
    monkeypatch.setenv(engines.SCALAR_NETSIM_ENV, "1")
    assert engines.resolve_netsim_engine("c") == "scalar"


def test_mapping_resolution_ladder(monkeypatch):
    assert engines.resolve_mapping_engine("auto") == "fast"
    engines.set_default_engines(mapping="scalar")
    assert engines.resolve_mapping_engine("auto") == "scalar"
    assert engines.resolve_mapping_engine("fast") == "fast"
    monkeypatch.setenv(engines.SCALAR_MAPPING_ENV, "1")
    assert engines.resolve_mapping_engine("fast") == "scalar"


def test_unknown_engine_names_rejected():
    with pytest.raises(ValueError, match="unknown netsim engine"):
        engines.resolve_netsim_engine("turbo")
    with pytest.raises(ValueError, match="unknown netsim engine"):
        engines.resolve_netsim_engine("numpy")
    with pytest.raises(ValueError, match="unknown mapping engine"):
        engines.set_default_engines(mapping="turbo")
    # A failed set_default_engines must not partially apply.
    assert engines.default_engines() == {"netsim": "auto", "mapping": "auto"}


def _resolved_in_worker(_dummy):
    from repro.engines import resolve_mapping_engine, resolve_netsim_engine

    return (resolve_netsim_engine("auto"), resolve_mapping_engine("auto"))


def test_process_defaults_cross_pool_boundary():
    """set_default_engines in the parent pins workers too (satellite)."""
    engines.set_default_engines(netsim="scalar", mapping="scalar")
    results = pool_map(_resolved_in_worker, [(0,), (1,)], jobs=2)
    assert results == [("scalar", "scalar"), ("scalar", "scalar")]
