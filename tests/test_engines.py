"""Tests for explicit engine selection (repro.engines).

Covers the resolution ladder (env override > explicit argument > hard
default) and validation. That the env overrides reach pool workers is
covered by ``tests/test_parallel_pool.py`` and
``tests/experiments/test_parallel_runner.py``.
"""

import pytest

from repro import engines


@pytest.fixture(autouse=True)
def _pristine(monkeypatch):
    """Each test starts with no env overrides."""
    for name in (engines.SCALAR_NETSIM_ENV, engines.SCALAR_MAPPING_ENV):
        monkeypatch.delenv(name, raising=False)


def test_auto_resolves_to_c_then_scalar(monkeypatch):
    assert engines.resolve_netsim_engine("auto") == "c"
    monkeypatch.setenv(engines.SCALAR_NETSIM_ENV, "1")
    assert engines.resolve_netsim_engine("auto") == "scalar"


def test_env_override_wins_over_explicit_argument(monkeypatch):
    monkeypatch.setenv(engines.SCALAR_NETSIM_ENV, "1")
    assert engines.resolve_netsim_engine("c") == "scalar"


def test_mapping_resolution_ladder(monkeypatch):
    assert engines.resolve_mapping_engine("auto") == "fast"
    assert engines.resolve_mapping_engine("scalar") == "scalar"
    assert engines.resolve_mapping_engine("fast") == "fast"
    monkeypatch.setenv(engines.SCALAR_MAPPING_ENV, "1")
    assert engines.resolve_mapping_engine("fast") == "scalar"


def test_unknown_engine_names_rejected():
    with pytest.raises(ValueError, match="unknown netsim engine"):
        engines.resolve_netsim_engine("turbo")
    with pytest.raises(ValueError, match="unknown netsim engine"):
        engines.resolve_netsim_engine("numpy")
    with pytest.raises(ValueError, match="unknown mapping engine"):
        engines.resolve_mapping_engine("turbo")
