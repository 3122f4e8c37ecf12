"""Tests for explicit engine selection (repro.engines).

Covers resolution (explicit argument > hard default) and validation.
That the mapping ``engine=`` reaches pool workers is covered by
``tests/mapping/test_fast_exchange.py``; that responses name the
engine that ran, by ``tests/test_api.py``.
"""

import pytest

from repro import engines


def test_auto_resolves_to_c_then_scalar():
    assert engines.resolve_netsim_engine("auto") == "c"
    assert engines.resolve_netsim_engine("c") == "c"
    assert engines.resolve_netsim_engine("scalar") == "scalar"


def test_mapping_resolution_ladder():
    assert engines.resolve_mapping_engine("auto") == "fast"
    assert engines.resolve_mapping_engine("scalar") == "scalar"
    assert engines.resolve_mapping_engine("fast") == "fast"


def test_unknown_engine_names_rejected():
    with pytest.raises(ValueError, match="unknown netsim engine"):
        engines.resolve_netsim_engine("turbo")
    with pytest.raises(ValueError, match="unknown netsim engine"):
        engines.resolve_netsim_engine("numpy")
    with pytest.raises(ValueError, match="unknown mapping engine"):
        engines.resolve_mapping_engine("turbo")
