"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cas import CACHE_DIR_ENV
from repro.tech.chiplet import tomahawk5
from repro.topology.clos import folded_clos


@pytest.fixture(autouse=True)
def _isolated_result_cache(monkeypatch, tmp_path):
    """Point the shared cache root at a per-test directory so tests
    never read or write the working tree's ``.repro_cache/``."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "repro_cache"))


@pytest.fixture
def th5():
    return tomahawk5()


@pytest.fixture
def small_clos():
    """1024-port Clos (12 chiplets) — cheap enough for mapping tests."""
    return folded_clos(1024)


@pytest.fixture
def tiny_clos():
    """A 16-port Clos of radix-8 SSCs for fast structural tests."""
    from repro.tech.chiplet import SubSwitchChiplet

    ssc = SubSwitchChiplet(
        name="test-ssc",
        radix=8,
        port_bandwidth_gbps=200.0,
        area_mm2=100.0,
        core_power_w=50.0,
    )
    return folded_clos(16, ssc)
