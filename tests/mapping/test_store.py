"""Persistent mapping store: round trips, keys, cross-process identity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mapping.exchange import optimize_mapping
from repro.mapping.grid import grid_for
from repro.mapping.routing import IOStyle
from repro.mapping.store import MappingStore, entry_key
from repro.topology.clos import folded_clos

PARAMS = {
    "restarts": 1,
    "seed": 0,
    "strategy": "mixed",
    "max_sweeps": 30,
    "engine": "fast-esc",
}


def _key(topology):
    """The store key of ``topology``'s periphery mapping under PARAMS."""
    grid = grid_for(topology.chiplet_count)
    return entry_key(topology, grid, IOStyle.PERIPHERY, PARAMS)


@pytest.fixture(scope="module")
def clos_1024():
    return folded_clos(1024)


def test_round_trip_is_bit_identical(tmp_path, clos_1024):
    store = MappingStore(tmp_path)
    grid = grid_for(clos_1024.chiplet_count)
    result = optimize_mapping(clos_1024, grid=grid, restarts=1)
    key = _key(clos_1024)
    store.store(key, result)
    loaded = store.load(key, clos_1024)
    assert loaded is not None
    assert loaded.placement.site_of == result.placement.site_of
    assert (loaded.loads.h == result.loads.h).all()
    assert (loaded.loads.v == result.loads.v).all()
    assert loaded.loads.total_channel_hops == result.loads.total_channel_hops
    assert loaded.cost() == result.cost()
    assert (loaded.sweeps, loaded.swaps_accepted) == (
        result.sweeps,
        result.swaps_accepted,
    )


def test_loads_are_fresh_objects_per_load(tmp_path, clos_1024):
    store = MappingStore(tmp_path)
    grid = grid_for(clos_1024.chiplet_count)
    result = optimize_mapping(clos_1024, grid=grid, restarts=1)
    key = _key(clos_1024)
    store.store(key, result)
    first = store.load(key, clos_1024)
    second = store.load(key, clos_1024)
    first.placement.swap_sites(0, 1)
    assert second.placement.site_of != first.placement.site_of


def test_key_distinguishes_params_and_topology(clos_1024):
    grid = grid_for(clos_1024.chiplet_count)
    base = entry_key(clos_1024, grid, IOStyle.PERIPHERY, PARAMS)
    assert entry_key(clos_1024, grid, IOStyle.AREA, PARAMS) != base
    other_params = dict(PARAMS, restarts=2)
    assert entry_key(clos_1024, grid, IOStyle.PERIPHERY, other_params) != base
    other_topo = folded_clos(2048)
    other_grid = grid_for(other_topo.chiplet_count)
    assert entry_key(other_topo, other_grid, IOStyle.PERIPHERY, PARAMS) != base


def test_kernel_source_is_in_the_mapping_fingerprint():
    """The C text of the mapping kernel lives in ``repro.ckernel``; an
    edit to it must change ``mapping_source_fingerprint()`` and so miss
    every stored mapping."""
    import importlib

    from repro import ckernel
    from repro.fingerprint import transitive_modules
    from repro.parallel import PRELOAD_MODULES

    assert "map_sweep" in ckernel._C_SOURCE
    assert "repro.ckernel" in transitive_modules("repro.mapping.exchange")
    for module in PRELOAD_MODULES:
        importlib.import_module(module)


def test_clear_removes_entries(tmp_path, clos_1024):
    store = MappingStore(tmp_path)
    result = optimize_mapping(clos_1024, restarts=1)
    key = _key(clos_1024)
    store.store(key, result)
    assert store.clear() == 1
    assert store.load(key, clos_1024) is None


_SUBPROCESS_SCRIPT = """
import json, sys
from repro.core.design import cached_mapping
from repro.mapping import store as mapping_store
from repro.mapping.routing import IOStyle
from repro.topology.clos import folded_clos

result = cached_mapping(folded_clos(1024), IOStyle.PERIPHERY)
print(json.dumps({
    "site_of": result.placement.site_of,
    "cost": list(result.cost()),
    "sweeps": result.sweeps,
    "stats": mapping_store.stats_snapshot(),
}))
"""


def test_two_fresh_processes_share_one_mapping(tmp_path):
    """Second process must fetch the first's mapping bit-identically."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[2] / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(json.loads(proc.stdout))
    first, second = outputs
    assert first["site_of"] == second["site_of"]
    assert first["cost"] == second["cost"]
    assert first["sweeps"] == second["sweeps"]
    assert first["stats"]["optimized"] == 1
    assert first["stats"]["store_hits"] == 0
    assert second["stats"]["optimized"] == 0
    assert second["stats"]["store_hits"] == 1
