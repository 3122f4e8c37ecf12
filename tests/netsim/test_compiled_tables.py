"""The spec -> tables memo: direct tables, shared read-only, lazy graph.

A library builder hands its network a frozen spec, and
:func:`repro.netsim.fast_core.compile_spec` builds the kernel's tables
straight from it, once per spec per process. These tests hold the
direct tables to the object-graph compile in ``compile_reference.py``
for every shape family, check the memo cannot be written through or
leak one run's state into the next, and pin the rule that a network
whose graph was touched before its run goes to the scalar oracle.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from tests.netsim.compile_reference import compile_graph
from tests.netsim.golden_scenarios import (
    FAILURE_SCENARIOS,
    SCENARIOS,
    TRACE_SCENARIOS,
    _small_mesh,
    run_failure_scenario,
    run_scenario,
)
from tests.netsim.test_differential import WIDE_SPECS, _build

from repro import ckernel
from repro.dcn.fabric import DCNFabric, DCNShape
from repro.netsim import fast_core
from repro.netsim.config import SimConfig
from repro.netsim.sim import run_sim
from repro.netsim.telemetry import Telemetry

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: One network per differential-harness shape family.
FAMILY_SPECS = {
    "mesh": {"kind": "mesh", "rows": 3, "cols": 2, "tpr": 2, "nc": 2,
             "V": 2, "buf": 8, "io": 3},
    "clos_hash": {"kind": "clos", "n": 32, "k": 8, "V": 4, "buf": 16,
                  "io": 2},
    "clos_adaptive": {"kind": "clos_adaptive", "n": 16, "k": 8, "V": 1,
                      "buf": 8, "io": 1},
    "clos_mapped": {"kind": "clos_mapped", "n": 32, "k": 8, "V": 2,
                    "buf": 8, "io": 2, "mod": 3},
    "single": {"kind": "single", "n": 6, "V": 2, "buf": 8, "io": 2},
    **WIDE_SPECS,
}


def _dcn_wafer(wafer):
    shape = DCNShape(
        n_hosts=32, wafer_radix=16, ssc_radix=8, spine_ssc_radix=16
    )
    return DCNFabric(shape).build_wafer(wafer)


#: label -> network factory: every golden scenario's network, every
#: family above, and a DCN leaf and spine wafer.
FACTORIES = {
    **{f"golden:{name}": SCENARIOS[name][0] for name in SCENARIOS},
    **{f"trace:{name}": TRACE_SCENARIOS[name][0] for name in TRACE_SCENARIOS},
    **{f"family:{name}": (lambda spec=spec: _build(spec))
       for name, spec in FAMILY_SPECS.items()},
    "dcn:leaf": lambda: _dcn_wafer(0),
    "dcn:spine": lambda: _dcn_wafer(4),
}


@pytest.mark.parametrize("label", sorted(FACTORIES))
def test_direct_tables_equal_the_graph_compile(label):
    factory = FACTORIES[label]
    network = factory()
    direct = fast_core.compile_spec(network.spec).tables
    assert not network.graph_built
    reference = compile_graph(factory())
    assert sorted(direct) == sorted(reference)
    for name, array in reference.items():
        assert direct[name].dtype == array.dtype, name
        np.testing.assert_array_equal(direct[name], array, err_msg=name)


def test_memoized_tables_are_read_only():
    tables = fast_core.compile_spec(_small_mesh().spec).tables
    with pytest.raises(ValueError, match="read-only"):
        tables["ocred"][0] = 1
    with pytest.raises(TypeError):
        tables["ocred"] = np.zeros(1)


def test_one_compile_per_spec():
    first, second = _small_mesh(), _small_mesh()
    assert first.spec == second.spec and first is not second
    assert fast_core.compile_spec(first.spec) is fast_core.compile_spec(
        second.spec
    )


def _golden(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("name", ["mesh_high", "clos_adaptive_high"])
def test_repeat_runs_of_one_spec_match_fresh_networks(name):
    """A memo hit runs exactly like a cold compile, on either engine:
    a run's credits and pointers never leak into the shared tables."""
    fast_core.compile_spec.cache_clear()
    golden = _golden(name)
    assert run_scenario(name, "c") == golden
    hits = fast_core.compile_spec.cache_info().hits
    assert run_scenario(name, "c") == golden
    assert run_scenario(name, "scalar") == golden
    if ckernel.load_kernel() is not None:
        assert fast_core.compile_spec.cache_info().hits == hits + 1
    network = SCENARIOS[name][0]()
    reference = compile_graph(SCENARIOS[name][0]())
    for table, array in fast_core.compile_spec(network.spec).tables.items():
        np.testing.assert_array_equal(array, reference[table], err_msg=table)


_CONFIG = SimConfig(warmup_cycles=20, measure_cycles=80, drain_cycles=200, seed=4)


def test_kernel_runs_never_build_the_graph():
    """Name, size, clock and spec read off the spec; a kernel run,
    telemetry included, leaves the graph unbuilt."""
    if ckernel.load_kernel() is None:
        pytest.skip("no C kernel on this host")
    network = _small_mesh()
    assert (network.name, network.n_terminals, network.cycle) == (
        "mesh-4x4", 32, 0
    )
    telemetry = Telemetry(sample_interval=8)
    run_sim(network, "uniform", 0.2, config=_CONFIG, telemetry=telemetry)
    assert network.cycle > 0
    assert not network.graph_built
    report = telemetry.to_dict()
    assert report["network"]["n_routers"] == 16
    assert report["network"]["ports_per_router"] == [10] * 16


def test_a_touched_graph_runs_on_the_oracle():
    """Touching ``routers``/``terminals``/``links`` builds the graph,
    which may then be edited: ``engine_for`` declines and the run goes
    to the oracle, which counts into the objects."""
    for touch in ("routers", "terminals", "links"):
        network = _small_mesh()
        getattr(network, touch)
        assert network.graph_built
        assert fast_core.engine_for(network, engine="c") is None
        stats = run_sim(network, "uniform", 0.2, config=_CONFIG, engine="c")
        assert sum(t.flits_received for t in network.terminals) == sum(
            stats.final.flits_received
        ) > 0
    untouched = _small_mesh()
    expected = run_sim(untouched, "uniform", 0.2, config=_CONFIG, engine="c")
    assert stats == expected


@pytest.mark.parametrize("name", sorted(FAILURE_SCENARIOS))
def test_failure_goldens_sabotage_the_kernel(name, monkeypatch):
    """The kernel leg of a failure golden trips inside the kernel."""
    if ckernel.load_kernel() is None:
        pytest.skip("no C kernel on this host")
    calls = []
    run = fast_core.FastEngine._c_run

    def spy(self, limit, drain=False):
        calls.append(limit)
        return run(self, limit, drain)

    monkeypatch.setattr(fast_core.FastEngine, "_c_run", spy)
    assert run_failure_scenario(name, "c") == _golden(name)
    assert calls
