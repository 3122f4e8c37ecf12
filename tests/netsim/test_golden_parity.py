"""Golden-parity harness: the optimized hot path must be bit-identical.

The JSON fixtures under ``goldens/`` were recorded on the simulator
*before* the active-set scheduler and the inlined router hot path went
in. Every optimization since is required to be behaviour-preserving,
so a fixed (topology, pattern, load, seed) run must reproduce every
latency sample and every per-component flit count exactly. Regenerate
the fixtures only when the simulated behaviour is *meant* to change:

    PYTHONPATH=src python tests/netsim/goldens/record_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.netsim.engines import ENGINES
from tests.netsim.golden_scenarios import (
    FAILURE_SCENARIOS,
    SCENARIOS,
    TRACE_SCENARIOS,
    run_failure_scenario,
    run_scenario,
    run_trace_scenario,
)

from repro.netsim.sim import Simulator
from repro.netsim.traffic import make_pattern

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _golden(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_parity(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    result = run_scenario(name)
    # Latency samples first: a mismatch here is the clearest signal a
    # change altered arbitration or timing rather than bookkeeping.
    assert result["latencies_cycles"] == golden["latencies_cycles"], (
        f"{name}: per-packet latency samples diverged from the "
        "pre-optimization golden run"
    )
    assert result == golden


@pytest.mark.parametrize("name", ["mesh_high", "clos_high"])
def test_goldens_drained(name):
    """The fixtures themselves must come from fully-drained runs."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert golden["in_flight_after_drain"] == 0


@pytest.mark.parametrize(
    "name", ["mesh_low", "mesh_high", "clos_high", "clos_on_mesh_high"]
)
def test_flit_conservation(name):
    """Every flit offered is delivered or still somewhere in the system.

    Runs with no warmup so ``flits_offered`` counts every flit ever
    created; ``in_flight_flits`` covers source backlog, router buffers,
    and flits on the wire, so the identity holds even if the drain
    budget runs out. It is checked on every engine.
    """
    factory, pattern_name, load, seed = SCENARIOS[name]
    for engine in ENGINES.values():
        network = factory()
        pattern = make_pattern(pattern_name, network.n_terminals)
        sim = Simulator(network, pattern, load, packet_size_flits=4, seed=seed)
        stats = sim.run(
            warmup_cycles=0, measure_cycles=400, drain_cycles=600,
            engine=engine,
        )
        delivered = sum(stats.final.flits_received)
        in_flight = stats.final.in_flight_flits
        assert stats.flits_offered == delivered + in_flight, engine
        if engine != "scalar":
            # A compiled run leaves no source queues to inspect; the
            # differential harness holds its flits_sent and in-flight
            # counts equal to the oracle's.
            continue
        # Cross-check the terminal send counters against the same
        # identity: injected = delivered + in-network (in_flight minus
        # source backlog).
        injected = sum(stats.final.flits_sent)
        backlog = sum(len(t.source_queue) for t in network.terminals)
        assert injected == delivered + in_flight - backlog


@pytest.mark.parametrize("name", ["mesh_high", "clos_on_mesh_high"])
def test_same_seed_determinism(name):
    """Two clean-slate runs of one scenario are indistinguishable."""
    first = run_scenario(name)
    second = run_scenario(name)
    assert first == second


@pytest.mark.parametrize("name", sorted(TRACE_SCENARIOS))
def test_trace_golden_parity(name):
    """Synthetic mini-app replays reproduce their goldens exactly.

    ``trace_multigrid_truncated`` pins the truncation contract: when
    ``max_cycles`` cuts the schedule short, the offered counts (and the
    run's packet-id source behind them) stop at the cutoff.
    """
    golden = _golden(name)
    result = run_trace_scenario(name)
    assert result["latencies_cycles"] == golden["latencies_cycles"], (
        f"{name}: replay latency samples diverged from the golden run"
    )
    assert result == golden


@pytest.mark.parametrize("name", sorted(FAILURE_SCENARIOS))
def test_failure_golden_parity(name):
    """Sabotaged networks fail with the exact recorded error."""
    assert run_failure_scenario(name) == _golden(name)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize(
    "name", ["mesh_high", "clos_adaptive_high", "overcredited_link"]
)
def test_cross_engine_golden_parity(engine, name):
    """Every engine reproduces the goldens — including the failures.

    The full corpus x engine product lives in the slow tier
    (``test_differential.py``); this smoke slice keeps one Bernoulli
    run, one adaptive run and one protocol-violation run under all
    engines in the fast tier.
    """
    runner = run_failure_scenario if name in FAILURE_SCENARIOS else run_scenario
    assert runner(name, ENGINES[engine]) == _golden(name)


@pytest.mark.slow
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_cross_engine_full_corpus(engine):
    """Slow tier: the whole golden corpus under each engine."""
    runners = (
        (SCENARIOS, run_scenario),
        (TRACE_SCENARIOS, run_trace_scenario),
        (FAILURE_SCENARIOS, run_failure_scenario),
    )
    for scenarios, runner in runners:
        for name in scenarios:
            result = runner(name, ENGINES[engine])
            assert result == _golden(name), (engine, name)
