"""End-to-end DCN runs: epoch invariance, engine parity, conservation, API."""

import pytest

from repro.api import DCNQuery, QueryError, execute
from repro.dcn.fabric import DCNShape
from repro.dcn.failures import FailureConfig
from repro.dcn.sim import DCNConfig, run_dcn
from repro.engines import netsim_engine_tag

GOLDEN = DCNConfig(
    shape=DCNShape(
        n_hosts=16, wafer_radix=16, ssc_radix=8, back_to_back=True
    ),
    pattern="uniform",
    duration_cycles=96,
    load=0.06,
    traffic_seed=2,
)

SPINED = DCNConfig(
    shape=DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8),
    pattern="alltoall",
    duration_cycles=64,
    load=0.08,
    traffic_seed=4,
)


def _outcome(result):
    """The physical outcome a run must reproduce regardless of epoching."""
    return (
        result.latencies,
        result.flits_offered,
        result.flits_delivered,
        result.packets_delivered,
        result.per_wafer,
    )


def test_lookahead_sweep_is_outcome_invariant():
    import dataclasses

    reference = run_dcn(GOLDEN)
    for lookahead in (5, 13, 40):
        probe = run_dcn(dataclasses.replace(GOLDEN, lookahead=lookahead))
        assert probe.epoch_cycles == lookahead
        assert _outcome(probe) == _outcome(reference)
    # More barriers for the same simulated span.
    assert (
        run_dcn(dataclasses.replace(GOLDEN, lookahead=5)).epochs
        > reference.epochs
    )


def test_scalar_engine_reproduces_fast_outcome():
    import dataclasses

    fast = run_dcn(GOLDEN)
    scalar = run_dcn(dataclasses.replace(GOLDEN, engine="scalar"))
    assert scalar.engine == "scalar"
    if netsim_engine_tag() == "c":  # kernel built
        assert fast.engine == "c"
    assert _outcome(scalar) == _outcome(fast)


def test_spined_run_conserves_flits_and_drains():
    result = run_dcn(SPINED)
    assert result.n_wafers == 6
    assert not result.truncated
    assert result.packets_delivered == result.packets_routed > 0
    assert result.flits_delivered == result.flits_offered
    assert all(c["inflight"] == 0 for c in result.per_wafer)


def test_failed_link_run_conserves_flits():
    import dataclasses

    config = dataclasses.replace(
        SPINED,
        failures=FailureConfig(
            seed=11, ssc_area_mm2=400.0, link_failure_prob=0.2
        ),
    )
    result = run_dcn(config)
    assert result.dead_sscs + result.dead_links > 0
    assert not result.truncated
    # Unroutable packets are dropped at the plan stage; everything that
    # entered a wafer must come out.
    assert result.flits_delivered == result.flits_offered
    assert result.packets_delivered == result.packets_routed
    # Same failure seed, same run, bit for bit.
    again = run_dcn(config)
    assert again.parity_signature() == result.parity_signature()


def test_wall_seconds_covers_planning(monkeypatch):
    import time

    from repro.dcn import sim

    plan_init = sim._Plan.__init__

    def slow_plan(self, config):
        time.sleep(0.3)
        plan_init(self, config)

    monkeypatch.setattr(sim._Plan, "__init__", slow_plan)
    assert run_dcn(GOLDEN).wall_seconds >= 0.3


def test_bad_lookahead_rejected():
    import dataclasses

    limit = GOLDEN.shape.inter_wafer_latency
    for lookahead in (-1, limit + 1):
        with pytest.raises(
            ValueError,
            match=rf"lookahead must be in \[0, inter_wafer_latency\].*"
            rf"\(got {lookahead}, max {limit}\)",
        ):
            dataclasses.replace(GOLDEN, lookahead=lookahead)


def test_dcn_query_roundtrip():
    query = DCNQuery(
        hosts=16,
        wafer_radix=16,
        back_to_back=True,
        duration_cycles=48,
        load=0.06,
        seed=2,
    )
    result = execute(query)["result"]
    assert result["n_wafers"] == 2
    assert result["packets_delivered"] > 0
    assert result["latency"]["count"] == result["packets_delivered"]


def test_dcn_query_failure_injection():
    query = DCNQuery(
        hosts=32,
        duration_cycles=32,
        failure_seed=7,
        ssc_area_mm2=400.0,
        link_failure_prob=0.2,
    )
    result = execute(query)["result"]
    assert result["dead_sscs"] + result["dead_links"] > 0


def test_dcn_query_validation():
    with pytest.raises(QueryError):
        execute(DCNQuery(pattern="bogus"))
    # "auto" and "serial" both name the one in-process path.
    for executor in ("threads", "pool"):
        with pytest.raises(QueryError):
            execute(DCNQuery(executor=executor))
        with pytest.raises(ValueError):
            run_dcn(GOLDEN, executor=executor)
    with pytest.raises(QueryError):
        execute(DCNQuery(hosts=24))  # not a wafer_radix multiple
