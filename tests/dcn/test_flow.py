"""Flow-level fidelity: determinism, conservation, stitching, caching."""

import dataclasses
import json
import os
import threading

import pytest

from repro.api import DCNQuery, QueryError, execute
from repro.dcn import flow
from repro.dcn.fabric import DCNShape
from repro.dcn.flow import (
    FlowWaferNode,
    ServiceCurve,
    calibrate_wafer,
    curves_for_shape,
)
from repro.dcn.sim import DCNConfig, run_dcn

SPINED = DCNConfig(
    shape=DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8),
    pattern="uniform",
    duration_cycles=128,
    load=0.08,
    traffic_seed=4,
)

FLOW = dataclasses.replace(SPINED, fidelity="flow")
HYBRID = dataclasses.replace(SPINED, fidelity="hybrid", cycle_wafers=(0, 5))


def _summary(result):
    summary = result.to_dict()
    summary.pop("wall_seconds", None)
    return summary


# ---------------------------------------------------------------- determinism


def test_flow_run_is_deterministic():
    first = run_dcn(FLOW)
    second = run_dcn(FLOW)
    assert first.packets_delivered > 0
    assert _summary(first) == _summary(second)


def test_hybrid_run_is_deterministic():
    first = run_dcn(HYBRID)
    second = run_dcn(HYBRID)
    assert _summary(first) == _summary(second)


def test_fidelities_differ_but_seeds_do_not():
    cycle = run_dcn(SPINED)
    flow = run_dcn(FLOW)
    # Same offered traffic (shared generators), different service model.
    assert cycle.flits_offered == flow.flits_offered
    assert cycle.latencies != flow.latencies


# -------------------------------------------------------------- conservation


@pytest.mark.parametrize("config", [FLOW, HYBRID], ids=["flow", "hybrid"])
def test_untruncated_runs_conserve_flits(config):
    result = run_dcn(config)
    assert not result.truncated
    inflight = sum(c["inflight"] for c in result.per_wafer)
    assert result.flits_offered == result.flits_delivered + inflight
    assert inflight == 0
    assert result.packets_delivered == result.packets_created


def test_hybrid_counts_cycle_wafers():
    result = run_dcn(HYBRID)
    assert result.fidelity == "hybrid"
    assert result.cycle_accurate_wafers == 2
    flow_only = run_dcn(FLOW)
    assert flow_only.cycle_accurate_wafers == 0
    cycle = run_dcn(SPINED)
    assert cycle.cycle_accurate_wafers == cycle.n_wafers


# --------------------------------------------------------------- error gate


def test_flow_throughput_tracks_cycle_within_gate():
    cycle = run_dcn(SPINED)
    flow = run_dcn(FLOW)
    reference = cycle.flits_delivered / cycle.makespan
    probe = flow.flits_delivered / flow.makespan
    assert abs(probe - reference) / reference <= 0.10


# ---------------------------------------------------------------- stitching


def test_flow_conserves_under_any_epoch_length():
    # Unlike the cycle-accurate engine, flow fidelity estimates
    # utilization per epoch batch, so per-packet latencies may shift
    # with the epoch length — but offered traffic, conservation, and
    # within-lookahead determinism must all hold.
    reference = run_dcn(FLOW)
    for lookahead in (7, 20):
        probe = run_dcn(dataclasses.replace(FLOW, lookahead=lookahead))
        assert probe.epochs > reference.epochs
        assert probe.flits_offered == reference.flits_offered
        assert probe.flits_delivered == probe.flits_offered
        assert not probe.truncated


# -------------------------------------------------------------- node contract


def test_flow_node_interface_mirrors_partition():
    curve = ServiceCurve(
        wafer_terminals=8,
        ssc_radix=8,
        loads=(0.0, 0.5),
        latencies=(10.0, 20.0),
        capacity_flits_per_cycle=4.0,
    )
    node = FlowWaferNode(curve, n_terminals=8)
    node.enqueue([(0, 1, 2, 4, 7), (3, 0, 5, 2, 9)])
    terms, tags, arrives, counters = node.advance(400)
    assert list(tags) == [7, 9]
    assert list(terms) == [2, 5]
    assert all(a > 0 for a in arrives)
    assert counters["offered_flits"] == 6
    assert counters["delivered_flits"] == 6
    assert counters["inflight"] == 0
    # Delivery order is (arrival, terminal, tag)-sorted like the
    # cycle-accurate partition's harvest.
    pairs = list(zip(arrives, terms, tags))
    assert pairs == sorted(pairs)


def test_flow_node_rejects_unsorted_events():
    curve = ServiceCurve(
        wafer_terminals=4,
        ssc_radix=4,
        loads=(0.0,),
        latencies=(5.0,),
        capacity_flits_per_cycle=2.0,
    )
    node = FlowWaferNode(curve, n_terminals=4)
    node.advance(10)
    with pytest.raises(ValueError):
        node.enqueue([(5, 0, 1, 4, 1)])  # before current cycle


# -------------------------------------------------------------------- curves


def test_curve_cache_roundtrip(tmp_path):
    first = calibrate_wafer(8, 8, cache=True, cache_root=tmp_path)
    cached = calibrate_wafer(8, 8, cache=True, cache_root=tmp_path)
    assert first == cached
    files = list((tmp_path / "dcn").glob("*.json"))
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert payload["wafer_terminals"] == 8
    # A corrupt cache entry is recalibrated, not trusted.
    files[0].write_text("{not json")
    again = calibrate_wafer(8, 8, cache=True, cache_root=tmp_path)
    assert again == first


def test_concurrent_calibrations_of_one_key_all_return_a_curve(tmp_path, monkeypatch):
    """Writers racing to publish the same curve never collide.

    ``os.replace`` waits until every writer has written its temp file,
    so all of them publish over each other at once.
    """
    writers = 4
    barrier = threading.Barrier(writers)
    real_replace = os.replace

    def replace(src, dst):
        barrier.wait(timeout=60)
        real_replace(src, dst)

    def probe(network, load, cycles, seed, size_flits, engine):
        return {"mean_latency": 10.0 + load, "delivered_flits_per_cycle": 3.0}

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(flow, "calibration_probe", probe)
    monkeypatch.setattr(flow, "waferscale_clos_network", lambda *a, **k: None)
    curves, errors = [], []

    def calibrate():
        try:
            curves.append(calibrate_wafer(8, 8, cache=True, cache_root=tmp_path))
        except Exception as exc:  # a worker thread cannot fail the test itself
            errors.append(exc)

    threads = [threading.Thread(target=calibrate) for _ in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(curves) == writers and all(c == curves[0] for c in curves)
    # Every temp file was published; only the entry is left behind.
    assert [p.name for p in (tmp_path / "dcn").iterdir()] == [
        f"{flow._curve_cache_key(8, 8, 4, 16, 4)}.json"
    ]


def test_curve_latency_is_clamped_and_congestion_sensitive():
    curves = curves_for_shape(SPINED.shape)
    curve = curves["leaf"]
    # Probe samples are empirical (light loads can jitter), but the
    # congestion trend and the clamps are structural.
    assert all(curve.latency_at(u) > 0 for u in (0.0, 0.1, 0.3, 0.9))
    assert curve.latency_at(0.9) > curve.latency_at(0.0)
    assert curve.latency_at(-1.0) == curve.latency_at(0.0)
    assert curve.latency_at(99.0) == curve.latency_at(1.0)
    assert curve.capacity_flits_per_cycle > 0
    assert curves["spine"] is curves["leaf"]  # equal radix: shared fit


# ----------------------------------------------------------------------- api


def test_api_threads_fidelity():
    result = execute(
        DCNQuery(
            hosts=32,
            wafer_radix=16,
            ssc_radix=8,
            duration_cycles=64,
            load=0.05,
            fidelity="hybrid",
            cycle_wafers=(0,),
        )
    )["result"]
    assert result["fidelity"] == "hybrid"
    assert result["cycle_accurate_wafers"] == 1
    assert "delivered_throughput" in result


def test_api_rejects_unknown_fidelity():
    with pytest.raises(QueryError):
        execute(DCNQuery(hosts=32, fidelity="analytic"))


def test_config_rejects_bad_hybrid_selection():
    with pytest.raises(ValueError):
        DCNConfig(shape=SPINED.shape, fidelity="flow", cycle_wafers=(0,))
    with pytest.raises(ValueError):
        DCNConfig(shape=SPINED.shape, fidelity="hybrid", cycle_wafers=(99,))
