"""Simulation drivers: latency curves and saturation."""

import pytest

from repro.netsim.network import waferscale_clos_network
from repro.netsim.sim import (
    Simulator,
    load_latency_sweep,
    saturation_throughput,
)
from repro.netsim.traffic import make_pattern


def _small_network():
    return waferscale_clos_network(
        32, 8, num_vcs=2, buffer_flits_per_port=8, io_latency=2
    )


def test_simulator_rejects_mismatched_pattern():
    with pytest.raises(ValueError):
        Simulator(_small_network(), make_pattern("uniform", 64), 0.2)


def test_run_produces_latencies():
    sim = Simulator(_small_network(), make_pattern("uniform", 32), 0.1, seed=2)
    stats = sim.run(warmup_cycles=200, measure_cycles=400)
    assert stats.packets_delivered > 0
    assert stats.avg_latency_cycles > 0
    assert stats.avg_latency_ns == pytest.approx(stats.avg_latency_cycles * 20)


def test_accepted_tracks_offered_below_saturation():
    sim = Simulator(_small_network(), make_pattern("uniform", 32), 0.1, seed=2)
    stats = sim.run(warmup_cycles=300, measure_cycles=800)
    assert stats.accepted_load == pytest.approx(0.1, rel=0.3)


def test_latency_grows_with_load():
    results = load_latency_sweep(
        _small_network,
        lambda n: make_pattern("uniform", n),
        loads=[0.05, 0.6],
        warmup_cycles=200,
        measure_cycles=600,
    )
    assert results[1].avg_latency_cycles > results[0].avg_latency_cycles


def test_sweep_starting_past_saturation_flags_every_point():
    """Regression: a sweep that starts beyond the knee must not anchor
    its zero-load reference on the (already saturated) first point.

    Before the guard, the first non-NaN latency became the zero-load
    latency even when the network was saturated, so later points were
    compared against an inflated reference and reported unsaturated.
    """
    results = load_latency_sweep(
        _small_network,
        lambda n: make_pattern("bit-complement", n),
        loads=[0.9, 1.0],
        warmup_cycles=200,
        measure_cycles=600,
    )
    assert all(point.saturated for point in results)


def test_sweep_low_load_point_not_saturated():
    """The guard must not misfire on a healthy low-load point."""
    results = load_latency_sweep(
        _small_network,
        lambda n: make_pattern("uniform", n),
        loads=[0.05],
        warmup_cycles=200,
        measure_cycles=600,
    )
    assert not results[0].saturated


def test_saturation_throughput_below_unity():
    throughput = saturation_throughput(
        _small_network,
        lambda n: make_pattern("uniform", n),
        warmup_cycles=200,
        measure_cycles=600,
    )
    assert 0.1 < throughput < 1.0


def test_neighbor_traffic_saturates_higher_than_bitcomp():
    """Local traffic avoids the spine; adversarial traffic does not."""
    neighbor = saturation_throughput(
        _small_network,
        lambda n: make_pattern("neighbor", n),
        warmup_cycles=200,
        measure_cycles=600,
    )
    bitcomp = saturation_throughput(
        _small_network,
        lambda n: make_pattern("bit-complement", n),
        warmup_cycles=200,
        measure_cycles=600,
    )
    assert neighbor >= bitcomp


def test_p99_at_least_average():
    sim = Simulator(_small_network(), make_pattern("uniform", 32), 0.2, seed=3)
    stats = sim.run(warmup_cycles=200, measure_cycles=500)
    assert stats.p99_latency_cycles >= stats.avg_latency_cycles


# ----------------------------------------------------------------------
# Measurement windowing (the explicit warmup/measure/drain contract)
# ----------------------------------------------------------------------

class _FakePacket:
    def __init__(self, create_cycle, arrive_cycle):
        self.create_cycle = create_cycle
        self.arrive_cycle = arrive_cycle


def test_record_arrival_excludes_warmup_and_drain_creations():
    """The latency window covers creation, not delivery, time.

    Regression guard for the windowing filter: a warmup-created packet
    delivered inside (or after) the measurement window must never leak
    into the measured average, even when the drain runs long; a
    measurement-created packet delivered deep in the drain must count.
    """
    from repro.netsim.stats import RunStats

    stats = RunStats(measure_start=100, measure_end=200)
    assert not stats.record_arrival(_FakePacket(50, 150))    # warmup-created
    assert not stats.record_arrival(_FakePacket(99, 4000))   # warmup, late
    assert stats.record_arrival(_FakePacket(100, 101))       # first window cycle
    assert stats.record_arrival(_FakePacket(199, 5000))      # drains very late
    assert not stats.record_arrival(_FakePacket(200, 260))   # drain-created
    assert stats.latencies_cycles == [1, 4801]
    assert stats.packets_delivered == 2


def test_run_latencies_only_cover_measurement_creations():
    """End to end: every measured latency maps to an in-window packet.

    It inspects delivered ``Packet`` objects, which only the scalar
    engine builds; the differential harness holds the compiled
    engine's latency lists equal to the oracle's.
    """
    network = _small_network()
    sim = Simulator(network, make_pattern("uniform", 32), 0.4, seed=9)
    stats = sim.run(
        warmup_cycles=150, measure_cycles=300, drain_cycles=2000,
        engine="scalar",
    )
    in_window = sorted(
        packet.latency_cycles
        for terminal in network.terminals
        for packet in terminal.packets_received
        if stats.measure_start <= packet.create_cycle < stats.measure_end
    )
    warmup_delivered = sum(
        1
        for terminal in network.terminals
        for packet in terminal.packets_received
        if packet.create_cycle < stats.measure_start
    )
    assert warmup_delivered > 0  # the exclusion below is non-vacuous
    assert sorted(stats.latencies_cycles) == in_window
    assert stats.packets_created >= stats.packets_delivered


def test_packets_outstanding_reports_censoring():
    """drain_cycles=0 cuts off in-flight measurement packets."""
    sim = Simulator(_small_network(), make_pattern("uniform", 32), 0.5, seed=4)
    stats = sim.run(warmup_cycles=150, measure_cycles=300, drain_cycles=0)
    assert stats.packets_outstanding > 0
    assert (
        stats.packets_created
        == stats.packets_delivered + stats.packets_outstanding
    )


def test_generous_drain_leaves_nothing_outstanding():
    sim = Simulator(_small_network(), make_pattern("uniform", 32), 0.1, seed=4)
    stats = sim.run(warmup_cycles=100, measure_cycles=200, drain_cycles=5000)
    assert stats.packets_outstanding == 0
