"""Adaptive spine selection and non-uniform mapped link latencies."""

import pytest

from repro.netsim.config import RouterConfig
from repro.netsim.network import (
    clos_network,
    mapped_pair_latency_fn,
    waferscale_clos_network,
)
from repro.netsim.packet import Packet
from repro.netsim.sim import saturation_throughput
from repro.netsim.traffic import make_pattern


def _config():
    return RouterConfig(num_vcs=4, buffer_flits_per_port=16)


def test_adaptive_network_delivers():
    network = clos_network(
        "adaptive", 64, 16, _config(), 1, 2, spine_selection="adaptive"
    )
    packet = Packet(0, 63, 4, 0, 0)
    network.terminals[0].offer_packet(packet)
    for _ in range(300):
        network.step()
    assert packet.arrive_cycle > 0


def test_invalid_spine_selection_rejected():
    with pytest.raises(ValueError):
        clos_network("bad", 64, 16, _config(), 1, 2, spine_selection="magic")


def test_adaptive_at_least_as_good_on_hotspot():
    """Credit-based adaptivity should not lose to oblivious hashing
    under skewed traffic."""

    def build(selection):
        return lambda: clos_network(
            selection, 64, 16, _config(), 1, 2, spine_selection=selection
        )

    adaptive = saturation_throughput(
        build("adaptive"),
        lambda n: make_pattern("hotspot", n),
        warmup_cycles=200,
        measure_cycles=600,
    )
    oblivious = saturation_throughput(
        build("hash"),
        lambda n: make_pattern("hotspot", n),
        warmup_cycles=200,
        measure_cycles=600,
    )
    assert adaptive >= 0.8 * oblivious


def test_mapped_pair_latencies_from_mapping():
    from repro.core.design import cached_mapping
    from repro.mapping.routing import IOStyle
    from repro.topology.clos import folded_clos

    topology = folded_clos(1024)
    mapping = cached_mapping(topology, IOStyle.PERIPHERY)
    pair_fn = mapped_pair_latency_fn(mapping)
    shape_leaves = len(topology.leaves())
    shape_spines = len(topology.spines())
    latencies = [
        pair_fn(leaf, spine)
        for leaf in range(shape_leaves)
        for spine in range(shape_spines)
    ]
    assert all(lat >= 1 for lat in latencies)
    assert max(latencies) > min(latencies)  # genuinely non-uniform


def test_nonuniform_latency_does_not_hurt_throughput():
    """Section IV: mapping-induced non-uniform latencies do not affect
    the switch's performance (input buffers absorb them)."""
    def uniform_factory():
        return waferscale_clos_network(
            64, 16, num_vcs=4, buffer_flits_per_port=16, link_latency=2
        )

    def nonuniform_factory():
        # Alternate 1- and 3-cycle links around the same 2-cycle mean.
        return clos_network(
            "nonuniform",
            64,
            16,
            RouterConfig(
                num_vcs=4,
                buffer_flits_per_port=16,
                routing_delay=1,
                pipeline_delay=11,
            ),
            inter_switch_latency=2,
            io_latency=8,
            ingress_routing_delay=2,
            pair_latency_fn=lambda leaf, spine: 1 + 2 * ((leaf + spine) % 2),
        )

    uniform = saturation_throughput(
        uniform_factory,
        lambda n: make_pattern("uniform", n),
        warmup_cycles=300,
        measure_cycles=700,
    )
    nonuniform = saturation_throughput(
        nonuniform_factory,
        lambda n: make_pattern("uniform", n),
        warmup_cycles=300,
        measure_cycles=700,
    )
    assert nonuniform == pytest.approx(uniform, rel=0.15)


def test_new_traffic_patterns():
    import random

    from repro.netsim.traffic import make_pattern

    rng = random.Random(0)
    tornado = make_pattern("tornado", 16)
    assert tornado.destination(3, rng) == 11
    reverse = make_pattern("bit-reverse", 16)
    assert reverse.destination(1, rng) == 8  # 0b0001 -> 0b1000
    assert reverse.destination(6, rng) == 6 or reverse.destination(6, rng) == 7
