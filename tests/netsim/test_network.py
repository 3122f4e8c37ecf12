"""Clos network construction and end-to-end delivery."""

import pytest

from repro.netsim.network import (
    ClosShape,
    baseline_switch_network,
    waferscale_clos_network,
)
from repro.netsim.packet import Packet


def _run(network, cycles):
    for _ in range(cycles):
        network.step()


def test_clos_shape_counts():
    shape = ClosShape(64, 16)
    assert shape.n_leaves == 8
    assert shape.n_spines == 4
    assert shape.down_per_leaf == 8
    assert shape.channels_per_pair == 2


def test_clos_shape_validation():
    with pytest.raises(ValueError):
        ClosShape(60, 16)  # not a multiple of radix
    with pytest.raises(ValueError):
        ClosShape(64, 15)  # odd radix


def test_network_router_count():
    network = waferscale_clos_network(64, 16, num_vcs=2, buffer_flits_per_port=8)
    assert len(network.routers) == 12  # 8 leaves + 4 spines
    assert network.n_terminals == 64


def test_same_leaf_delivery_single_hop():
    network = waferscale_clos_network(64, 16, num_vcs=2, buffer_flits_per_port=8)
    packet = Packet(0, 1, 2, 0, 0)  # both on leaf 0
    network.terminals[0].offer_packet(packet)
    _run(network, 100)
    assert network.terminals[1].flits_received == 2


def test_cross_leaf_delivery_via_spine():
    network = waferscale_clos_network(64, 16, num_vcs=2, buffer_flits_per_port=8)
    packet = Packet(0, 63, 2, 0, 0)  # leaf 0 -> leaf 7
    network.terminals[0].offer_packet(packet)
    _run(network, 200)
    assert network.terminals[63].flits_received == 2


def test_all_pairs_eventually_delivered():
    network = waferscale_clos_network(32, 8, num_vcs=2, buffer_flits_per_port=8)
    packets = []
    for src in range(0, 32, 5):
        dst = (src + 11) % 32
        packet = Packet(src, dst, 2, 0, src)
        packets.append(packet)
        network.terminals[src].offer_packet(packet)
    _run(network, 400)
    assert all(p.arrive_cycle > 0 for p in packets)
    assert network.in_flight_flits() == 0


def test_cross_leaf_slower_than_same_leaf():
    net1 = waferscale_clos_network(64, 16, num_vcs=2, buffer_flits_per_port=8)
    same = Packet(0, 1, 2, 0, 0)
    net1.terminals[0].offer_packet(same)
    _run(net1, 200)
    net2 = waferscale_clos_network(64, 16, num_vcs=2, buffer_flits_per_port=8)
    cross = Packet(0, 63, 2, 0, 0)
    net2.terminals[0].offer_packet(cross)
    _run(net2, 200)
    assert cross.latency_cycles > same.latency_cycles


def test_baseline_has_higher_latency_than_waferscale():
    """Section VI: box-to-box links and deeper pipelines slow the
    discrete switch network."""
    ws = waferscale_clos_network(64, 16, num_vcs=2, buffer_flits_per_port=8)
    bl = baseline_switch_network(64, 16, num_vcs=2, buffer_flits_per_port=8)
    p_ws, p_bl = Packet(0, 63, 2, 0, 0), Packet(0, 63, 2, 0, 0)
    ws.terminals[0].offer_packet(p_ws)
    bl.terminals[0].offer_packet(p_bl)
    _run(ws, 400)
    _run(bl, 400)
    assert p_bl.latency_cycles > p_ws.latency_cycles


def test_conservation_no_duplication():
    """Flits injected == flits delivered after drain (no loss, no dup)."""
    network = waferscale_clos_network(64, 16, num_vcs=4, buffer_flits_per_port=16)
    injected = 0
    for i in range(30):
        src = (i * 7) % 64
        dst = (src + 13) % 64
        network.terminals[src].offer_packet(Packet(src, dst, 3, 0, i))
        injected += 3
    _run(network, 1000)
    delivered = sum(t.flits_received for t in network.terminals)
    assert delivered == injected
    assert network.in_flight_flits() == 0
