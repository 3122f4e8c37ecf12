"""Router pipeline behaviour on a single router."""

import pytest

from repro.netsim.config import RouterConfig
from repro.netsim.network import single_router_network
from repro.netsim.packet import Packet


def _run(network, cycles):
    for _ in range(cycles):
        network.step()


def test_single_packet_delivery():
    network = single_router_network(4)
    packet = Packet(0, 2, 4, 0, 0)
    network.terminals[0].offer_packet(packet)
    _run(network, 60)
    assert network.terminals[2].flits_received == 4
    assert packet.arrive_cycle > 0


def test_zero_load_latency_components():
    """io + RC + per-flit pipeline + io: a 1-flit packet's floor."""
    network = single_router_network(
        4, routing_delay=1, pipeline_delay=1, io_latency=1
    )
    packet = Packet(0, 1, 1, 0, 0)
    network.terminals[0].offer_packet(packet)
    _run(network, 20)
    # inject(1) + RC(1) + SA + ST(1+1) + eject(1) ~ 5-6 cycles
    assert 4 <= packet.latency_cycles <= 8


def test_routing_delay_adds_latency():
    fast = single_router_network(4, routing_delay=1)
    slow = single_router_network(4, routing_delay=8)
    p_fast, p_slow = Packet(0, 1, 2, 0, 0), Packet(0, 1, 2, 0, 0)
    fast.terminals[0].offer_packet(p_fast)
    slow.terminals[0].offer_packet(p_slow)
    _run(fast, 40)
    _run(slow, 40)
    assert p_slow.latency_cycles == p_fast.latency_cycles + 7


def test_flits_stay_in_order():
    network = single_router_network(4)
    packet = Packet(0, 3, 6, 0, 0)
    network.terminals[0].offer_packet(packet)
    received = []
    original_receive = network.terminals[3].receive

    def spy(flit, now):
        received.append(flit.index)
        original_receive(flit, now)

    network.terminals[3].receive = spy
    _run(network, 60)
    assert received == list(range(6))


def test_two_sources_one_destination_all_delivered():
    network = single_router_network(4)
    p1, p2 = Packet(0, 2, 4, 0, 0), Packet(1, 2, 4, 0, 1)
    network.terminals[0].offer_packet(p1)
    network.terminals[1].offer_packet(p2)
    _run(network, 80)
    assert network.terminals[2].flits_received == 8
    assert p1.arrive_cycle > 0 and p2.arrive_cycle > 0


def test_no_flit_loss_under_burst():
    network = single_router_network(4, buffer_flits_per_port=8, num_vcs=2)
    total = 0
    for i in range(10):
        network.terminals[0].offer_packet(Packet(0, 1 + i % 3, 3, 0, i))
        total += 3
    _run(network, 300)
    delivered = sum(t.flits_received for t in network.terminals)
    assert delivered == total
    assert network.in_flight_flits() == 0


def test_buffer_never_overflows():
    """Credits must keep occupancy within the shared pool (else the
    router raises an AssertionError)."""
    network = single_router_network(6, buffer_flits_per_port=4, num_vcs=2)
    for i in range(20):
        network.terminals[i % 6].offer_packet(
            Packet(i % 6, (i + 1) % 6, 4, 0, i)
        )
    _run(network, 500)  # would raise on protocol violation
    assert network.in_flight_flits() == 0


def test_router_counts_forwarded_flits():
    network = single_router_network(4)
    network.terminals[0].offer_packet(Packet(0, 1, 5, 0, 0))
    _run(network, 60)
    assert network.routers[0].flits_forwarded == 5


def test_config_validation():
    with pytest.raises(ValueError):
        RouterConfig(num_vcs=0)
    with pytest.raises(ValueError):
        RouterConfig(num_vcs=8, buffer_flits_per_port=4)
    with pytest.raises(ValueError):
        RouterConfig(routing_delay=-1)
