"""Packets and flits."""

import pytest

from repro.netsim.packet import Packet, PacketIds, flits_of


def test_packet_ids_monotone():
    ids = PacketIds()
    assert [ids.take(), ids.take(3), ids.take(), ids.next] == [0, 1, 4, 5]
    assert Packet(0, 1, 4, 0, ids.take()).packet_id == 5


def test_packet_rejects_self_send():
    with pytest.raises(ValueError):
        Packet(3, 3, 4, 0, 0)


def test_packet_rejects_empty():
    with pytest.raises(ValueError):
        Packet(0, 1, 0, 0, 0)


def test_flits_head_and_tail():
    flits = flits_of(Packet(0, 1, 4, 0, 0))
    assert len(flits) == 4
    assert flits[0].is_head and not flits[0].is_tail
    assert flits[-1].is_tail and not flits[-1].is_head
    assert not flits[1].is_head and not flits[1].is_tail


def test_single_flit_packet_is_head_and_tail():
    (flit,) = flits_of(Packet(0, 1, 1, 0, 0))
    assert flit.is_head and flit.is_tail


def test_latency_requires_arrival():
    packet = Packet(0, 1, 2, 10, 0)
    with pytest.raises(ValueError):
        _ = packet.latency_cycles
    packet.arrive_cycle = 25
    assert packet.latency_cycles == 15


def test_flit_exposes_endpoints():
    packet = Packet(3, 7, 2, 0, 0)
    flit = flits_of(packet)[0]
    assert flit.src == 3
    assert flit.dst == 7
