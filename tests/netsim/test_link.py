"""Links and credit channels."""

import pytest

from repro.netsim.link import CreditChannel, Link
from repro.netsim.packet import Packet, flits_of


def _flit():
    return flits_of(Packet(0, 1, 1, 0, 0))[0]


def test_link_delivers_after_latency():
    link = Link(3)
    flit = _flit()
    link.send(flit, now=0)
    assert link.deliver(1) == []
    assert link.deliver(2) == []
    assert link.deliver(3) == [flit]


def test_link_preserves_order():
    link = Link(2)
    f1, f2 = _flit(), _flit()
    link.send(f1, now=0)
    link.send(f2, now=1)
    assert link.deliver(2) == [f1]
    assert link.deliver(3) == [f2]


def test_link_extra_delay():
    link = Link(1)
    flit = _flit()
    link.send(flit, now=0, extra_delay=4)
    assert link.deliver(4) == []
    assert link.deliver(5) == [flit]


def test_link_occupancy():
    link = Link(5)
    link.send(_flit(), now=0)
    link.send(_flit(), now=0)
    assert link.occupancy == 2
    link.deliver(5)
    assert link.occupancy == 0


def test_link_rejects_zero_latency():
    with pytest.raises(ValueError):
        Link(0)


def test_credit_channel_sums():
    channel = CreditChannel(2)
    channel.send(1, now=0)
    channel.send(3, now=0)
    assert channel.deliver(1) == 0
    assert channel.deliver(2) == 4
    assert channel.deliver(3) == 0
