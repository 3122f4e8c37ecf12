"""Failure injection: the simulator must detect protocol violations
loudly rather than corrupting results silently."""

import pytest

from repro.netsim.config import RouterConfig
from repro.netsim.link import CreditChannel, Link
from repro.netsim.network import single_router_network
from repro.netsim.packet import Packet, flits_of
from repro.netsim.router import Router
from repro.netsim.terminal import Terminal


def test_invalid_route_function_detected():
    """A route function returning an out-of-range port must raise."""
    config = RouterConfig(num_vcs=2, buffer_flits_per_port=4)
    router = Router(0, 2, config, route_fn=lambda r, p, f: 99)
    link = Link(1)
    credits = CreditChannel(1)
    router.attach_input(0, credits, from_terminal=True)
    router.attach_output(1, Link(1), 0, is_terminal=True)
    flit = flits_of(Packet(0, 1, 1, 0, 0))[0]
    flit.vc = 0
    router.receive_flit(0, flit, now=0)
    with pytest.raises(AssertionError, match="invalid port"):
        for cycle in range(5):
            router.vc_allocate(cycle)


def test_unwired_output_detected():
    """Forwarding into an unwired port must raise, not drop flits."""
    config = RouterConfig(num_vcs=2, buffer_flits_per_port=4)
    router = Router(0, 2, config, route_fn=lambda r, p, f: 1)
    router.attach_input(0, CreditChannel(1), from_terminal=True)
    # Output 1 never wired; mark as terminal so VA allows it.
    router.out_is_terminal[1] = True
    flit = flits_of(Packet(0, 1, 1, 0, 0))[0]
    flit.vc = 0
    router.receive_flit(0, flit, now=0)
    with pytest.raises(AssertionError, match="not wired"):
        for cycle in range(5):
            router.vc_allocate(cycle)
            router.switch_allocate(cycle)


def test_buffer_overflow_detected():
    """Pushing flits beyond the shared pool must raise immediately."""
    config = RouterConfig(num_vcs=2, buffer_flits_per_port=2)
    router = Router(0, 2, config, route_fn=lambda r, p, f: 1)
    packet = Packet(0, 1, 4, 0, 0)
    with pytest.raises(AssertionError, match="buffer overflow"):
        for i, flit in enumerate(flits_of(packet)):
            flit.vc = 0
            router.receive_flit(0, flit, now=i)


def test_body_flit_on_idle_vc_detected():
    """Wormhole ordering violation (body before head) must raise."""
    config = RouterConfig(num_vcs=2, buffer_flits_per_port=4)
    router = Router(0, 2, config, route_fn=lambda r, p, f: 1)
    body = flits_of(Packet(0, 1, 3, 0, 0))[1]
    body.vc = 0
    with pytest.raises(AssertionError, match="body flit"):
        router.receive_flit(0, body, now=0)


def test_terminal_without_attachment_cannot_inject():
    terminal = Terminal(0, num_vcs=2)
    terminal.offer_packet(Packet(0, 1, 1, 0, 0))
    # credits default to 0 and no link attached: inject is a no-op.
    terminal.inject(now=0)
    assert terminal.flits_sent == 0


def test_network_survives_empty_cycles():
    network = single_router_network(2)
    for _ in range(50):
        network.step()
    assert network.in_flight_flits() == 0
