"""Direct mesh network of SSC routers (Section VII)."""

import pytest

from repro.netsim.config import RouterConfig
from repro.netsim.mesh_network import mesh_network
from repro.netsim.network import waferscale_clos_network
from repro.netsim.packet import Packet
from repro.netsim.sim import saturation_throughput
from repro.netsim.traffic import make_pattern


def _run(network, cycles):
    for _ in range(cycles):
        network.step()


def test_mesh_structure():
    network = mesh_network(3, 3, terminals_per_router=2)
    assert len(network.routers) == 9
    assert network.n_terminals == 18


def test_mesh_local_delivery():
    network = mesh_network(3, 3, terminals_per_router=2)
    packet = Packet(0, 1, 2, 0, 0)  # both on router (0,0)
    network.terminals[0].offer_packet(packet)
    _run(network, 100)
    assert network.terminals[1].flits_received == 2


def test_mesh_corner_to_corner():
    network = mesh_network(3, 3, terminals_per_router=2)
    packet = Packet(0, 17, 2, 0, 0)  # (0,0) -> (2,2)
    network.terminals[0].offer_packet(packet)
    _run(network, 300)
    assert packet.arrive_cycle > 0


def test_mesh_conservation():
    network = mesh_network(3, 3, terminals_per_router=2)
    injected = 0
    for i in range(15):
        src = (i * 5) % 18
        dst = (src + 7) % 18
        network.terminals[src].offer_packet(Packet(src, dst, 3, 0, i))
        injected += 3
    _run(network, 800)
    assert sum(t.flits_received for t in network.terminals) == injected
    assert network.in_flight_flits() == 0


def test_mesh_latency_grows_with_distance():
    near_net = mesh_network(4, 4, terminals_per_router=1)
    near = Packet(0, 1, 2, 0, 0)  # one hop east
    near_net.terminals[0].offer_packet(near)
    _run(near_net, 200)
    far_net = mesh_network(4, 4, terminals_per_router=1)
    far = Packet(0, 15, 2, 0, 0)  # six hops
    far_net.terminals[0].offer_packet(far)
    _run(far_net, 200)
    assert far.latency_cycles > near.latency_cycles


def test_mesh_validation():
    with pytest.raises(ValueError):
        mesh_network(1, 3, terminals_per_router=2)
    with pytest.raises(ValueError):
        mesh_network(3, 3, terminals_per_router=0)


def test_clos_saturates_higher_than_mesh():
    """Section VII: the mesh switch is blocking with poor bisection;
    the Clos-based waferscale switch sustains more uniform traffic."""
    def mesh_factory():
        return mesh_network(
            4, 4, terminals_per_router=4, neighbor_channels=2,
            config=RouterConfig(num_vcs=4, buffer_flits_per_port=16),
        )

    def clos_factory():
        return waferscale_clos_network(
            64, 16, num_vcs=4, buffer_flits_per_port=16,
            ssc_pipeline_delay=1, ingress_routing_delay=None,
        )

    mesh_sat = saturation_throughput(
        mesh_factory,
        lambda n: make_pattern("uniform", n),
        warmup_cycles=300,
        measure_cycles=700,
    )
    clos_sat = saturation_throughput(
        clos_factory,
        lambda n: make_pattern("uniform", n),
        warmup_cycles=300,
        measure_cycles=700,
    )
    assert clos_sat > mesh_sat
