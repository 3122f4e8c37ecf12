"""Property-based tests for the simulator (hypothesis).

The central invariant: for any workload the network delivers every
injected flit exactly once, in order, with buffers never overflowing
(overflow raises inside the router).
"""

from hypothesis import given, settings, strategies as st

from repro.netsim.network import waferscale_clos_network
from repro.netsim.packet import Packet

workloads = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=31),  # src
        st.integers(min_value=0, max_value=31),  # dst
        st.integers(min_value=1, max_value=6),  # size
        st.integers(min_value=0, max_value=50),  # creation cycle
    ),
    min_size=1,
    max_size=40,
)


@given(workloads, st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_conservation_and_completion(workload, num_vcs):
    network = waferscale_clos_network(
        32, 8, num_vcs=num_vcs, buffer_flits_per_port=4 * num_vcs
    )
    schedule = sorted(
        ((cycle, src, dst, size) for src, dst, size, cycle in workload),
        key=lambda item: item[0],
    )
    packets = []
    injected_flits = 0
    index = 0
    for _ in range(3000):
        now = network.cycle
        while index < len(schedule) and schedule[index][0] <= now:
            _, src, dst, size = schedule[index]
            index += 1
            if src == dst:
                continue
            packet = Packet(src, dst, size, now, index)
            packets.append(packet)
            network.terminals[src].offer_packet(packet)
            injected_flits += size
        network.step()
        if index == len(schedule) and network.in_flight_flits() == 0:
            break
    delivered = sum(t.flits_received for t in network.terminals)
    assert delivered == injected_flits
    assert network.in_flight_flits() == 0
    for packet in packets:
        assert packet.arrive_cycle >= packet.create_cycle


@given(
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_single_packet_latency_bounded(src, dst, size):
    if src == dst:
        dst = (dst + 1) % 32
    network = waferscale_clos_network(32, 8, num_vcs=2, buffer_flits_per_port=8)
    packet = Packet(src, dst, size, 0, 0)
    network.terminals[src].offer_packet(packet)
    for _ in range(500):
        network.step()
        if packet.arrive_cycle >= 0:
            break
    assert packet.arrive_cycle >= 0
    # An unloaded network's latency is a few pipeline depths + flits.
    assert packet.latency_cycles < 120 + size
