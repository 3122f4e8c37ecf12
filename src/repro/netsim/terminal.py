"""Traffic terminals: injection sources and ejection sinks."""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.netsim.link import CreditChannel, Link
from repro.netsim.packet import Flit, Packet, flits_of


class Terminal:
    """A host NIC attached to one switch port.

    Packets wait in an unbounded source queue; flits enter the router
    at most one per cycle, gated by the router port's shared-buffer
    credits. Packet latency is measured creation-to-tail-arrival, so
    source queueing counts (as in Booksim's packet latency).
    """

    def __init__(self, terminal_id: int, num_vcs: int):
        self.terminal_id = terminal_id
        self.num_vcs = num_vcs
        self.source_queue: Deque[Flit] = deque()
        self.inject_link: Optional[Link] = None
        self.credit_channel: Optional[CreditChannel] = None
        self.credits = 0
        self._next_vc = terminal_id % max(num_vcs, 1)
        # Statistics.
        self.packets_sent = 0
        self.flits_sent = 0
        self.flits_received = 0
        self.packets_received: List[Packet] = []
        #: Optional :class:`~repro.netsim.telemetry.Telemetry` sink;
        #: ``None`` (the default) keeps the hot paths untouched.
        self.telemetry = None

    def attach(
        self, link: Link, credit_channel: CreditChannel, initial_credits: int
    ) -> None:
        self.inject_link = link
        self.credit_channel = credit_channel
        self.credits = initial_credits

    def offer_packet(self, packet: Packet) -> None:
        """Queue a packet's flits for injection."""
        self.source_queue.extend(flits_of(packet))

    def inject(self, now: int) -> None:
        """Send at most one flit into the router this cycle.

        Credit returns are absorbed lazily here rather than polled
        every cycle: the cumulative credit count at decision time is
        identical, and it lets the network skip idle terminals
        entirely (the active-set scheduler).
        """
        queue = self.source_queue
        channel = self.credit_channel
        if channel is not None and channel._in_flight:
            self.credits += channel.deliver(now)
        if not queue:
            return
        if self.credits <= 0:
            tele = self.telemetry
            if tele is not None:
                tele.terminal_credit_stalls[self.terminal_id] += 1
            return
        flit = queue.popleft()
        if flit.is_head:
            # A whole packet rides one VC; rotate across packets.
            self._next_vc = (self._next_vc + 1) % self.num_vcs
            flit.packet.inject_cycle = now
        flit.vc = self._next_vc
        self.credits -= 1
        self.flits_sent += 1
        if flit.is_tail:
            self.packets_sent += 1
        self.inject_link.send(flit, now)

    def receive(self, flit: Flit, now: int) -> None:
        """Absorb an ejected flit; record latency on the tail."""
        self.flits_received += 1
        if flit.is_tail:
            packet = flit.packet
            packet.arrive_cycle = now
            self.packets_received.append(packet)
            tele = self.telemetry
            if tele is not None:
                tele.record_latency(packet)
