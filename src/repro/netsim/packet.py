"""Packets and flits."""

from __future__ import annotations


class PacketIds:
    """Packet numbering owned by a run (ids feed Clos spine selection)."""

    __slots__ = ("next",)

    def __init__(self) -> None:
        self.next = 0

    def take(self, n: int = 1) -> int:
        """Hand out ``n`` consecutive ids; return the first."""
        base = self.next
        self.next = base + n
        return base


class Packet:
    """A multi-flit packet travelling terminal to terminal."""

    __slots__ = (
        "packet_id",
        "src",
        "dst",
        "size_flits",
        "create_cycle",
        "inject_cycle",
        "arrive_cycle",
    )

    def __init__(
        self, src: int, dst: int, size_flits: int, create_cycle: int,
        packet_id: int,
    ):
        if size_flits < 1:
            raise ValueError("packet must contain at least one flit")
        if src == dst:
            raise ValueError("source and destination terminals must differ")
        self.packet_id = packet_id
        self.src = src
        self.dst = dst
        self.size_flits = size_flits
        self.create_cycle = create_cycle
        self.inject_cycle = -1
        self.arrive_cycle = -1

    @property
    def latency_cycles(self) -> int:
        """Creation-to-arrival latency (includes source queueing)."""
        if self.arrive_cycle < 0:
            raise ValueError("packet has not arrived")
        return self.arrive_cycle - self.create_cycle

    def __repr__(self) -> str:
        return (
            f"Packet({self.packet_id}, {self.src}->{self.dst}, "
            f"{self.size_flits} flits)"
        )


class Flit:
    """One flow-control unit of a packet."""

    __slots__ = ("packet", "index", "is_head", "is_tail", "vc")

    def __init__(self, packet: Packet, index: int):
        self.packet = packet
        self.index = index
        self.is_head = index == 0
        self.is_tail = index == packet.size_flits - 1
        self.vc = -1  # assigned by VC allocation at each hop

    @property
    def dst(self) -> int:
        return self.packet.dst

    @property
    def src(self) -> int:
        return self.packet.src

    def __repr__(self) -> str:
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"Flit({self.packet.packet_id}.{self.index}{kind})"


def flits_of(packet: Packet):
    """All flits of a packet, head first."""
    return [Flit(packet, i) for i in range(packet.size_flits)]
