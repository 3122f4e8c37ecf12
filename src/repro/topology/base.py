"""Core logical-topology data structures.

The logical topology abstracts away physical placement: it only records
which SSC connects to which, with how many channels, and how many
external (switch-facing) ports each SSC terminates. A *channel* is one
bidirectional lane at the topology's port bandwidth (200 Gbps unless
stated otherwise); the paper's guarantee that "every logical link has at
least a bandwidth of 200Gbps" is expressed by integer channel counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.tech.chiplet import SubSwitchChiplet
from repro.units import require_positive

#: Schema tag/version for :meth:`LogicalTopology.to_dict` payloads.
TOPOLOGY_SCHEMA = "repro-topology"
TOPOLOGY_SCHEMA_VERSION = 1


class NodeRole(enum.Enum):
    """Role of an SSC within the logical topology."""

    LEAF = "leaf"  # terminates external ports (ingress/egress)
    SPINE = "spine"  # switches between leaves, no external ports
    CORE = "core"  # direct-topology node: both terminates and routes


@dataclass(frozen=True)
class SwitchNode:
    """A sub-switch chiplet instance within a logical topology."""

    index: int
    role: NodeRole
    chiplet: SubSwitchChiplet
    external_ports: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("node index must be non-negative")
        if self.external_ports < 0:
            raise ValueError("external_ports must be non-negative")
        if self.external_ports > self.chiplet.radix:
            raise ValueError(
                f"node {self.index}: external_ports ({self.external_ports}) "
                f"exceeds chiplet radix ({self.chiplet.radix})"
            )


@dataclass(frozen=True)
class LogicalLink:
    """A bundle of bidirectional channels between two SSCs."""

    a: int
    b: int
    channels: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("self-links are not allowed")
        if self.channels < 1:
            raise ValueError("a logical link must carry at least one channel")

    @property
    def endpoints(self) -> Tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class LogicalTopology:
    """An immutable logical switch topology.

    Attributes:
        name: Topology family plus parameters, for reports.
        nodes: All SSC instances, indexed 0..len-1.
        links: Channel bundles between node pairs (each unordered pair
            appears at most once).
        port_bandwidth_gbps: Line rate of one channel / external port.
    """

    name: str
    nodes: Tuple[SwitchNode, ...]
    links: Tuple[LogicalLink, ...]
    port_bandwidth_gbps: float
    #: Channels of path diversity between a representative leaf pair
    #: (Clos: number of spines; single-path topologies: 1).
    path_diversity: int = 1

    def __post_init__(self) -> None:
        require_positive("port_bandwidth_gbps", self.port_bandwidth_gbps)
        if not self.nodes:
            raise ValueError("topology must contain at least one node")
        indices = [node.index for node in self.nodes]
        if indices != list(range(len(self.nodes))):
            raise ValueError("nodes must be indexed contiguously from 0")
        seen_pairs = set()
        for link in self.links:
            if link.a >= len(self.nodes) or link.b >= len(self.nodes):
                raise ValueError(f"link {link} references unknown node")
            pair = frozenset(link.endpoints)
            if pair in seen_pairs:
                raise ValueError(f"duplicate link between {link.a} and {link.b}")
            seen_pairs.add(pair)
        self._validate_port_budgets()

    def _validate_port_budgets(self) -> None:
        """Every node's external ports + link channels must fit its radix."""
        used = self.channel_degrees()
        for node in self.nodes:
            total = node.external_ports + used.get(node.index, 0)
            if total > node.chiplet.radix:
                raise ValueError(
                    f"node {node.index} ({node.role.value}) oversubscribed: "
                    f"{node.external_ports} external + {used.get(node.index, 0)} "
                    f"link channels > radix {node.chiplet.radix}"
                )

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------

    @property
    def chiplet_count(self) -> int:
        return len(self.nodes)

    @property
    def radix(self) -> int:
        """Total external (switch-level) bidirectional port count."""
        return sum(node.external_ports for node in self.nodes)

    @property
    def total_external_bandwidth_gbps(self) -> float:
        return self.radix * self.port_bandwidth_gbps

    @property
    def total_chiplet_area_mm2(self) -> float:
        return sum(node.chiplet.area_mm2 for node in self.nodes)

    @property
    def total_channels(self) -> int:
        return sum(link.channels for link in self.links)

    def channel_degrees(self) -> Dict[int, int]:
        """Channels incident to each node (both links and feedthrough excluded)."""
        degrees: Dict[int, int] = {}
        for link in self.links:
            degrees[link.a] = degrees.get(link.a, 0) + link.channels
            degrees[link.b] = degrees.get(link.b, 0) + link.channels
        return degrees

    def leaves(self) -> List[SwitchNode]:
        return [n for n in self.nodes if n.role is NodeRole.LEAF]

    def spines(self) -> List[SwitchNode]:
        return [n for n in self.nodes if n.role is NodeRole.SPINE]

    def nodes_with_external_ports(self) -> List[SwitchNode]:
        return [n for n in self.nodes if n.external_ports > 0]

    def to_dict(self) -> Dict:
        """Versioned JSON-serializable form (see :meth:`from_dict`).

        Chiplets are deduplicated into a table (a big Clos repeats one
        SSC model hundreds of times) and each node references its row;
        the payload reconstructs without any registry lookup, so custom
        chiplets survive the round trip.
        """
        chiplets: List[SubSwitchChiplet] = []
        chiplet_row: Dict[SubSwitchChiplet, int] = {}
        node_rows = []
        for node in self.nodes:
            row = chiplet_row.get(node.chiplet)
            if row is None:
                row = chiplet_row[node.chiplet] = len(chiplets)
                chiplets.append(node.chiplet)
            node_rows.append([node.index, node.role.value, row, node.external_ports])
        return {
            "schema": TOPOLOGY_SCHEMA,
            "version": TOPOLOGY_SCHEMA_VERSION,
            "name": self.name,
            "port_bandwidth_gbps": self.port_bandwidth_gbps,
            "path_diversity": self.path_diversity,
            "chiplets": [
                {
                    "name": c.name,
                    "radix": c.radix,
                    "port_bandwidth_gbps": c.port_bandwidth_gbps,
                    "area_mm2": c.area_mm2,
                    "core_power_w": c.core_power_w,
                    "io_energy_pj_per_bit": c.io_energy_pj_per_bit,
                }
                for c in chiplets
            ],
            "nodes": node_rows,
            "links": [[l.a, l.b, l.channels] for l in self.links],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "LogicalTopology":
        """Inverse of :meth:`to_dict`; revalidates every invariant."""
        if payload.get("schema") != TOPOLOGY_SCHEMA:
            raise ValueError(f"not a {TOPOLOGY_SCHEMA} payload")
        if payload.get("version") != TOPOLOGY_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported {TOPOLOGY_SCHEMA} version "
                f"{payload.get('version')!r}"
            )
        chiplets = [SubSwitchChiplet(**row) for row in payload["chiplets"]]
        nodes = tuple(
            SwitchNode(
                index=int(index),
                role=NodeRole(role),
                chiplet=chiplets[int(row)],
                external_ports=int(external),
            )
            for index, role, row, external in payload["nodes"]
        )
        links = tuple(
            LogicalLink(int(a), int(b), int(channels))
            for a, b, channels in payload["links"]
        )
        return cls(
            name=payload["name"],
            nodes=nodes,
            links=links,
            port_bandwidth_gbps=float(payload["port_bandwidth_gbps"]),
            path_diversity=int(payload["path_diversity"]),
        )

    def adjacency(self) -> Dict[int, Dict[int, int]]:
        """Adjacency map ``{node: {neighbor: channels}}``."""
        adj: Dict[int, Dict[int, int]] = {n.index: {} for n in self.nodes}
        for link in self.links:
            adj[link.a][link.b] = link.channels
            adj[link.b][link.a] = link.channels
        return adj

    def is_connected(self) -> bool:
        """Whether the logical graph is a single connected component."""
        if len(self.nodes) == 1:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            current = stack.pop()
            for neighbor in adj[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(self.nodes)

    def bisection_channels(self) -> int:
        """Channels crossing an index-halving cut of the nodes.

        For the generated topologies (which lay out symmetric halves in
        index order) this equals or closely lower-bounds the true
        bisection; it is used for reporting, not feasibility.
        """
        half = len(self.nodes) // 2
        return sum(
            link.channels
            for link in self.links
            if (link.a < half) != (link.b < half)
        )

    def describe(self) -> str:
        """One-line summary used by experiment reports."""
        return (
            f"{self.name}: {self.radix} x {self.port_bandwidth_gbps:g}G ports, "
            f"{self.chiplet_count} chiplets, {self.total_channels} channels"
        )


def distribute_evenly(total: int, bins: int) -> List[int]:
    """Split ``total`` integer channels across ``bins`` as evenly as possible.

    The first ``total % bins`` bins receive one extra channel. Used when a
    leaf's uplinks do not divide exactly across the spines.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if total < 0:
        raise ValueError("total must be non-negative")
    base, extra = divmod(total, bins)
    return [base + (1 if i < extra else 0) for i in range(bins)]


def merge_links(raw_links: Iterable[Tuple[int, int, int]]) -> List[LogicalLink]:
    """Combine duplicate (a, b) channel contributions into single links."""
    combined: Dict[Tuple[int, int], int] = {}
    for a, b, channels in raw_links:
        if channels == 0:
            continue
        key = (min(a, b), max(a, b))
        combined[key] = combined.get(key, 0) + channels
    return [
        LogicalLink(a=a, b=b, channels=c) for (a, b), c in sorted(combined.items())
    ]


def roles_summary(topology: LogicalTopology) -> Mapping[str, int]:
    """Count of nodes per role, for reports and tests."""
    counts: Dict[str, int] = {}
    for node in topology.nodes:
        counts[node.role.value] = counts.get(node.role.value, 0) + 1
    return counts
