"""Direct 2-D mesh network of SSC routers (Section VII's mesh switch).

The mesh maps natively onto the wafer (every logical link is a physical
neighbor link), but as a switch fabric it is blocking with poor
bisection bandwidth — this builder lets the simulator quantify that
against the Clos-based waferscale switch.

Routing is dimension-ordered (XY), which is deadlock-free on a mesh
with wormhole flow control. Terminals are distributed evenly across
routers; each router dedicates ``k - 4*w`` ports to local terminals
and ``w`` channels per neighbor direction, mirroring
:func:`repro.topology.mesh.direct_mesh`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.netsim.config import RouterConfig
from repro.netsim.network import NetworkModel, _check_latency, _Spec
from repro.netsim.packet import Flit
from repro.netsim.router import Router


# Neighbor directions: ports ``terminals_per_router + direction *
# neighbor_channels + channel`` (locals first, then N/E/S/W groups).
NORTH, EAST, SOUTH, WEST = range(4)


@dataclass(frozen=True)
class MeshSpec(_Spec):
    """A rows x cols mesh as :func:`mesh_network` wires it."""

    rows: int
    cols: int
    terminals_per_router: int
    neighbor_channels: int
    config: RouterConfig
    link_latency: int
    io_latency: int

    kind = "mesh"

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ValueError("mesh needs rows, cols >= 2")
        if self.terminals_per_router < 1 or self.neighbor_channels < 1:
            raise ValueError("need >= 1 terminal and >= 1 neighbor channel")
        _check_latency(self.link_latency, "link")
        _check_latency(self.io_latency, "I/O")

    @property
    def n_routers(self) -> int:
        return self.rows * self.cols

    @property
    def n_ports(self) -> int:
        return self.terminals_per_router + 4 * self.neighbor_channels

    @property
    def n_terminals(self) -> int:
        return self.n_routers * self.terminals_per_router

    def _route(self):
        cols = self.cols
        terminals_per_router = self.terminals_per_router
        neighbor_channels = self.neighbor_channels
        n_routers = self.n_routers
        # XY routing is deterministic per (router, destination) up to
        # the packet-id channel spread: cache the decision per router as
        # ``dst -> local port`` (>= 0) or ``dst -> -(direction start) -
        # 1`` for remote hops, filled lazily so large meshes pay only
        # for the destinations they actually see.
        route_tables: Tuple[dict, ...] = tuple({} for _ in range(n_routers))

        def route(router: Router, in_port: int, flit: Flit) -> int:
            dst = flit.dst
            table = route_tables[router.router_id]
            entry = table.get(dst)
            if entry is None:
                dst_router, dst_local = divmod(dst, terminals_per_router)
                my_r, my_c = divmod(router.router_id, cols)
                dst_r, dst_c = divmod(dst_router, cols)
                if (my_r, my_c) == (dst_r, dst_c):
                    entry = dst_local
                else:
                    if my_c != dst_c:  # X first
                        direction = EAST if dst_c > my_c else WEST
                    else:
                        direction = SOUTH if dst_r > my_r else NORTH
                    start = terminals_per_router + direction * neighbor_channels
                    entry = -start - 1
                table[dst] = entry
            if entry >= 0:
                return entry
            return -entry - 1 + flit.packet.packet_id % neighbor_channels

        return route

    def _ports(self, peer, terminal, latency) -> None:
        P = self.n_ports
        local = self.terminals_per_router
        nc = self.neighbor_channels
        hosts = (
            np.arange(self.n_routers)[:, None] * P + np.arange(local)
        ).ravel()
        terminal[hosts] = np.arange(self.n_terminals)
        latency[hosts] = self.io_latency
        ends = []
        # East-west pairs, then north-south pairs (both directions).
        for (dr, dc), out, back in (
            ((0, 1), EAST, WEST), ((1, 0), SOUTH, NORTH)
        ):
            r, c, channel = np.indices(
                (self.rows - dr, self.cols - dc, nc)
            ).reshape(3, -1)
            near = r * self.cols + c
            far = near + dr * self.cols + dc
            ends.append((
                near * P + local + out * nc + channel,
                far * P + local + back * nc + channel,
            ))
        a, b = (np.concatenate(side) for side in zip(*ends))
        peer[a], peer[b] = b, a
        latency[a] = latency[b] = self.link_latency


def mesh_network(
    rows: int,
    cols: int,
    terminals_per_router: int,
    neighbor_channels: int = 2,
    config: RouterConfig = None,
    link_latency: int = 1,
    io_latency: int = 8,
) -> NetworkModel:
    """A rows x cols mesh of SSC routers with XY routing."""
    if config is None:
        config = RouterConfig(num_vcs=4, buffer_flits_per_port=16)
    spec = MeshSpec(
        rows, cols, terminals_per_router, neighbor_channels, config,
        link_latency, io_latency,
    )
    return NetworkModel(f"mesh-{rows}x{cols}", spec=spec)
