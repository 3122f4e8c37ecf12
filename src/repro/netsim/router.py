"""Input-queued virtual-channel router with the paper's 4-stage pipeline.

Stages (Fig 20):

* **RC** — route computation: a head flit reaching the front of its
  input VC spends ``routing_delay`` cycles computing its output port
  (ingress SSCs and transit SSCs may have different delays — the
  proprietary-routing optimization of Section VI).
* **VA** — virtual-channel allocation: the packet claims a free VC at
  its output port (round-robin among free VCs).
* **SA** — switch allocation: each output port grants one flit per
  cycle among the ACTIVE input VCs requesting it (round-robin), subject
  to downstream credit availability and one grant per input port per
  cycle.
* **ST** — switch traversal: the winning flit crosses the router in
  ``pipeline_delay`` cycles and enters the output link.

Flow control is credit-based over a per-port shared buffer pool (the
paper's shared buffer policy): the upstream node may only send while
the downstream port's pool has free slots; a credit returns (with link
latency) whenever a flit leaves the pool.

Hot-path notes: the per-cycle driver only calls ``vc_allocate`` /
``switch_allocate`` when the router has work (``rc_pending`` /
``active_out_ports`` non-empty — the active-set scheduler), both
arbitration loops are inlined over the actual candidates instead of
scanning the full index space, and the router caches its config
scalars to avoid dataclass attribute lookups per cycle. Each stage has
one loop: telemetry counters sit behind ``if tele is not None`` on a
local loaded once per call, so a run without a sink pays those checks
and no calls.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Set, Tuple

from repro.netsim.arbiter import RoundRobinArbiter
from repro.netsim.config import RouterConfig
from repro.netsim.link import CreditChannel, Link
from repro.netsim.packet import Flit

# Input VC states.
IDLE = 0
ROUTE = 1
ACTIVE = 2

RouteFn = Callable[["Router", int, Flit], int]


class Router:
    """One sub-switch chiplet (or switch box) in the simulated network."""

    __slots__ = (
        "router_id",
        "n_ports",
        "config",
        "route_fn",
        "ingress_routing_delay",
        "num_vcs",
        "buffer_cap",
        "routing_delay",
        "pipeline_delay",
        "queues",
        "occupancy",
        "ivc_state",
        "rc_ready",
        "ivc_out_port",
        "ivc_out_vc",
        "rc_pending",
        "in_credit_channel",
        "terminal_in_ports",
        "out_link",
        "out_is_terminal",
        "ovc_owner",
        "out_credits",
        "sa_candidates",
        "active_out_ports",
        "_sa_arbiters",
        "_vc_arbiters",
        "_used_stamp",
        "_used_generation",
        "_buffered_total",
        "flits_forwarded",
        "telemetry",
    )

    def __init__(
        self,
        router_id: int,
        n_ports: int,
        config: RouterConfig,
        route_fn: RouteFn,
        ingress_routing_delay: Optional[int] = None,
    ):
        if n_ports < 1:
            raise ValueError("router needs at least one port")
        self.router_id = router_id
        self.n_ports = n_ports
        self.config = config
        self.route_fn = route_fn
        #: RC delay for packets entering from a terminal (ingress); falls
        #: back to the transit routing delay when not set.
        self.ingress_routing_delay = (
            config.routing_delay
            if ingress_routing_delay is None
            else ingress_routing_delay
        )
        # Cached config scalars (dataclass attribute access is slow).
        self.num_vcs = config.num_vcs
        self.buffer_cap = config.buffer_flits_per_port
        self.routing_delay = config.routing_delay
        self.pipeline_delay = config.pipeline_delay

        vcs = config.num_vcs
        # Input side.
        self.queues: List[List[deque]] = [
            [deque() for _ in range(vcs)] for _ in range(n_ports)
        ]
        self.occupancy = [0] * n_ports
        self.ivc_state = [[IDLE] * vcs for _ in range(n_ports)]
        self.rc_ready = [[0] * vcs for _ in range(n_ports)]
        self.ivc_out_port = [[-1] * vcs for _ in range(n_ports)]
        self.ivc_out_vc = [[-1] * vcs for _ in range(n_ports)]
        self.rc_pending: Set[Tuple[int, int]] = set()
        self.in_credit_channel: List[Optional[CreditChannel]] = [None] * n_ports
        self.terminal_in_ports: Set[int] = set()

        # Output side.
        self.out_link: List[Optional[Link]] = [None] * n_ports
        self.out_is_terminal = [False] * n_ports
        self.ovc_owner: List[List[Optional[Tuple[int, int]]]] = [
            [None] * vcs for _ in range(n_ports)
        ]
        self.out_credits = [0] * n_ports
        self.sa_candidates: List[Set[Tuple[int, int]]] = [
            set() for _ in range(n_ports)
        ]
        #: Output ports with at least one SA candidate (active set).
        self.active_out_ports: Set[int] = set()
        self._sa_arbiters = [
            RoundRobinArbiter(n_ports * vcs) for _ in range(n_ports)
        ]
        self._vc_arbiters = [RoundRobinArbiter(vcs) for _ in range(n_ports)]
        # One-grant-per-input-port lock, generation-stamped so no set
        # is allocated per switch_allocate call.
        self._used_stamp = [0] * n_ports
        self._used_generation = 0

        # Statistics.
        self._buffered_total = 0
        self.flits_forwarded = 0
        #: Optional per-router telemetry view
        #: (:class:`~repro.netsim.telemetry.RouterTelemetry`). The
        #: allocate loops read it into a local once per call; ``None``
        #: reduces every counter update to that local's ``is not None``
        #: check.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Wiring (used by the network builders)
    # ------------------------------------------------------------------

    def attach_output(
        self,
        port: int,
        link: Link,
        downstream_capacity: int,
        is_terminal: bool,
    ) -> None:
        self.out_link[port] = link
        self.out_credits[port] = downstream_capacity
        self.out_is_terminal[port] = is_terminal

    def attach_input(
        self, port: int, credit_channel: CreditChannel, from_terminal: bool
    ) -> None:
        self.in_credit_channel[port] = credit_channel
        if from_terminal:
            self.terminal_in_ports.add(port)

    # ------------------------------------------------------------------
    # Per-cycle operation
    # ------------------------------------------------------------------

    def receive_flit(self, port: int, flit: Flit, now: int) -> None:
        """Accept a flit from the input link into the shared buffer."""
        occupancy = self.occupancy
        occupancy[port] += 1
        self._buffered_total += 1
        if occupancy[port] > self.buffer_cap:
            raise AssertionError(
                f"router {self.router_id} port {port}: buffer overflow "
                "(credit protocol violated)"
            )
        vc = flit.vc
        queue = self.queues[port][vc]
        queue.append(flit)
        if len(queue) == 1:
            state = self.ivc_state[port][vc]
            if state == IDLE:
                if not flit.is_head:
                    raise AssertionError("body flit reached an idle VC front")
                self._start_route(port, vc, now)
            elif state == ACTIVE:
                out_port = self.ivc_out_port[port][vc]
                self.sa_candidates[out_port].add((port, vc))
                self.active_out_ports.add(out_port)

    def _start_route(self, port: int, vc: int, now: int) -> None:
        delay = (
            self.ingress_routing_delay
            if port in self.terminal_in_ports
            else self.routing_delay
        )
        self.ivc_state[port][vc] = ROUTE
        self.rc_ready[port][vc] = now + delay
        self.rc_pending.add((port, vc))

    def vc_allocate(self, now: int) -> None:
        """RC completion + VC allocation for waiting head flits."""
        pending = self.rc_pending
        if not pending:
            return
        queues = self.queues
        rc_ready = self.rc_ready
        ivc_out_port = self.ivc_out_port
        tele = self.telemetry
        granted = []
        for key in sorted(pending) if len(pending) > 1 else tuple(pending):
            port, vc = key
            if now < rc_ready[port][vc]:
                if tele is not None:
                    tele.rc_wait_cycles += 1
                continue
            out_port = ivc_out_port[port][vc]
            if out_port < 0:
                head = queues[port][vc][0]
                out_port = self.route_fn(self, port, head)
                if not 0 <= out_port < self.n_ports:
                    raise AssertionError(
                        f"route function returned invalid port {out_port}"
                    )
                ivc_out_port[port][vc] = out_port
            if self.out_is_terminal[out_port]:
                out_vc = 0
            else:
                owners = self.ovc_owner[out_port]
                arbiter = self._vc_arbiters[out_port]
                vcs = arbiter.size
                pointer = arbiter._pointer
                out_vc = -1
                for offset in range(vcs):
                    candidate = pointer + offset
                    if candidate >= vcs:
                        candidate -= vcs
                    if owners[candidate] is None:
                        out_vc = candidate
                        break
                if out_vc < 0:
                    if tele is not None:
                        tele.va_stalls += 1
                    continue  # try again next cycle
                arbiter._pointer = out_vc + 1 if out_vc + 1 < vcs else 0
                owners[out_vc] = key
            self.ivc_out_vc[port][vc] = out_vc
            self.ivc_state[port][vc] = ACTIVE
            if queues[port][vc]:
                self.sa_candidates[out_port].add(key)
                self.active_out_ports.add(out_port)
            if tele is not None:
                tele.va_grants += 1
            granted.append(key)
        for key in granted:
            pending.discard(key)

    def switch_allocate(self, now: int) -> None:
        """SA + ST: move at most one flit per output (and input) port.

        Switch traversal (the old ``_forward``) is inlined in the grant
        branch, including the winning flit's link send and the credit
        return — this is the single hottest loop in the simulator.
        """
        active = self.active_out_ports
        if not active:
            return
        vcs = self.num_vcs
        queues = self.queues
        occupancy = self.occupancy
        out_credits = self.out_credits
        out_is_terminal = self.out_is_terminal
        sa_candidates = self.sa_candidates
        pipeline_delay = self.pipeline_delay
        used_stamp = self._used_stamp
        generation = self._used_generation + 1
        self._used_generation = generation
        tele = self.telemetry
        # sorted() both preserves the original ascending port order and
        # snapshots the set (the grant branch prunes it mid-loop).
        ordered = sorted(active) if len(active) > 1 else tuple(active)
        for out_port in ordered:
            candidates = sa_candidates[out_port]
            if not candidates:
                continue
            is_terminal = out_is_terminal[out_port]
            if not is_terminal and out_credits[out_port] <= 0:
                if tele is not None:
                    tele.credit_stall_cycles[out_port] += 1
                continue
            if tele is not None:
                # Requests seen by this port's arbiter this cycle;
                # credit-starved cycles are attributed above instead.
                requests = 0
                for port, vc in candidates:
                    if used_stamp[port] != generation and queues[port][vc]:
                        requests += 1
                tele.sa_requests[out_port] += requests
            arbiter = self._sa_arbiters[out_port]
            size = arbiter.size
            pointer = arbiter._pointer
            best = -1
            best_distance = size
            for port, vc in candidates:
                if used_stamp[port] == generation or not queues[port][vc]:
                    continue
                request = port * vcs + vc
                distance = request - pointer
                if distance < 0:
                    distance += size
                if distance < best_distance:
                    best_distance = distance
                    best = request
            if best < 0:
                continue
            arbiter._pointer = best + 1 if best + 1 < size else 0
            port = best // vcs
            vc = best - port * vcs
            used_stamp[port] = generation

            # --- switch traversal (inlined flit forward) ---
            queue = queues[port][vc]
            flit = queue.popleft()
            occupancy[port] -= 1
            self._buffered_total -= 1
            self.flits_forwarded += 1
            if tele is not None:
                tele.channel_load[out_port] += 1
                tele.vc_grants[vc] += 1
            upstream = self.in_credit_channel[port]
            if upstream is not None:
                # Inlined CreditChannel.send(1, now).
                pending = upstream._in_flight
                credit_arrival = now + upstream.latency
                events = upstream._events
                if not pending and events is not None:
                    bucket = events.get(credit_arrival)
                    if bucket is None:
                        events[credit_arrival] = [upstream._event_key]
                    else:
                        bucket.append(upstream._event_key)
                pending.append((credit_arrival, 1))
            out_vc = self.ivc_out_vc[port][vc]
            flit.vc = out_vc
            if not is_terminal:
                out_credits[out_port] -= 1
            link = self.out_link[out_port]
            if link is None:
                raise AssertionError(f"output port {out_port} is not wired")
            # Inlined Link.send(flit, now, extra_delay=pipeline_delay).
            arrival = now + link.latency + pipeline_delay
            in_flight = link._in_flight
            if not in_flight:
                events = link._events
                if events is not None:
                    bucket = events.get(arrival)
                    if bucket is None:
                        events[arrival] = [link._event_key]
                    else:
                        bucket.append(link._event_key)
            in_flight.append((arrival, flit))

            if flit.is_tail:
                if not is_terminal:
                    self.ovc_owner[out_port][out_vc] = None
                self.ivc_state[port][vc] = IDLE
                self.ivc_out_port[port][vc] = -1
                self.ivc_out_vc[port][vc] = -1
                candidates.discard((port, vc))
                if not candidates:
                    active.discard(out_port)
                if queue:
                    # The next packet's head is now at the queue front.
                    self._start_route(port, vc, now)
            elif not queue:
                # Body flits still in flight upstream; pause SA requests.
                candidates.discard((port, vc))
                if not candidates:
                    active.discard(out_port)
