"""Hierarchical DCN simulation: N wafer partitions, one epoch barrier.

Every wafer in the fabric is its own epoch-driven node, built and
stepped in the calling process.  The coordinator synchronizes them
with a **conservative epoch barrier**: with
``lookahead = inter_wafer_link_latency`` (the minimum cycles any flit
spends between wafers), a packet leaving wafer A during epoch ``k``
cannot reach wafer B before epoch ``k + 1`` — so every wafer can
simulate one full epoch on its own, the coordinator exchanges their
delivered traffic as batched bundles, and causality is never violated.
Epoch results are therefore *identical* for any order in which the
wafers step, and for any epoch length up to the lookahead: a shorter
``lookahead`` only adds barriers.  ``tests/dcn`` and the CI
``dcn-smoke`` job check that invariance (latency samples, flit
counts, per-wafer counters) against the default epoching.

**Fidelity ladder** (``DCNConfig.fidelity``, see docs/dcn_scale.md):

* ``"cycle"`` — every wafer a cycle-accurate
  :class:`~repro.netsim.partition.WaferPartition` (the default);
* ``"flow"`` — every wafer a calibrated
  :class:`~repro.dcn.flow.FlowWaferNode`, service curves fitted from
  short cycle-accurate probes and cached.  Hundreds of wafers finish
  in minutes;
* ``"hybrid"`` — ``cycle_wafers`` stay cycle-accurate, the rest run
  flow-level, stitched at the same epoch barrier — the barrier
  argument never references *how* a wafer simulates its epoch, so
  mixing node types is exact with respect to causality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.dcn import traffic as dcn_traffic
from repro.dcn.fabric import DCNFabric, DCNShape
from repro.dcn.failures import DCNFailures, FailureConfig, sample_failures
from repro.dcn.flow import FlowWaferNode, curves_for_shape
from repro.netsim.partition import WaferPartition

FIDELITIES = ("cycle", "flow", "hybrid")


@dataclass(frozen=True)
class DCNConfig:
    """One DCN experiment: fabric shape, traffic, failures, engine."""

    shape: DCNShape
    pattern: str = "uniform"
    duration_cycles: int = 256
    load: float = 0.05
    size_flits: int = 4
    traffic_seed: int = 1
    #: Epoch length in cycles; 0 means the maximum safe value, the
    #: shape's ``inter_wafer_latency``.  Smaller epochs are still
    #: correct (more barriers, same results) — the parity tests sweep
    #: this to prove it.
    lookahead: int = 0
    #: Safety bound on simulated cycles; 0 derives a generous default.
    max_cycles: int = 0
    failures: Optional[FailureConfig] = None
    engine: str = "auto"
    #: ``cycle`` (all wafers cycle-accurate), ``flow`` (all wafers
    #: calibrated queueing nodes), or ``hybrid`` (``cycle_wafers``
    #: cycle-accurate, the rest flow-level).
    fidelity: str = "cycle"
    #: Wafer indices kept cycle-accurate under ``fidelity="hybrid"``;
    #: empty defaults to wafer 0.  Must be empty for other fidelities.
    cycle_wafers: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.lookahead < 0 or self.lookahead > self.shape.inter_wafer_latency:
            raise ValueError(
                "lookahead must be in [0, inter_wafer_latency], 0 meaning "
                "the maximum "
                f"(got {self.lookahead}, max {self.shape.inter_wafer_latency})"
            )
        if self.fidelity not in FIDELITIES:
            raise ValueError(
                f"fidelity must be one of {FIDELITIES} "
                f"(got {self.fidelity!r})"
            )
        wafers = tuple(sorted(set(int(w) for w in self.cycle_wafers)))
        if wafers and self.fidelity != "hybrid":
            raise ValueError("cycle_wafers only applies to fidelity='hybrid'")
        if self.fidelity == "hybrid":
            wafers = wafers or (0,)
            if wafers[0] < 0 or wafers[-1] >= self.shape.n_wafers:
                raise ValueError(
                    f"cycle_wafers {wafers} out of range "
                    f"[0, {self.shape.n_wafers})"
                )
        object.__setattr__(self, "cycle_wafers", wafers)

    def cycle_accurate_wafers(self) -> frozenset:
        """The wafer indices simulated cycle-accurately."""
        if self.fidelity == "cycle":
            return frozenset(range(self.shape.n_wafers))
        if self.fidelity == "flow":
            return frozenset()
        return frozenset(self.cycle_wafers)

    @property
    def epoch_cycles(self) -> int:
        return self.lookahead or self.shape.inter_wafer_latency

    @property
    def cycle_bound(self) -> int:
        return self.max_cycles or (
            self.duration_cycles + 200 * self.shape.inter_wafer_latency + 5000
        )


@dataclass
class DCNResult:
    """Outcome of one run; ``latencies`` is parity-comparable verbatim."""

    engine: str
    fidelity: str
    n_wafers: int
    cycle_accurate_wafers: int
    epochs: int
    epoch_cycles: int
    cycles: int
    #: Last delivery cycle across the whole fabric (0 if nothing
    #: delivered) — the denominator for end-to-end throughput, immune
    #: to epoch quantization of the drain tail.
    makespan: int
    packets_created: int
    packets_routed: int
    packets_dropped_unroutable: int
    packets_delivered: int
    flits_offered: int
    flits_delivered: int
    truncated: bool
    #: Wall time of planning (failures, traffic, routes, curves) + epochs.
    wall_seconds: float
    dead_sscs: int
    dead_links: int
    #: ``latencies[i]`` is the end-to-end cycle latency of DCN packet
    #: ``i`` (creation to final-hop delivery), ``-1`` if undelivered.
    latencies: List[int] = field(default_factory=list)
    per_wafer: List[Dict[str, int]] = field(default_factory=list)

    def latency_stats(self) -> Dict[str, float]:
        done = sorted(l for l in self.latencies if l >= 0)
        if not done:
            return {"count": 0}
        return {
            "count": len(done),
            "avg": round(sum(done) / len(done), 3),
            "p50": done[len(done) // 2],
            "p99": done[min(len(done) - 1, (len(done) * 99) // 100)],
            "max": done[-1],
        }

    def parity_signature(self) -> Dict[str, object]:
        """Everything two runs must agree on bit-for-bit."""
        return {
            "latencies": list(self.latencies),
            "flits_offered": self.flits_offered,
            "flits_delivered": self.flits_delivered,
            "packets_delivered": self.packets_delivered,
            "per_wafer": [dict(c) for c in self.per_wafer],
            "epochs": self.epochs,
        }

    def to_dict(self) -> Dict[str, object]:
        summary = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("latencies", "per_wafer")
        }
        summary["latency"] = self.latency_stats()
        summary["latency_sum"] = sum(l for l in self.latencies if l >= 0)
        summary["delivered_throughput"] = (
            round(self.flits_delivered / self.makespan, 6)
            if self.makespan
            else 0.0
        )
        summary["per_wafer"] = self.per_wafer
        return summary


# ----------------------------------------------------------------------
# Route plan
# ----------------------------------------------------------------------

class _Plan:
    """Fabric + routed traffic (+ service curves), computed once per run."""

    def __init__(self, config: DCNConfig):
        self.config = config
        self.failures: Optional[DCNFailures] = (
            config.failures and sample_failures(config.shape, config.failures)
        )
        self.fabric = DCNFabric(config.shape, self.failures)
        self.events = dcn_traffic.generate(
            config.pattern,
            self.fabric.alive_hosts,
            config.duration_cycles,
            config.traffic_seed,
            load=config.load,
            size_flits=config.size_flits,
        )
        self.routes = self.fabric.route_all(
            [event[1] for event in self.events],
            [event[2] for event in self.events],
        )
        self.dropped = int((self.routes.hops == 0).sum())
        self.cycle_set = config.cycle_accurate_wafers()
        #: Calibrated service curves (leaf/spine), only when some
        #: wafer actually runs flow-level.
        self.curves = (
            curves_for_shape(config.shape, engine=config.engine)
            if len(self.cycle_set) < config.shape.n_wafers
            else None
        )

    def build_node(self, wafer: int):
        """The epoch driver for one wafer at this plan's fidelity."""
        if wafer in self.cycle_set:
            return WaferPartition(
                self.fabric.build_wafer(wafer), engine=self.config.engine
            )
        kind = "spine" if wafer >= self.config.shape.n_leaves else "leaf"
        return FlowWaferNode(
            self.curves[kind], self.config.shape.wafer_terminals
        )


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------

def _run_epochs(plan: _Plan) -> DCNResult:
    config = plan.config
    shape = config.shape
    epoch_cycles = config.epoch_cycles
    latency = shape.inter_wafer_latency
    n_wafers = shape.n_wafers
    nodes = [plan.build_node(w) for w in range(n_wafers)]

    #: per-wafer min-heap of pending injections (partition Event tuples)
    pending: List[list] = [[] for _ in range(n_wafers)]
    routes = plan.routes
    hops = routes.hops.tolist()
    wafers, entries, exits = (
        routes.wafer.tolist(), routes.entry.tolist(), routes.exit.tolist()
    )
    # hop[i]: index of the wafer hop packet i is on now.
    hop = [0] * len(hops)
    latencies = [-1] * len(hops)
    for dcn_id, event in enumerate(plan.events):
        if hops[dcn_id]:
            pending[wafers[dcn_id][0]].append(
                (event[0], entries[dcn_id][0], exits[dcn_id][0], event[3], dcn_id)
            )
    for heap in pending:
        heapify(heap)

    counters: List[Dict[str, int]] = [node.counters() for node in nodes]
    epoch = 0
    makespan = 0
    truncated = False
    while any(pending) or any(c["inflight"] for c in counters):
        start = epoch * epoch_cycles
        end = start + epoch_cycles
        if end > config.cycle_bound:
            truncated = True
            break
        # Every injection made this epoch lands at or after `end` (the
        # lookahead), so wafers can step one after another.
        for wafer, node in enumerate(nodes):
            heap = pending[wafer]
            events = []
            while heap and heap[0][0] < end:
                event = heappop(heap)
                if event[0] < start:
                    raise AssertionError(
                        f"epoch barrier violated: event {event} in "
                        f"epoch [{start}, {end})"
                    )
                events.append(event)
            # Idle partitions (nothing queued, nothing in flight) are
            # skipped entirely: their epoch would change nothing.
            if not events and not counters[wafer]["inflight"]:
                continue
            node.enqueue(events)
            terms, tags, arrives, counters[wafer] = node.advance(end)
            for term, dcn_id, arrive in zip(
                terms.tolist(), tags.tolist(), arrives.tolist()
            ):
                index = hop[dcn_id]
                if term != exits[dcn_id][index]:
                    raise AssertionError(
                        f"packet {dcn_id} delivered at {term}, "
                        f"expected {exits[dcn_id][index]}"
                    )
                index += 1
                if index == hops[dcn_id]:
                    latencies[dcn_id] = arrive - plan.events[dcn_id][0]
                    if arrive > makespan:
                        makespan = arrive
                    continue
                hop[dcn_id] = index
                heappush(
                    pending[wafers[dcn_id][index]],
                    (arrive + latency, entries[dcn_id][index],
                     exits[dcn_id][index], plan.events[dcn_id][3], dcn_id),
                )
        epoch += 1

    delivered = sum(1 for l in latencies if l >= 0)
    failures = plan.failures
    cycle_set = plan.cycle_set
    return DCNResult(
        engine=nodes[min(cycle_set)].engine_name if cycle_set else "flow",
        fidelity=config.fidelity,
        n_wafers=n_wafers,
        cycle_accurate_wafers=len(cycle_set),
        makespan=makespan,
        epochs=epoch,
        epoch_cycles=epoch_cycles,
        cycles=epoch * epoch_cycles,
        packets_created=len(plan.events),
        packets_routed=len(plan.events) - plan.dropped,
        packets_dropped_unroutable=plan.dropped,
        packets_delivered=delivered,
        flits_offered=sum(c["offered_flits"] for c in counters),
        flits_delivered=sum(c["delivered_flits"] for c in counters),
        truncated=truncated,
        wall_seconds=0.0,
        dead_sscs=len(failures.dead_sscs) if failures else 0,
        dead_links=len(failures.dead_links) if failures else 0,
        latencies=latencies,
        per_wafer=counters,
    )


def run_dcn(config: DCNConfig, executor: str = "auto") -> DCNResult:
    """Simulate one DCN configuration end to end, in this process.

    ``executor`` is accepted for callers that still name one: ``"auto"``
    and ``"serial"`` both run the one in-process coordinator.
    """
    if executor not in ("auto", "serial"):
        raise ValueError(
            f"executor must be 'auto' or 'serial' (got {executor!r})"
        )
    started = time.perf_counter()
    result = _run_epochs(_Plan(config))
    result.wall_seconds = round(time.perf_counter() - started, 6)
    return result
