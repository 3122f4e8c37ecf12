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
  short cycle-accurate probes and cached; with the C kernel, one
  ``flow_advance`` call per epoch steps them all.  Hundreds of wafers
  finish in seconds;
* ``"hybrid"`` — ``cycle_wafers`` stay cycle-accurate, the rest run
  flow-level, stitched at the same epoch barrier — the barrier
  argument never references *how* a wafer simulates its epoch, so
  mixing node types is exact with respect to causality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import ckernel
from repro.dcn import traffic as dcn_traffic
from repro.dcn.fabric import DCNFabric, DCNShape
from repro.dcn.failures import DCNFailures, FailureConfig, sample_failures
from repro.dcn.flow import FlowWaferNode, FlowWafers, curves_for_shape
from repro.engines import netsim_engine_tag
from repro.netsim.partition import WaferPartition

FIDELITIES = ("cycle", "flow", "hybrid")

#: Per-wafer counters, in the order every epoch driver reports them.
COUNTERS = ("inflight", "offered_flits", "offered_packets",
            "delivered_flits", "delivered_packets")


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
        return self._latency_summary()[0]

    def _latency_summary(self) -> Tuple[Dict[str, float], int]:
        """:meth:`latency_stats` and the delivered latency sum, from one
        sort (plain ints and floats, so JSON and digests see no numpy)."""
        done = np.asarray(self.latencies, dtype=np.int64)
        done = np.sort(done[done >= 0])
        if not done.size:
            return {"count": 0}, 0
        n, total = len(done), int(done.sum())
        return {
            "count": n,
            "avg": round(total / n, 3),
            "p50": int(done[n // 2]),
            "p99": int(done[min(n - 1, (n * 99) // 100)]),
            "max": int(done[-1]),
        }, total

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
        summary["latency"], summary["latency_sum"] = self._latency_summary()
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
        #: (cycle, source, destination, size) of DCN packet i in row i
        self.traffic = dcn_traffic.generate(
            config.pattern,
            self.fabric.alive_hosts,
            config.duration_cycles,
            config.traffic_seed,
            load=config.load,
            size_flits=config.size_flits,
        )
        self.routes = self.fabric.route_all(
            self.traffic[:, 1], self.traffic[:, 2]
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
    n_wafers = shape.n_wafers
    routes = plan.routes
    created, sizes = plan.traffic[:, 0], plan.traffic[:, 3]
    # One kernel call per epoch steps every flow wafer; without it (or
    # with engine="scalar") each is a FlowWaferNode, the scalar oracle.
    flow = None
    if plan.curves is not None and netsim_engine_tag(config.engine) == "c":
        flow = FlowWafers(
            ckernel.load_kernel(), [plan.curves["leaf"], plan.curves["spine"]],
            np.arange(n_wafers) >= shape.n_leaves, shape.wafer_terminals,
        )
    nodes = {w: plan.build_node(w) for w in range(n_wafers)
             if flow is None or w in plan.cycle_set}
    is_flow = ~np.isin(np.arange(n_wafers), list(nodes))

    # Pending injections (packet, cycle): at wafer hop hop[packet].
    hop = np.zeros_like(routes.hops)
    latencies = np.full(len(hop), -1, dtype=np.int64)
    pend_tag = np.flatnonzero(routes.hops)
    pend_cycle = created[pend_tag]
    # Packets in flight on kernel-stepped flow wafers: (packet, arrival).
    fly_tag = fly_arrive = pend_tag[:0]
    counts = np.zeros((n_wafers, len(COUNTERS)), dtype=np.int64)
    inflight, offered, offered_packets, delivered, delivered_packets = counts.T

    def per_wafer(wafers, weights=None):
        # Weighted bincount sums in float64, exact below 2**53 flits.
        return np.bincount(wafers, weights, n_wafers).astype(np.int64)

    epoch = 0
    truncated = False
    while pend_tag.size or inflight.any():
        start = epoch * epoch_cycles
        end = start + epoch_cycles
        if end > config.cycle_bound:
            truncated = True
            break
        # Every injection made this epoch lands at or after `end` (the
        # lookahead), so wafers can step one after another.
        due = pend_cycle < end
        tag, cycle = pend_tag[due], pend_cycle[due]
        pend_tag, pend_cycle = pend_tag[~due], pend_cycle[~due]
        if cycle.size and cycle.min() < start:
            raise AssertionError(
                f"epoch barrier violated: injection at cycle {cycle.min()} "
                f"in epoch [{start}, {end})"
            )
        wafer, entry, exit_ = (a[tag, hop[tag]] for a in routes[:3])
        size = sizes[tag]
        # Per wafer, the (cycle, entry, exit, size, tag) tuple order.
        order = np.lexsort((tag, size, exit_, entry, cycle, wafer))
        wafer, cycle, entry, exit_, size, tag = (
            a[order] for a in (wafer, cycle, entry, exit_, size, tag)
        )
        offsets = np.searchsorted(wafer, np.arange(n_wafers + 1))
        # Idle wafers (nothing queued, nothing in flight) are skipped
        # entirely: their epoch would change nothing.
        active = (np.diff(offsets) > 0) | (inflight > 0)
        bundles = []
        for w in np.flatnonzero(active & ~is_flow).tolist():
            batch = slice(offsets[w], offsets[w + 1])
            nodes[w].enqueue(list(zip(*(
                a[batch].tolist() for a in (cycle, entry, exit_, size, tag)
            ))))
            terms, tags, arrives, counters = nodes[w].advance(end)
            counts[w] = [counters[name] for name in COUNTERS]
            bundles.append((terms, tags, arrives))
        if flow is not None:
            arrive = flow.advance(
                np.flatnonzero(active & is_flow), offsets, cycle, exit_,
                size, end,
            )
            new = is_flow[wafer]
            flits = per_wafer(wafer[new], size[new])
            offered += flits
            offered_packets += per_wafer(wafer[new])
            inflight += flits
            fly_tag = np.concatenate((fly_tag, tag[new]))
            fly_arrive = np.concatenate((fly_arrive, arrive[new]))
            land = fly_arrive < end
            tags, arrives = fly_tag[land], fly_arrive[land]
            fly_tag, fly_arrive = fly_tag[~land], fly_arrive[~land]
            landed = routes.wafer[tags, hop[tags]]
            flits = per_wafer(landed, sizes[tags])
            delivered += flits
            delivered_packets += per_wafer(landed)
            inflight -= flits
            bundles.append((routes.exit[tags, hop[tags]], tags, arrives))
        if bundles:
            terms, tags, arrives = (np.concatenate(b) for b in zip(*bundles))
            wrong = terms != routes.exit[tags, hop[tags]]
            if wrong.any():
                raise AssertionError(
                    f"packets {tags[wrong].tolist()} delivered at the wrong exit"
                )
            hop[tags] += 1
            last = hop[tags] == routes.hops[tags]
            latencies[tags[last]] = arrives[last] - created[tags[last]]
            pend_tag = np.concatenate((pend_tag, tags[~last]))
            pend_cycle = np.concatenate(
                (pend_cycle, arrives[~last] + shape.inter_wafer_latency)
            )
        epoch += 1

    done = latencies >= 0
    failures = plan.failures
    cycle_set = plan.cycle_set
    return DCNResult(
        engine=nodes[min(cycle_set)].engine_name if cycle_set else "flow",
        fidelity=config.fidelity,
        n_wafers=n_wafers,
        cycle_accurate_wafers=len(cycle_set),
        makespan=int((created + latencies)[done].max(initial=0)),
        epochs=epoch,
        epoch_cycles=epoch_cycles,
        cycles=epoch * epoch_cycles,
        packets_created=len(plan.traffic),
        packets_routed=len(plan.traffic) - plan.dropped,
        packets_dropped_unroutable=plan.dropped,
        packets_delivered=int(done.sum()),
        flits_offered=int(offered.sum()),
        flits_delivered=int(delivered.sum()),
        truncated=truncated,
        wall_seconds=0.0,
        dead_sscs=len(failures.dead_sscs) if failures else 0,
        dead_links=len(failures.dead_links) if failures else 0,
        latencies=latencies.tolist(),
        per_wafer=[dict(zip(COUNTERS, row)) for row in counts.tolist()],
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
