"""Flow-level inter-wafer fidelity: wafers as calibrated queueing nodes.

The cycle-accurate partitioned simulator (:mod:`repro.dcn.sim`) holds
every wafer's full router state live — exact, but bounded to tens of
wafers.  The paper's Tables VII–IX fabrics are *hundreds* of
radix-600+ wafers, so this module adds the next rung of the fidelity
ladder: model each wafer as a **calibrated queueing node** and each
inter-wafer link as a fluid flow, and simulate only the inter-wafer
dynamics.

The contract that makes the ladder stitch together:
:class:`FlowWaferNode` implements the *same epoch-driver interface*
as :class:`repro.netsim.partition.WaferPartition` — ``enqueue()``,
``advance(to_cycle)`` returning a lexsorted delivery bundle plus a
counters dict, so *hybrid* fidelity is just a per-wafer choice of node
class.  On a host with the C kernel, :class:`FlowWafers` steps every
flow wafer of an epoch in one call instead; the node is its oracle.

**Calibration.**  A :class:`ServiceCurve` is fitted from short
cycle-accurate probe runs on one pristine wafer
(:func:`repro.netsim.partition.calibration_probe`): mean traversal
latency at several offered loads, plus the delivered-throughput
capacity at a saturating load.  Curves are cached as JSON under the
shared content-addressed cache root (``.repro_cache/dcn/<key>.json``,
see :mod:`repro.cas`), keyed on the wafer's geometry, the probe
parameters, *and* the transitive source fingerprint of this module —
edit the simulator and every curve recalibrates, exactly like the
experiment result cache.

**The flow model.**  For a packet entering a flow node at cycle ``c``
with ``size`` flits toward exit terminal ``x``:

* fabric traversal takes ``latency(u)`` cycles — the service curve
  interpolated at the node's offered utilization ``u`` this epoch;
* the exit link serializes at 1 flit/cycle: consecutive packets to
  the same exit queue FIFO behind each other (per-exit virtual
  finish times — this is max-min sharing of each egress link, since
  every competing packet's share degrades equally as the queue
  grows);
* the wafer as a whole serves at most ``capacity`` flits/cycle (the
  calibrated saturation throughput): a wafer-wide virtual time
  advances ``size/capacity`` per packet, delaying everything behind
  it once the aggregate is oversubscribed.

All arithmetic is evaluated in deterministic event order, so a flow
run is a pure function of ``(shape, traffic, seed, fidelity)`` — the
determinism tests in ``tests/dcn/test_flow.py`` pin this.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Tuple

import numpy as np

from repro import cas
from repro.fingerprint import source_fingerprint, transitive_modules
from repro.netsim.network import waferscale_clos_network
from repro.netsim.partition import Event, calibration_probe, extend_schedule

#: Offered loads (flits/terminal/cycle) probed for the latency curve.
PROBE_LOADS: Tuple[float, ...] = (0.02, 0.1, 0.2, 0.35)

#: Saturating load probed for the capacity estimate.
SATURATION_LOAD: float = 0.9

#: Injection window of each probe run, in cycles.
PROBE_CYCLES: int = 384

#: RNG seed of the probe traffic (part of the cache key).
PROBE_SEED: int = 7


@dataclass(frozen=True)
class ServiceCurve:
    """One wafer class's fitted service behaviour.

    ``loads``/``latencies`` are the probe samples (offered flits per
    terminal per cycle → mean traversal latency in cycles);
    ``capacity_flits_per_cycle`` is the wafer-wide delivered
    throughput at the saturating probe load.
    """

    wafer_terminals: int
    ssc_radix: int
    loads: Tuple[float, ...]
    latencies: Tuple[float, ...]
    capacity_flits_per_cycle: float

    def latency_at(self, utilization: float) -> float:
        """Piecewise-linear interpolation of the probed latency curve.

        Clamped at both ends: below the lightest probe the zero-load
        latency applies, beyond the heaviest the curve stays flat and
        the capacity clamp in :class:`FlowWaferNode` models the
        queueing growth instead.
        """
        loads, lats = self.loads, self.latencies
        if utilization <= loads[0]:
            return lats[0]
        for i in range(1, len(loads)):
            if utilization <= loads[i]:
                span = loads[i] - loads[i - 1]
                frac = (utilization - loads[i - 1]) / span
                return lats[i - 1] + frac * (lats[i] - lats[i - 1])
        return lats[-1]

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ServiceCurve":
        return cls(**dict(
            payload,
            loads=tuple(payload["loads"]),
            latencies=tuple(payload["latencies"]),
        ))


# ----------------------------------------------------------------------
# Calibration (content-addressed cache)
# ----------------------------------------------------------------------

#: Bump to invalidate every cached curve (serialization changes).
CURVE_FORMAT_VERSION = 1


def _curve_cache_key(
    wafer_terminals: int,
    ssc_radix: int,
    num_vcs: int,
    buffer_flits: int,
    size_flits: int,
) -> str:
    descriptor = {
        "wafer_terminals": wafer_terminals,
        "ssc_radix": ssc_radix,
        "num_vcs": num_vcs,
        "buffer_flits": buffer_flits,
        "size_flits": size_flits,
        "probe_loads": list(PROBE_LOADS),
        "saturation_load": SATURATION_LOAD,
        "probe_cycles": PROBE_CYCLES,
        "probe_seed": PROBE_SEED,
    }
    sources = source_fingerprint(transitive_modules("repro.dcn.flow"))
    return cas.key(CURVE_FORMAT_VERSION, descriptor, sources)


def calibrate_wafer(
    wafer_terminals: int,
    ssc_radix: int,
    num_vcs: int = 4,
    buffer_flits: int = 16,
    size_flits: int = 4,
    engine: str = "auto",
    cache: bool = True,
    cache_root=None,
) -> ServiceCurve:
    """Fit (or fetch) the service curve of one wafer class.

    Runs ``len(PROBE_LOADS) + 1`` short cycle-accurate probe runs on a
    pristine wafer of this geometry and caches the fitted curve under
    the content-addressed cache root.  A warm call is a single JSON
    read; the cache invalidates automatically when any transitively
    imported ``repro`` source changes.
    """
    curves = cas.Store("dcn", cache_root)
    key = _curve_cache_key(
        wafer_terminals, ssc_radix, num_vcs, buffer_flits, size_flits
    )
    if cache:
        cached = curves.get(key, ServiceCurve.from_dict)
        if cached is not None:
            return cached  # a corrupt entry is a miss: recalibrate

    probes = [
        calibration_probe(
            waferscale_clos_network(
                wafer_terminals,
                ssc_radix,
                num_vcs=num_vcs,
                buffer_flits_per_port=buffer_flits,
            ),
            load,
            PROBE_CYCLES,
            seed=PROBE_SEED,
            size_flits=size_flits,
            engine=engine,
        )
        for load in PROBE_LOADS + (SATURATION_LOAD,)
    ]
    curve = ServiceCurve(
        wafer_terminals=wafer_terminals,
        ssc_radix=ssc_radix,
        loads=PROBE_LOADS,
        latencies=tuple(max(1.0, p["mean_latency"]) for p in probes[:-1]),
        capacity_flits_per_cycle=max(
            1.0, probes[-1]["delivered_flits_per_cycle"]
        ),
    )
    if cache:
        curves.put(key, curve.to_dict())
    return curve


def curves_for_shape(
    shape, engine: str = "auto", cache: bool = True, cache_root=None
) -> Dict[str, ServiceCurve]:
    """Leaf and (if distinct) spine service curves for a DCN shape."""

    def curve(radix: int) -> ServiceCurve:
        return calibrate_wafer(
            shape.wafer_terminals,
            radix,
            num_vcs=shape.num_vcs,
            buffer_flits=shape.buffer_flits,
            engine=engine,
            cache=cache,
            cache_root=cache_root,
        )

    leaf = curve(shape.ssc_radix)
    spine_radix = shape.spine_ssc_radix or shape.ssc_radix
    return {
        "leaf": leaf,
        "spine": leaf if spine_radix == shape.ssc_radix else curve(spine_radix),
    }


# ----------------------------------------------------------------------
# The flow node
# ----------------------------------------------------------------------

class FlowWaferNode:
    """One wafer as a calibrated queueing node.

    Same epoch-driver surface as
    :class:`~repro.netsim.partition.WaferPartition`: ``enqueue()``
    sorted future events, ``advance(to_cycle)`` a lexsorted delivery
    bundle + counters.  No router state exists — deliveries are
    computed from the service curve, per-exit egress queues, and the
    wafer-wide capacity clamp, all in deterministic event order.
    """

    engine_name = "flow"

    def __init__(self, curve: ServiceCurve, n_terminals: int):
        self.curve = curve
        self.n_terminals = n_terminals
        self.cycle = 0
        self._sched: deque = deque()
        #: min-heap of (arrive, exit_terminal, tag, size_flits)
        self._inflight: List[Tuple[int, int, int, int]] = []
        self._inflight_flits = 0
        #: per-exit virtual finish time of the egress link (1 flit/cy)
        self._exit_free: Dict[int, float] = {}
        #: wafer-wide virtual time of the aggregate service capacity
        self._agg_time = 0.0
        self.offered_flits = 0
        self.offered_packets = 0
        self.delivered_flits = 0
        self.delivered_packets = 0

    def enqueue(self, events: List[Event]) -> None:
        """Same contract as ``WaferPartition.enqueue``."""
        extend_schedule(self._sched, self.cycle, events)

    def advance(self, to_cycle: int):
        """Model every event scheduled before ``to_cycle``; harvest.

        Mirrors ``WaferPartition.advance``: consumes events with
        ``cycle < to_cycle``, returns deliveries whose arrival is
        strictly before ``to_cycle`` as int64 arrays lexsorted by
        (arrival, terminal, tag), plus the counters dict.
        """
        span = max(1, to_cycle - self.cycle)
        sched = self._sched
        batch: List[Event] = []
        while sched and sched[0][0] < to_cycle:
            batch.append(sched.popleft())
        if batch:
            offered = sum(event[3] for event in batch)
            utilization = offered / (self.n_terminals * span)
            base = max(1.0, self.curve.latency_at(utilization))
            capacity = self.curve.capacity_flits_per_cycle
            for cycle, _entry, exit_term, size, tag in batch:
                self.offered_flits += size
                self.offered_packets += 1
                # Wafer-wide capacity clamp (fluid service).
                self._agg_time = (
                    max(self._agg_time, float(cycle)) + size / capacity
                )
                # Fabric traversal, then FIFO egress serialization.
                ready = cycle + base
                start = max(ready, self._exit_free.get(exit_term, 0.0))
                arrive = max(
                    int(math.ceil(start)), int(math.ceil(self._agg_time))
                )
                self._exit_free[exit_term] = max(
                    start + size, float(arrive)
                )
                heappush(
                    self._inflight, (arrive, exit_term, tag, size)
                )
                self._inflight_flits += size
        self.cycle = to_cycle
        return (*self._harvest(to_cycle), self.counters())

    def _harvest(self, to_cycle: int):
        done = []
        while self._inflight and self._inflight[0][0] < to_cycle:
            done.append(heappop(self._inflight))
        flits = sum(size for *_, size in done)
        self._inflight_flits -= flits
        self.delivered_flits += flits
        self.delivered_packets += len(done)
        bundle = np.array(done, dtype=np.int64).reshape(-1, 4)
        return bundle[:, 1], bundle[:, 2], bundle[:, 0]

    def counters(self) -> Dict[str, int]:
        return {
            "inflight": self._inflight_flits,
            "offered_flits": self.offered_flits,
            "offered_packets": self.offered_packets,
            "delivered_flits": self.delivered_flits,
            "delivered_packets": self.delivered_packets,
        }


class FlowWafers:
    """Every flow wafer's :class:`FlowWaferNode` state as arrays (last
    cycle, ``agg_time``, ``exit_free`` per terminal), stepped by the
    kernel's ``flow_advance`` with ``advance``'s float64 operations in
    its order.  Packets in flight and counters are the caller's."""

    def __init__(self, lib, curves: List[ServiceCurve], curve_of, n_terminals: int):
        self._lib, self.n_terminals = lib, n_terminals
        self.curve_of = np.asarray(curve_of, dtype=np.int64)
        self.loads = np.array([c.loads for c in curves], dtype=np.float64)
        self.lats = np.array([c.latencies for c in curves], dtype=np.float64)
        self.capacity = np.array([c.capacity_flits_per_cycle for c in curves])
        self.last = np.zeros(len(self.curve_of), dtype=np.int64)
        self.agg_time = np.zeros(len(self.curve_of))
        self.exit_free = np.zeros((len(self.curve_of), n_terminals))

    def advance(self, wafers, offsets, cycle, exit_term, size, to_cycle: int):
        """Step ``wafers`` to ``to_cycle``; return each event's arrival.

        Wafer ``w``'s events are ``offsets[w]:offsets[w + 1]`` of
        ``cycle``/``exit_term``/``size``, in its injection-heap order;
        the arrivals of other events are left unset.
        """
        arrive = np.empty(len(cycle), dtype=np.int64)
        ints = [  # held here while the kernel reads them by pointer
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (wafers, offsets, cycle, exit_term, size, self.curve_of)
        ]
        wafers, offsets, cycle, exit_term, size = ints[:5]
        n, n_wafers = len(cycle), len(self.last)
        if not (  # every index the kernel follows stays inside its table
            len(offsets) == n_wafers + 1 and len(exit_term) == len(size) == n
            and np.all((0 <= wafers) & (wafers < n_wafers))
            and np.all((0 <= offsets) & (offsets <= n))
            and np.all((0 <= exit_term) & (exit_term < self.n_terminals))
        ):
            raise ValueError("flow batch does not fit the wafer tables")
        self._lib.flow_advance(
            len(wafers), *(a.ctypes.data for a in ints + [self.loads, self.lats]),
            self.loads.shape[1], self.capacity.ctypes.data, self.n_terminals,
            to_cycle, self.last.ctypes.data, self.agg_time.ctypes.data,
            self.exit_free.ctypes.data, arrive.ctypes.data,
        )
        return arrive
