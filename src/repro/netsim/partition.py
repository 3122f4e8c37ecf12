"""Incremental partition driver: step one wafer's network epoch by epoch.

A Bernoulli load point or a trace replay hands its engine the whole
offer stream up front. Partitioned multi-wafer simulation
(:mod:`repro.dcn`) cannot: the next epoch's injections depend on what
every other wafer delivered during this one. :class:`WaferPartition`
keeps one pristine network live between calls. Each ``advance`` takes
the events due before the epoch end once, as one batch, and hands it to
whichever engine runs, which then advances under the run contract both
engines share (offer due rows, step, jump idle stretches; ``fast_run``
in :mod:`repro.ckernel`, :func:`repro.netsim.network.advance` for the
oracle) to the epoch end:

* the compiled kernel behind :class:`~repro.netsim.fast_core.FastEngine`
  when the network compiles: the batch is appended to the engine's
  packet store and the epoch is one kernel call, or
* the scalar object simulator otherwise (no C toolchain, or
  ``engine="scalar"``, the oracle).

Packet ids are **partition-local** and assigned here, in deterministic
offer order (events are consumed sorted by ``(cycle, source terminal,
tag)``), with no source shared between partitions.  That is what
makes a partitioned run bit-identical to a monolithic one: Clos
routing hashes the packet id across spines/channels, so the id
sequence each wafer sees must depend only on that wafer's injection
history, never on how many other partitions share the process.

Both engines produce identical deliveries for identical event streams
(the differential harness pins them to each other); ``advance`` sorts
its delivery report by ``(arrival cycle, terminal, tag)`` so the two
engines return byte-identical bundles.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Dict, List, Tuple

import numpy as np

from repro.engines import resolve_netsim_engine
from repro.netsim import fast_core
from repro.netsim.network import NetworkModel, advance
from repro.netsim.packet import Packet
from repro.netsim.traffic import BernoulliInjector, uniform

#: One externally scheduled injection:
#: ``(cycle, src_terminal, dst_terminal, size_flits, tag)``.  ``tag``
#: is an opaque caller id (the DCN layer uses its global packet id) and
#: is echoed back in the delivery report.
Event = Tuple[int, int, int, int, int]


def extend_schedule(sched: deque, cycle: int, events: List[Event]) -> None:
    """Append ``events`` to an epoch driver's schedule ``sched``, after
    checking they are sorted and neither before ``cycle`` nor before
    anything already scheduled."""
    if not events:
        return
    if events[0][0] < cycle:
        raise ValueError(f"event {events[0]} scheduled before cycle {cycle}")
    for earlier, later in zip(events, events[1:]):
        if later < earlier:
            raise ValueError(f"events not sorted at {later}")
    if sched and events[0] < sched[-1]:
        raise ValueError("events overlap previously enqueued schedule")
    sched.extend(events)


class WaferPartition:
    """One wafer's network, steppable in externally bounded epochs."""

    def __init__(self, network: NetworkModel, engine: str = "auto"):
        network.require_fresh()
        resolved = resolve_netsim_engine(engine)
        self.engine = fast_core.engine_for(network, None, engine=resolved)
        self.network = network
        self.engine_name = "scalar" if self.engine is None else resolved
        self._sched: deque = deque()
        self._tags: List[int] = []
        self.offered_flits = 0
        self.offered_packets = 0
        self._delivered_packets = 0
        if self.engine is None:
            self._offers: deque = deque()
            self._recv_cursor = [0] * network.n_terminals

    # -- caller surface -------------------------------------------------

    @property
    def cycle(self) -> int:
        return self.network.cycle

    @property
    def inflight_flits(self) -> int:
        if self.engine is None:
            return self.network.in_flight_flits()
        return int(self.engine.inflight)

    def enqueue(self, events: List[Event]) -> None:
        """Schedule injections; sorted, at-or-after the current cycle.

        Events must arrive sorted (plain tuple order) and never in the
        partition's past — the epoch barrier guarantees both, and the
        determinism of the local packet-id sequence depends on it.
        """
        extend_schedule(self._sched, self.cycle, events)

    def advance(self, to_cycle: int):
        """Run to ``to_cycle``; return the epoch's delivery bundle.

        Returns ``(terms, tags, arrives, counters)``: three int64
        arrays — delivery terminal, caller tag, arrival cycle — sorted
        by ``(arrival, terminal, tag)``, plus a counters dict
        (``inflight``, ``delivered_flits``, ``delivered_packets``,
        ``offered_flits``, ``offered_packets``).  Every event scheduled
        strictly before ``to_cycle`` is consumed.
        """
        # Every event before ``to_cycle`` is offered this epoch, so the
        # batch goes to the engine now; packet ids (store rows) follow
        # offer order on both engines.
        sched = self._sched
        batch = []
        while sched and sched[0][0] < to_cycle:
            batch.append(sched.popleft())
        cycle, src, dst, size, tag = zip(*batch) if batch else ((),) * 5
        first = len(self._tags)
        self._tags.extend(tag)
        self.offered_flits += sum(size)
        self.offered_packets += len(batch)
        engine = self.engine
        if engine is None:
            self._offers.extend(
                map(Packet, src, dst, size, cycle, count(first))
            )
            advance(self.network, self._offers, to_cycle)
            terms, pids, arrives = self._harvest_scalar()
        else:
            engine.append(src, dst, size, cycle)
            terms, pids = engine.run_epoch(to_cycle)
            arrives = engine.pk_arrive[pids]
            self.network.cycle = engine.cycle
        self._delivered_packets += int(terms.size)
        tags = np.array([self._tags[p] for p in pids.tolist()], dtype=np.int64)
        if terms.size > 1:
            order = np.lexsort((tags, terms, arrives))
            terms, tags, arrives = terms[order], tags[order], arrives[order]
        return terms, tags, arrives, self.counters()

    def counters(self) -> Dict[str, int]:
        if self.engine is None:
            delivered_flits = sum(
                t.flits_received for t in self.network.terminals
            )
        else:
            delivered_flits = int(self.engine.delivered_total)
        return {
            "inflight": self.inflight_flits,
            "offered_flits": self.offered_flits,
            "offered_packets": self.offered_packets,
            "delivered_flits": delivered_flits,
            "delivered_packets": self._delivered_packets,
        }

    def _harvest_scalar(self):
        """The scalar run's deliveries since the last epoch, as
        ``(terminal, packet id, arrival)`` arrays."""
        rows = []
        cursor = self._recv_cursor
        for terminal in self.network.terminals:
            t = terminal.terminal_id
            received = terminal.packets_received
            rows.extend(
                (t, packet.packet_id, packet.arrive_cycle)
                for packet in received[cursor[t]:]
            )
            cursor[t] = len(received)
        return tuple(np.array(rows, dtype=np.int64).reshape(-1, 3).T)


# ----------------------------------------------------------------------
# Calibration probes (flow-level fidelity, see repro/dcn/flow.py)
# ----------------------------------------------------------------------

def calibration_probe(
    network: NetworkModel,
    load: float,
    inject_cycles: int,
    seed: int = 0,
    size_flits: int = 4,
    engine: str = "auto",
    drain_bound: int = 50_000,
) -> Dict[str, float]:
    """Short cycle-accurate run measuring one wafer's service behaviour.

    Drives ``network`` through a :class:`WaferPartition` with uniform
    Bernoulli injections at ``load`` (flits per terminal per cycle,
    spread over ``size_flits``-flit packets) for ``inject_cycles``,
    then drains.  Returns the measurements the flow-level fidelity
    mode fits its service curve from:

    ``mean_latency``
        mean create-to-delivery latency over all delivered packets;
    ``delivered_flits_per_cycle``
        delivered throughput over the *second half* of the injection
        window — past warm-up, before the drain tail, so at saturating
        loads this approaches the wafer's service capacity;
    ``offered_load`` / ``delivered`` / ``offered`` / ``drain_cycle``
        bookkeeping (flit counts and the cycle the run went idle).

    Deterministic in ``(network shape, load, inject_cycles, seed,
    size_flits)`` — probes are cacheable by construction.
    """
    if not 0.0 < load <= 1.0:
        raise ValueError(f"probe load must be in (0, 1] (got {load})")
    partition = WaferPartition(network, engine=engine)
    n = network.n_terminals
    injector = BernoulliInjector(uniform(n), load, size_flits, seed=seed)
    creates, srcs, dsts = (
        column.tolist() for column in injector.stream(inject_cycles, n)
    )
    partition.enqueue([
        (cycle, src, dst, size_flits, tag)
        for tag, (cycle, src, dst) in enumerate(zip(creates, srcs, dsts))
    ])

    half = max(1, inject_cycles // 2)
    arrives: List[np.ndarray] = []
    terms, tags, arr, counters = partition.advance(half)
    arrives.append(arr)
    tag_log = [tags]
    delivered_at_half = counters["delivered_flits"]
    terms, tags, arr, counters = partition.advance(inject_cycles)
    arrives.append(arr)
    tag_log.append(tags)
    window_flits = counters["delivered_flits"] - delivered_at_half
    window_cycles = inject_cycles - half

    while counters["inflight"] and partition.cycle < drain_bound:
        terms, tags, arr, counters = partition.advance(partition.cycle + 256)
        arrives.append(arr)
        tag_log.append(tags)

    all_arrives = np.concatenate(arrives) if arrives else np.zeros(0)
    all_tags = np.concatenate(tag_log) if tag_log else np.zeros(0)
    latencies = [
        int(arrive) - creates[int(tag)]
        for arrive, tag in zip(all_arrives, all_tags)
    ]
    return {
        "mean_latency": (
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        "delivered_flits_per_cycle": window_flits / window_cycles,
        "offered_load": counters["offered_flits"] / (n * inject_cycles),
        "offered": float(counters["offered_flits"]),
        "delivered": float(counters["delivered_flits"]),
        "drain_cycle": float(partition.cycle),
    }
