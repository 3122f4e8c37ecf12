"""Incremental partition driver: step one wafer's network epoch by epoch.

A Bernoulli load point or a trace replay hands its engine the whole
offer stream up front. Partitioned multi-wafer simulation
(:mod:`repro.dcn`) cannot: the next epoch's injections depend on what
every other wafer delivered during this one. :class:`WaferPartition`
keeps one pristine network live between calls. ``enqueue(rows, tags)``
takes an offer table (int64 rows ``(cycle, src, dst, size)``, the one
injection format of every netsim run) with a caller tag per row, checked
once by :func:`repro.netsim.network.check_offers`. Each ``advance``
takes the rows due before the epoch end as one batch and hands it to
whichever engine runs, which then advances under the run contract both
engines share (offer due rows, step, jump idle stretches; ``fast_run``
in :mod:`repro.ckernel`, :func:`repro.netsim.network.advance` for the
oracle) to the epoch end:

* the compiled kernel behind :class:`~repro.netsim.fast_core.FastEngine`
  when the network compiles: the batch is appended to the engine's
  packet store and the epoch is one kernel call, or
* the scalar object simulator otherwise (no C toolchain, or
  ``engine="scalar"``, the oracle).

Packet ids are **partition-local** and assigned here, in offer order
(the order rows were enqueued), with no source shared between
partitions.  That is what makes a partitioned run bit-identical to a
monolithic one: Clos routing hashes the packet id across
spines/channels, so the id sequence each wafer sees must depend only
on that wafer's injection history, never on how many other partitions
share the process.

Both engines produce identical deliveries for identical offer tables
(the differential harness pins them to each other); ``advance`` sorts
its delivery report by ``(arrival cycle, terminal, tag)`` so the two
engines return byte-identical bundles.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

import numpy as np

from repro.engines import resolve_netsim_engine
from repro.netsim import fast_core
from repro.netsim.network import (
    NetworkModel, advance, check_offers, offer_packets,
)
from repro.netsim.traffic import BernoulliInjector, uniform


class Schedule:
    """An epoch driver's pending offers on ``n_terminals`` terminals:
    rows ``(cycle, src, dst, size, tag)``, sorted in full-row order."""

    def __init__(self, n_terminals: int):
        self.n_terminals = n_terminals
        self.pending = np.zeros((0, 5), dtype=np.int64)

    def extend(self, rows, tags, clock: int) -> None:
        """Append checked rows; none before ``clock`` or the schedule."""
        tags = np.asarray(tags, dtype=np.int64)
        last = self.pending[-1] if len(self.pending) else None
        rows = check_offers(rows, self.n_terminals, tags, clock, last)
        self.pending = np.vstack((self.pending, np.column_stack((rows, tags))))

    def take(self, to_cycle: int):
        """Remove the rows due before ``to_cycle``; return them and
        their tags."""
        due = int(np.searchsorted(self.pending[:, 0], to_cycle))
        taken, self.pending = self.pending[:due], self.pending[due:]
        return taken[:, :4], taken[:, 4]


class WaferPartition:
    """One wafer's network, steppable in externally bounded epochs."""

    def __init__(self, network: NetworkModel, engine: str = "auto"):
        network.require_fresh()
        resolved = resolve_netsim_engine(engine)
        self.engine = fast_core.engine_for(network, None, engine=resolved)
        self.network = network
        self.engine_name = "scalar" if self.engine is None else resolved
        self._sched = Schedule(network.n_terminals)
        #: Caller tag of each offered packet, by partition-local id.
        self._tags = np.zeros(0, dtype=np.int64)
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

    def enqueue(self, rows, tags) -> None:
        """Schedule an offer table's rows, one caller tag each.

        The rows with their tags appended must come sorted (full-row
        order) and never in the partition's past: the epoch barrier
        guarantees both, and the determinism of the local packet-id
        sequence depends on it.
        """
        self._sched.extend(rows, tags, self.cycle)

    def advance(self, to_cycle: int):
        """Run to ``to_cycle``; return the epoch's delivery bundle.

        Returns ``(terms, tags, arrives, counters)``: three int64
        arrays — delivery terminal, caller tag, arrival cycle — sorted
        by ``(arrival, terminal, tag)``, plus a counters dict
        (``inflight``, ``delivered_flits``, ``delivered_packets``,
        ``offered_flits``, ``offered_packets``).  Every row scheduled
        strictly before ``to_cycle`` is consumed.
        """
        # Every row before ``to_cycle`` is offered this epoch, so the
        # batch goes to the engine now; packet ids (store rows) follow
        # offer order on both engines.
        rows, tags = self._sched.take(to_cycle)
        first = self.offered_packets
        self.offered_packets += len(rows)
        if self.offered_packets > len(self._tags):
            self._tags = np.resize(self._tags, 2 * self.offered_packets)
        self._tags[first:self.offered_packets] = tags
        self.offered_flits += int(rows[:, 3].sum())
        engine = self.engine
        if engine is None:
            self._offers.extend(offer_packets(rows, first))
            advance(self.network, self._offers, to_cycle)
            terms, pids, arrives = self._harvest_scalar()
        else:
            engine.append(rows)
            terms, pids = engine.run_epoch(to_cycle)
            arrives = engine.pk_arrive[pids]
            self.network.cycle = engine.cycle
        self._delivered_packets += int(terms.size)
        tags = self._tags[pids]
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
    rows = injector.stream(inject_cycles, n)
    partition.enqueue(rows, np.arange(len(rows)))

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

    latencies = np.concatenate(arrives) - rows[np.concatenate(tag_log), 0]
    return {
        "mean_latency": (
            int(latencies.sum()) / len(latencies) if len(latencies) else 0.0
        ),
        "delivered_flits_per_cycle": window_flits / window_cycles,
        "offered_load": counters["offered_flits"] / (n * inject_cycles),
        "offered": float(counters["offered_flits"]),
        "delivered": float(counters["delivered_flits"]),
        "drain_cycle": float(partition.cycle),
    }
