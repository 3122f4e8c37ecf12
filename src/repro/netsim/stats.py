"""Measurement bookkeeping for simulation runs.

Windowing contract (Booksim's methodology, made explicit):

* ``measure_start``/``measure_end`` bound the **measurement window**
  in absolute network cycles; warmup is everything before
  ``measure_start`` and drain everything after ``measure_end``.
* ``flits_offered`` / ``flits_delivered`` are **cycle-attributed**:
  they count injection and delivery events that happened *during* the
  window, whichever packet they belong to. That makes
  :attr:`RunStats.accepted_load` the steady-state delivery rate over
  the window.
* ``latencies_cycles`` (and everything derived from it) is
  **creation-attributed**: it covers exactly the packets *created*
  during the window, whenever they arrive — including during drain.
  Warmup-created packets never enter the latency statistics even when
  they are delivered inside (or after) the measurement window; the
  :meth:`RunStats.record_arrival` filter is the single place that
  invariant lives.
* A bounded drain can cut off the slowest measurement-window packets
  (right-censoring the latency distribution);
  :attr:`RunStats.packets_outstanding` says how many.

Every run also hands back its end state (:class:`RunEnd`, on
:attr:`RunStats.final`): the whole-run counters a network held when the
run stopped. Both engines fill it, so it is the one place to read them;
after a compiled run the network's objects hold only the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.netsim.config import CYCLE_TIME_NS

#: Schema tag/version for :meth:`RunStats.to_dict` payloads. Bump the
#: version on any incompatible field change; ``from_dict`` refuses
#: payloads from a different major version.
RUN_STATS_SCHEMA = "repro-run-stats"
RUN_STATS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunEnd:
    """A run's end state: whole-run counters, not window-attributed.

    ``in_flight_flits`` counts flits still queued at sources, in router
    buffers or on the wire; the tuples hold one entry per terminal
    (``flits_*``/``packets_*``) or per router (``flits_forwarded``).
    """

    in_flight_flits: int
    flits_sent: Tuple[int, ...]
    packets_sent: Tuple[int, ...]
    flits_received: Tuple[int, ...]
    packets_received: Tuple[int, ...]
    flits_forwarded: Tuple[int, ...]

    @classmethod
    def of(cls, network) -> "RunEnd":
        """Read the end state off a network the scalar engine ran."""
        terminals = network.terminals
        return cls(
            in_flight_flits=network.in_flight_flits(),
            flits_sent=tuple(t.flits_sent for t in terminals),
            packets_sent=tuple(t.packets_sent for t in terminals),
            flits_received=tuple(t.flits_received for t in terminals),
            packets_received=tuple(len(t.packets_received) for t in terminals),
            flits_forwarded=tuple(r.flits_forwarded for r in network.routers),
        )


@dataclass
class RunStats:
    """Latency/throughput statistics over a measurement window."""

    measure_start: int
    measure_end: int
    latencies_cycles: List[int] = field(default_factory=list)
    flits_delivered: int = 0
    flits_offered: int = 0
    n_terminals: int = 0
    #: Packets created during the measurement window (delivered or not).
    packets_created: int = 0
    #: The run's end state; not serialized and not compared.
    final: Optional[RunEnd] = field(default=None, compare=False, repr=False)

    def record_arrival(self, packet) -> bool:
        """Count a delivered packet iff it was created in the window.

        Returns whether the packet was counted. This is the windowing
        filter: packets created during warmup (or drain) are excluded
        from the latency statistics no matter when they arrive.
        """
        if self.measure_start <= packet.create_cycle < self.measure_end:
            self.latencies_cycles.append(
                packet.arrive_cycle - packet.create_cycle
            )
            return True
        return False

    def to_dict(self) -> Dict[str, Any]:
        """Versioned JSON-serializable form (see :meth:`from_dict`).

        This is the one serialization path for run statistics — server
        responses (:mod:`repro.api`) and telemetry bundles both emit
        it. Derived properties (latency averages, loads) are included
        read-only for human consumers but ignored on the way back in.
        """
        return {
            "schema": RUN_STATS_SCHEMA,
            "version": RUN_STATS_SCHEMA_VERSION,
            "measure_start": int(self.measure_start),
            "measure_end": int(self.measure_end),
            # int() per element: the vectorized engine fills this list
            # with numpy integers, which json.dumps rejects.
            "latencies_cycles": [int(x) for x in self.latencies_cycles],
            "flits_delivered": int(self.flits_delivered),
            "flits_offered": int(self.flits_offered),
            "n_terminals": int(self.n_terminals),
            "packets_created": int(self.packets_created),
            "derived": {
                "packets_delivered": self.packets_delivered,
                "packets_outstanding": self.packets_outstanding,
                "avg_latency_cycles": self.avg_latency_cycles,
                "avg_latency_ns": self.avg_latency_ns,
                "p99_latency_cycles": self.p99_latency_cycles,
                "accepted_load": self.accepted_load,
                "offered_load": self.offered_load,
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunStats":
        """Inverse of :meth:`to_dict`; round-trips every stored field."""
        if payload.get("schema") != RUN_STATS_SCHEMA:
            raise ValueError(f"not a {RUN_STATS_SCHEMA} payload")
        if payload.get("version") != RUN_STATS_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported {RUN_STATS_SCHEMA} version "
                f"{payload.get('version')!r}"
            )
        return cls(
            measure_start=int(payload["measure_start"]),
            measure_end=int(payload["measure_end"]),
            latencies_cycles=[int(x) for x in payload["latencies_cycles"]],
            flits_delivered=int(payload["flits_delivered"]),
            flits_offered=int(payload["flits_offered"]),
            n_terminals=int(payload["n_terminals"]),
            packets_created=int(payload["packets_created"]),
        )

    @property
    def packets_delivered(self) -> int:
        return len(self.latencies_cycles)

    @property
    def packets_outstanding(self) -> int:
        """Measurement-window packets not delivered by the end of drain.

        Non-zero means the latency distribution is right-censored: the
        slowest packets of the window never arrived before the run
        stopped (bounded ``drain_cycles``, or a saturated network that
        cannot drain). 0 when ``packets_created`` was never counted.
        """
        return max(self.packets_created - self.packets_delivered, 0)

    @property
    def avg_latency_cycles(self) -> float:
        if not self.latencies_cycles:
            return float("nan")
        return sum(self.latencies_cycles) / len(self.latencies_cycles)

    @property
    def avg_latency_ns(self) -> float:
        return self.avg_latency_cycles * CYCLE_TIME_NS

    @property
    def p99_latency_cycles(self) -> float:
        if not self.latencies_cycles:
            return float("nan")
        ordered = sorted(self.latencies_cycles)
        index = min(len(ordered) - 1, int(0.99 * len(ordered)))
        return float(ordered[index])

    @property
    def measured_cycles(self) -> int:
        return self.measure_end - self.measure_start

    @property
    def accepted_load(self) -> float:
        """Delivered flits per cycle per terminal."""
        cycles = self.measured_cycles
        if cycles <= 0 or self.n_terminals == 0:
            return 0.0
        return self.flits_delivered / cycles / self.n_terminals

    @property
    def offered_load(self) -> float:
        cycles = self.measured_cycles
        if cycles <= 0 or self.n_terminals == 0:
            return 0.0
        return self.flits_offered / cycles / self.n_terminals
