"""Opt-in simulator instrumentation: per-router / per-VC / per-channel
counters, stall attribution, and windowed latency histograms.

The paper's performance study (Figs 21-24) hinges on *why* latency
diverges near saturation — buffer pressure, VC allocation failures,
credit starvation on the leaf-spine channels — yet averaged end-of-run
numbers cannot distinguish those causes. A :class:`Telemetry` object
attached to a network collects the missing detail:

* **per-router** — SA grant/request rates, VA grants and stalls, RC
  wait cycles, sampled buffer occupancy, and a stall-attribution
  summary (``credit`` / ``va`` / ``rc`` / ``sa_conflict``);
* **per-channel** — flits forwarded on every output port (channel
  load) and cycles the port spent credit-starved;
* **per-VC** — SA grants and sampled queue occupancy per virtual
  channel;
* **per-terminal** — injection credit stalls, plus sampled source
  backlog across the machine;
* **latency histograms** — log2-bucketed creation-to-arrival packet
  latency, attributed to the window the packet was *created* in
  (optionally per source->destination flow).

Measurement is split into explicit **windows** (warmup / measurement /
drain for :meth:`~repro.netsim.sim.Simulator.run`, a single ``replay``
window for trace replay). Cycle-attributed counters (stalls, grants,
loads) land in the window whose cycles produced them; histograms are
attributed by packet creation time, so a packet created during
measurement but delivered during drain still counts as a measurement
sample — exactly the windowing the run-level average uses.

Cost model: telemetry is **opt-in and near-zero when off**. Routers,
terminals, and the network driver each hold a ``telemetry`` attribute
that defaults to ``None``; every instrumentation point is guarded by a
single ``is not None`` check on an already-loaded local, and the
disabled path makes *no* calls into this module (asserted by
``tests/netsim/test_telemetry.py``). Golden-parity fixtures hold the
instrumented simulator to bit-identical behaviour, telemetry on or
off — the sink only observes, it never arbitrates.

Example — collect and validate a telemetry report:

>>> from repro.netsim.config import SimConfig
>>> from repro.netsim.network import single_router_network
>>> from repro.netsim.sim import run_sim
>>> telemetry = Telemetry(sample_interval=4)
>>> stats = run_sim(
...     single_router_network(4), "uniform", load=0.3,
...     config=SimConfig(warmup_cycles=20, measure_cycles=100,
...                      drain_cycles=50, seed=3),
...     telemetry=telemetry,
... )
>>> report = telemetry.to_dict()
>>> [window["name"] for window in report["windows"]]
['warmup', 'measurement', 'drain']
>>> validate_telemetry(report)  # raises ValueError on a malformed report
>>> report["windows"][1]["latency"]["total"] == stats.packets_delivered
True
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

#: Identifies the JSON layout; bump on breaking schema changes.
TELEMETRY_SCHEMA = "repro-netsim-telemetry"
TELEMETRY_SCHEMA_VERSION = 1


class LatencyHistogram:
    """Log2-bucketed latency histogram (bucket ``i`` holds ``[2^i, 2^(i+1))``).

    Power-of-two buckets keep the histogram O(log max-latency) regardless
    of run length while still separating the regimes that matter: the
    zero-load plateau, the queueing knee, and the saturated tail.
    """

    __slots__ = ("counts", "total", "min", "max", "sum")

    def __init__(self):
        self.counts: Dict[int, int] = {}
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.sum = 0

    @staticmethod
    def bucket_of(latency: int) -> int:
        """Bucket index for a latency (clamped at 0 for latency < 1)."""
        return latency.bit_length() - 1 if latency > 1 else 0

    def add(self, latency: int) -> None:
        index = self.bucket_of(latency)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.total += 1
        self.sum += latency
        if self.min is None or latency < self.min:
            self.min = latency
        if self.max is None or latency > self.max:
            self.max = latency

    def add_many(self, latencies) -> None:
        """Bulk :meth:`add` over an integer array (numpy batch path).

        Bucketing via ``frexp`` exponents: for ``x >= 2`` the exponent
        is ``bit_length``, so ``exponent - 1 == bucket_of(x)``; values
        below 2 are clamped into bucket 0, matching the scalar clamp.
        """
        import numpy as np

        latencies = np.asarray(latencies, dtype=np.int64)
        if latencies.size == 0:
            return
        buckets = np.frexp(np.maximum(latencies, 1).astype(np.float64))[1] - 1
        for index, count in enumerate(np.bincount(buckets).tolist()):
            if count:
                self.counts[index] = self.counts.get(index, 0) + count
        self.total += int(latencies.size)
        self.sum += int(latencies.sum())
        lo, hi = int(latencies.min()), int(latencies.max())
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "avg": round(self.sum / self.total, 3) if self.total else None,
            "buckets": [
                [1 << index if index else 0, 1 << (index + 1), count]
                for index, count in sorted(self.counts.items())
            ],
        }


class RouterTelemetry:
    """Per-router counter sink; routers increment these fields directly.

    Split into *cumulative* counters (delta-ed per window via
    snapshots) and *sampled* accumulators (reset at each window start):

    * ``sa_requests`` / ``channel_load`` — switch-allocation requests
      and grants per output port (``channel_load`` doubles as flits
      forwarded per output channel);
    * ``credit_stall_cycles`` — cycles an output port had work queued
      but zero downstream credits;
    * ``va_grants`` / ``va_stalls`` — VC allocations granted vs cycles
      a routed head flit found no free output VC;
    * ``rc_wait_cycles`` — head-flit cycles spent inside route
      computation;
    * ``vc_grants`` — SA grants per *input* VC;
    * ``occ_sum`` / ``occ_peak`` / ``vc_occ_sum`` / ``samples`` —
      sampled shared-buffer occupancy per port and queue depth per VC.
    """

    __slots__ = (
        "sa_requests",
        "channel_load",
        "credit_stall_cycles",
        "vc_grants",
        "va_grants",
        "va_stalls",
        "rc_wait_cycles",
        "occ_sum",
        "occ_peak",
        "vc_occ_sum",
        "samples",
    )

    def __init__(self, n_ports: int, num_vcs: int):
        self.sa_requests = [0] * n_ports
        self.channel_load = [0] * n_ports
        self.credit_stall_cycles = [0] * n_ports
        self.vc_grants = [0] * num_vcs
        self.va_grants = 0
        self.va_stalls = 0
        self.rc_wait_cycles = 0
        self.occ_sum = [0] * n_ports
        self.occ_peak = [0] * n_ports
        self.vc_occ_sum = [0] * num_vcs
        self.samples = 0

    def counter_snapshot(self) -> dict:
        """Copy of the cumulative counters (window baselining)."""
        return {
            "sa_requests": list(self.sa_requests),
            "channel_load": list(self.channel_load),
            "credit_stall_cycles": list(self.credit_stall_cycles),
            "vc_grants": list(self.vc_grants),
            "va_grants": self.va_grants,
            "va_stalls": self.va_stalls,
            "rc_wait_cycles": self.rc_wait_cycles,
        }

    def sampled_snapshot(self) -> dict:
        return {
            "samples": self.samples,
            "occ_sum": list(self.occ_sum),
            "occ_peak": list(self.occ_peak),
            "vc_occ_sum": list(self.vc_occ_sum),
        }

    def reset_sampled(self) -> None:
        for values in (self.occ_sum, self.occ_peak, self.vc_occ_sum):
            for index in range(len(values)):
                values[index] = 0
        self.samples = 0


def _counter_delta(end: dict, base: dict) -> dict:
    delta = {}
    for key, value in end.items():
        baseline = base[key]
        if isinstance(value, list):
            delta[key] = [v - b for v, b in zip(value, baseline)]
        else:
            delta[key] = value - baseline
    return delta


class _Window:
    """One measurement window: baselines at start, deltas at close."""

    __slots__ = (
        "name",
        "start",
        "end",
        "router_base",
        "router_delta",
        "router_sampled",
        "terminal_base",
        "terminal_delta",
        "backlog",
        "histogram",
        "flows",
    )

    def __init__(self, name: str, start: int, telemetry: "Telemetry"):
        self.name = name
        self.start = start
        self.end: Optional[int] = None
        self.router_base = [
            view.counter_snapshot() for view in telemetry._routers
        ]
        self.router_delta: Optional[List[dict]] = None
        self.router_sampled: Optional[List[dict]] = None
        self.terminal_base = telemetry._terminal_snapshot()
        self.terminal_delta: Optional[dict] = None
        self.backlog: Optional[dict] = None
        self.histogram = LatencyHistogram()
        self.flows: Optional[Dict[str, LatencyHistogram]] = (
            {} if telemetry.collect_flows else None
        )


class Telemetry:
    """Structured-telemetry sink for one :class:`NetworkModel` run.

    Attach with :meth:`attach` (done automatically by the ``telemetry=``
    hooks on :func:`~repro.netsim.sim.run_sim`,
    :meth:`~repro.netsim.sim.Simulator.run`, the sweep helpers, and
    :func:`~repro.netsim.trace.replay_trace`), then read the report
    with :meth:`to_dict` / :meth:`to_json` / :meth:`write_json`.

    Args:
        sample_interval: Cycles between occupancy/backlog samples
            (sampling cost is paid only while attached).
        collect_flows: Also keep one latency histogram per
            source->destination pair (quadratic in terminals — meant
            for small debug networks).
    """

    def __init__(self, sample_interval: int = 16, collect_flows: bool = False):
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1 cycle")
        self.sample_interval = sample_interval
        self.collect_flows = collect_flows
        self._network = None
        self._routers: List[RouterTelemetry] = []
        self.terminal_credit_stalls: List[int] = []
        #: Terminal counter totals a compiled run hands over at each
        #: window boundary; ``None`` sums the attached terminals'.
        self.terminal_totals: Optional[Dict[str, int]] = None
        self._windows: List[_Window] = []
        self._backlog_sum = 0
        self._backlog_peak = 0
        self._backlog_samples = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, network) -> "Telemetry":
        """Attach this sink to a network.

        The per-router views are sized from the network's shape, so a
        compiled run never builds the object graph; the views are wired
        into the routers and terminals when the graph exists (see
        :meth:`wire`).
        """
        if self._network is network:
            return self
        if self._network is not None:
            raise ValueError("telemetry is already attached to a network")
        if network.telemetry is not None:
            raise ValueError("network already has a telemetry sink attached")
        self._network = network
        network.telemetry = self
        spec = network.spec
        self._routers = [
            RouterTelemetry(spec.n_ports, spec.config.num_vcs)
            for _ in range(spec.n_routers)
        ]
        self.terminal_credit_stalls = [0] * network.n_terminals
        if network.graph_built:
            self.wire(network)
        return self

    def wire(self, network) -> None:
        """Hook the views into ``network``'s built routers and terminals
        (the scalar engine counts into them as it runs)."""
        for router, view in zip(network.routers, self._routers):
            router.telemetry = view
        for terminal in network.terminals:
            terminal.telemetry = self

    @property
    def attached(self) -> bool:
        return self._network is not None

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------

    def begin_window(self, name: str, cycle: int) -> None:
        """Close any open window at ``cycle`` and start a new one."""
        if self._network is None:
            raise ValueError("attach() before beginning a window")
        self._close_open_window(cycle)
        self._windows.append(_Window(name, cycle, self))

    def finish(self, cycle: int) -> None:
        """Close the open window (end of the run)."""
        self._close_open_window(cycle)

    def _close_open_window(self, cycle: int) -> None:
        window = self._open_window()
        if window is None:
            return
        window.end = cycle
        window.router_delta = [
            _counter_delta(view.counter_snapshot(), base)
            for view, base in zip(self._routers, window.router_base)
        ]
        window.router_sampled = [
            view.sampled_snapshot() for view in self._routers
        ]
        window.terminal_delta = _counter_delta(
            self._terminal_snapshot(), window.terminal_base
        )
        window.backlog = self._backlog_record()
        for view in self._routers:
            view.reset_sampled()
        self._backlog_sum = 0
        self._backlog_peak = 0
        self._backlog_samples = 0

    def _open_window(self) -> Optional[_Window]:
        if self._windows and self._windows[-1].end is None:
            return self._windows[-1]
        return None

    # ------------------------------------------------------------------
    # Collection (called from the instrumented hot paths)
    # ------------------------------------------------------------------

    def sample(self, network, now: int) -> None:
        """Record buffer occupancy and source backlog (one sample)."""
        del now
        for view, router in zip(self._routers, network.routers):
            occ_sum = view.occ_sum
            occ_peak = view.occ_peak
            for port, occupancy in enumerate(router.occupancy):
                occ_sum[port] += occupancy
                if occupancy > occ_peak[port]:
                    occ_peak[port] = occupancy
            vc_occ = view.vc_occ_sum
            for port_queues in router.queues:
                for vc, queue in enumerate(port_queues):
                    if queue:
                        vc_occ[vc] += len(queue)
            view.samples += 1
        backlog = sum(len(t.source_queue) for t in network.terminals)
        self._backlog_sum += backlog
        if backlog > self._backlog_peak:
            self._backlog_peak = backlog
        self._backlog_samples += 1

    def record_latency(self, packet) -> None:
        """Record one delivered packet (tail arrival at a terminal)."""
        window = self._window_for_creation(packet.create_cycle)
        if window is None:
            return
        latency = packet.arrive_cycle - packet.create_cycle
        window.histogram.add(latency)
        if window.flows is not None:
            key = f"{packet.src}->{packet.dst}"
            histogram = window.flows.get(key)
            if histogram is None:
                histogram = window.flows[key] = LatencyHistogram()
            histogram.add(latency)

    def _window_for_creation(self, create_cycle: int) -> Optional[_Window]:
        # Newest window first: in-order runs resolve on the first probe.
        for window in reversed(self._windows):
            if create_cycle >= window.start:
                return window
        return self._windows[0] if self._windows else None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _terminal_snapshot(self) -> dict:
        totals = self.terminal_totals
        if totals is None:
            terminals = self._network.terminals
            totals = {
                "flits_sent": sum(t.flits_sent for t in terminals),
                "flits_received": sum(t.flits_received for t in terminals),
                "packets_sent": sum(t.packets_sent for t in terminals),
                "packets_received": sum(
                    len(t.packets_received) for t in terminals
                ),
            }
        return {
            "credit_stall_cycles": list(self.terminal_credit_stalls),
            **totals,
        }

    def _backlog_record(self) -> dict:
        samples = self._backlog_samples
        return {
            "samples": samples,
            "avg_total": round(self._backlog_sum / samples, 3) if samples else 0.0,
            "peak_total": self._backlog_peak,
        }

    @staticmethod
    def _router_record(
        router_id: int, delta: dict, sampled: dict, cycles: int
    ) -> dict:
        sa_requests = sum(delta["sa_requests"])
        sa_grants = sum(delta["channel_load"])
        va_grants = delta["va_grants"]
        va_stalls = delta["va_stalls"]
        samples = sampled["samples"]
        return {
            "router_id": router_id,
            "flits_forwarded": sa_grants,
            "channel_load_per_port": delta["channel_load"],
            "channel_utilization_per_port": [
                round(load / cycles, 4) if cycles else 0.0
                for load in delta["channel_load"]
            ],
            "sa": {
                "requests_per_port": delta["sa_requests"],
                "grants": sa_grants,
                "grant_rate": round(sa_grants / sa_requests, 4)
                if sa_requests
                else None,
            },
            "va": {
                "grants": va_grants,
                "stalls": va_stalls,
                "grant_rate": round(va_grants / (va_grants + va_stalls), 4)
                if va_grants + va_stalls
                else None,
            },
            "credit_stall_cycles_per_port": delta["credit_stall_cycles"],
            "vc": {
                "grants_per_vc": delta["vc_grants"],
                "occupancy_avg_per_vc": [
                    round(total / samples, 3) if samples else 0.0
                    for total in sampled["vc_occ_sum"]
                ],
            },
            "buffers": {
                "samples": samples,
                "occupancy_avg_per_port": [
                    round(total / samples, 3) if samples else 0.0
                    for total in sampled["occ_sum"]
                ],
                "occupancy_peak_per_port": sampled["occ_peak"],
            },
            "stall_attribution": {
                "credit": sum(delta["credit_stall_cycles"]),
                "va": va_stalls,
                "rc": delta["rc_wait_cycles"],
                "sa_conflict": sa_requests - sa_grants,
            },
        }

    def _window_record(self, window: _Window) -> dict:
        now = self._network.cycle
        closed = window.end is not None
        end = window.end if closed else now
        cycles = max(end - window.start, 0)
        if closed:
            router_deltas = window.router_delta
            router_sampled = window.router_sampled
            terminal_delta = window.terminal_delta
            backlog = window.backlog
        else:
            router_deltas = [
                _counter_delta(view.counter_snapshot(), base)
                for view, base in zip(self._routers, window.router_base)
            ]
            router_sampled = [view.sampled_snapshot() for view in self._routers]
            terminal_delta = _counter_delta(
                self._terminal_snapshot(), window.terminal_base
            )
            backlog = self._backlog_record()
        record = {
            "name": window.name,
            "start_cycle": window.start,
            "end_cycle": end,
            "cycles": cycles,
            "routers": [
                self._router_record(router_id, delta, sampled, cycles)
                for router_id, (delta, sampled) in enumerate(
                    zip(router_deltas, router_sampled)
                )
            ],
            "terminals": dict(terminal_delta, backlog=backlog),
            "latency": window.histogram.to_dict(),
        }
        if window.flows is not None:
            record["flows"] = {
                key: histogram.to_dict()
                for key, histogram in sorted(window.flows.items())
            }
        return record

    def to_dict(self) -> dict:
        """The full JSON-able report (open windows reported as of now)."""
        if self._network is None:
            raise ValueError("attach() and run a simulation first")
        network = self._network
        views = self._routers
        return {
            "schema": TELEMETRY_SCHEMA,
            "version": TELEMETRY_SCHEMA_VERSION,
            "sample_interval": self.sample_interval,
            "network": {
                "name": network.name,
                "n_routers": len(views),
                "n_terminals": network.n_terminals,
                "num_vcs": len(views[0].vc_grants) if views else 0,
                "ports_per_router": [len(view.sa_requests) for view in views],
            },
            "final_cycle": network.cycle,
            "windows": [self._window_record(w) for w in self._windows],
        }

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path) -> None:
        """Write the report to ``path`` (parent directories created)."""
        import pathlib

        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n")


# ----------------------------------------------------------------------
# Schema validation (dependency-free; the docs carry the full schema)
# ----------------------------------------------------------------------

_HISTOGRAM_KEYS = {"total", "min", "max", "avg", "buckets"}
_WINDOW_KEYS = {
    "name",
    "start_cycle",
    "end_cycle",
    "cycles",
    "routers",
    "terminals",
    "latency",
}
_ROUTER_KEYS = {
    "router_id",
    "flits_forwarded",
    "channel_load_per_port",
    "channel_utilization_per_port",
    "sa",
    "va",
    "credit_stall_cycles_per_port",
    "vc",
    "buffers",
    "stall_attribution",
}
_STALL_KEYS = {"credit", "va", "rc", "sa_conflict"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid telemetry report: {message}")


def _validate_histogram(histogram, where: str) -> None:
    _require(isinstance(histogram, dict), f"{where} must be an object")
    _require(
        set(histogram) == _HISTOGRAM_KEYS,
        f"{where} keys {sorted(histogram)} != {sorted(_HISTOGRAM_KEYS)}",
    )
    _require(
        isinstance(histogram["total"], int) and histogram["total"] >= 0,
        f"{where}.total must be a non-negative int",
    )
    counted = 0
    for bucket in histogram["buckets"]:
        _require(
            isinstance(bucket, list) and len(bucket) == 3,
            f"{where}.buckets entries must be [lo, hi, count]",
        )
        lo, hi, count = bucket
        _require(0 <= lo < hi, f"{where} bucket bounds [{lo}, {hi}) malformed")
        _require(count > 0, f"{where} buckets must omit empty entries")
        counted += count
    _require(
        counted == histogram["total"],
        f"{where} bucket counts {counted} != total {histogram['total']}",
    )


def _validate_router(router, n_vcs: int, where: str) -> None:
    _require(isinstance(router, dict), f"{where} must be an object")
    _require(
        set(router) == _ROUTER_KEYS,
        f"{where} keys {sorted(router)} != {sorted(_ROUTER_KEYS)}",
    )
    n_ports = len(router["channel_load_per_port"])
    for key in (
        "channel_load_per_port",
        "channel_utilization_per_port",
        "credit_stall_cycles_per_port",
    ):
        _require(
            isinstance(router[key], list) and len(router[key]) == n_ports,
            f"{where}.{key} must list all {n_ports} ports",
        )
    _require(
        len(router["sa"]["requests_per_port"]) == n_ports,
        f"{where}.sa.requests_per_port must list all ports",
    )
    _require(
        len(router["vc"]["grants_per_vc"]) == n_vcs,
        f"{where}.vc.grants_per_vc must list all {n_vcs} VCs",
    )
    attribution = router["stall_attribution"]
    _require(
        set(attribution) == _STALL_KEYS,
        f"{where}.stall_attribution keys {sorted(attribution)}",
    )
    for key, value in attribution.items():
        _require(
            isinstance(value, int) and value >= 0,
            f"{where}.stall_attribution.{key} must be a non-negative int",
        )
    _require(
        sum(router["channel_load_per_port"]) == router["flits_forwarded"],
        f"{where}: channel loads must sum to flits_forwarded",
    )


def validate_telemetry(report) -> None:
    """Validate a telemetry report against the v1 schema.

    Raises :class:`ValueError` with a pointed message on the first
    violation; returns ``None`` on success. Checked structurally (no
    jsonschema dependency): top-level identity and network shape, every
    window's router/terminal/latency records, per-port and per-VC list
    lengths, histogram/bucket consistency, and non-negative stall
    attribution.
    """
    _require(isinstance(report, dict), "report must be an object")
    _require(
        report.get("schema") == TELEMETRY_SCHEMA,
        f"schema must be {TELEMETRY_SCHEMA!r}",
    )
    _require(
        report.get("version") == TELEMETRY_SCHEMA_VERSION,
        f"version must be {TELEMETRY_SCHEMA_VERSION}",
    )
    network = report.get("network")
    _require(isinstance(network, dict), "network must be an object")
    for key in ("name", "n_routers", "n_terminals", "num_vcs", "ports_per_router"):
        _require(key in network, f"network.{key} missing")
    _require(
        len(network["ports_per_router"]) == network["n_routers"],
        "network.ports_per_router must list every router",
    )
    windows = report.get("windows")
    _require(isinstance(windows, list), "windows must be a list")
    for index, window in enumerate(windows):
        where = f"windows[{index}]"
        _require(isinstance(window, dict), f"{where} must be an object")
        _require(
            _WINDOW_KEYS.issubset(window),
            f"{where} keys {sorted(window)} missing some of {sorted(_WINDOW_KEYS)}",
        )
        _require(
            window["start_cycle"] <= window["end_cycle"],
            f"{where} start/end cycles out of order",
        )
        _require(
            window["cycles"] == window["end_cycle"] - window["start_cycle"],
            f"{where}.cycles inconsistent with its bounds",
        )
        _require(
            len(window["routers"]) == network["n_routers"],
            f"{where}.routers must cover every router",
        )
        for router_index, router in enumerate(window["routers"]):
            _validate_router(
                router, network["num_vcs"], f"{where}.routers[{router_index}]"
            )
        terminals = window["terminals"]
        _require(
            len(terminals["credit_stall_cycles"]) == network["n_terminals"],
            f"{where}.terminals.credit_stall_cycles must cover every terminal",
        )
        _validate_histogram(window["latency"], f"{where}.latency")
        for key, histogram in window.get("flows", {}).items():
            _validate_histogram(histogram, f"{where}.flows[{key}]")
