"""Cycle-accurate network simulator (a from-scratch Booksim2 equivalent).

Implements the simulation infrastructure behind the paper's Section VI
performance study: input-queued routers with the four-stage pipeline of
Fig 20 (route computation, VC allocation, switch allocation, switch
traversal), virtual channels with credit-based flow control, shared
input buffering, configurable per-stage delays, synthetic traffic
patterns, and trace replay.

One simulation cycle corresponds to 20 ns, matching the paper's
convention (so an SSC delay of 11 cycles is 220 ns, and the 200 ns
"equivalent delay" of Fig 21 is 10 cycles).
"""

from repro.netsim.config import CYCLE_TIME_NS, RouterConfig, SimConfig
from repro.netsim.network import (
    NetworkModel,
    baseline_switch_network,
    single_router_network,
    waferscale_clos_network,
)
from repro.netsim.packet import Flit, Packet, PacketIds
from repro.netsim.sim import (
    LoadLatencyPoint,
    Simulator,
    load_latency_sweep,
    run_sim,
    saturation_throughput,
)
from repro.netsim.stats import RunStats
from repro.netsim.telemetry import Telemetry, validate_telemetry
from repro.netsim.traffic import TRAFFIC_PATTERNS, TrafficPattern, make_pattern
from repro.netsim.trace import (
    SyntheticTraceSpec,
    TraceEvent,
    duplicate_trace,
    replay_trace,
    synthetic_nersc_trace,
)

__all__ = [
    "CYCLE_TIME_NS",
    "Flit",
    "LoadLatencyPoint",
    "NetworkModel",
    "Packet",
    "PacketIds",
    "RouterConfig",
    "RunStats",
    "SimConfig",
    "Simulator",
    "SyntheticTraceSpec",
    "TRAFFIC_PATTERNS",
    "Telemetry",
    "TraceEvent",
    "TrafficPattern",
    "baseline_switch_network",
    "duplicate_trace",
    "load_latency_sweep",
    "make_pattern",
    "replay_trace",
    "run_sim",
    "saturation_throughput",
    "single_router_network",
    "synthetic_nersc_trace",
    "validate_telemetry",
    "waferscale_clos_network",
]
