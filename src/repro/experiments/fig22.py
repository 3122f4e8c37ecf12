"""Fig 22: latency vs load with proprietary (destination-tag) routing.

Paper claim: removing the Layer-3 IP-table lookup at non-ingress SSCs
(RC 4 cycles -> 2 at ingress / 1 in transit) reduces zero-load latency
and raises saturation throughput by 11-14.5 %.
"""

from __future__ import annotations

from repro.engines import netsim_engine_tag
from repro.experiments.base import ExperimentResult
from repro.experiments.common import sim_scale
from repro.experiments.telemetry_io import telemetry_sink, write_point_telemetry
from repro.netsim.config import RouterConfig
from repro.netsim.network import clos_network
from repro.netsim.packet import PacketIds
from repro.netsim.sim import load_latency_sweep, saturation_throughput
from repro.netsim.traffic import make_pattern

#: (label, routing delay, ingress routing delay) — baseline first.
CONFIGS = (
    ("baseline L3 lookup (RC=4)", 4, None),
    ("proprietary routing (RC=1, ingress 2)", 1, 2),
)


def _factory(scale, routing_delay, ingress_delay):
    def build():
        config = RouterConfig(
            num_vcs=scale["num_vcs"],
            buffer_flits_per_port=scale["buffer_flits_per_port"],
            routing_delay=routing_delay,
            pipeline_delay=4,
        )
        return clos_network(
            f"fig22-rc{routing_delay}",
            scale["n_terminals"],
            scale["ssc_radix"],
            config,
            inter_switch_latency=1,
            io_latency=8,
            ingress_routing_delay=ingress_delay,
        )

    return build


def units(fast: bool = True):
    """One unit per routing configuration (sweep + saturation each)."""
    del fast
    return [label for label, _, _ in CONFIGS]


def run_unit(unit, fast: bool = True):
    label, routing_delay, ingress_delay = next(
        config for config in CONFIGS if config[0] == unit
    )
    packet_ids = PacketIds()  # one numbering for sweep and saturation
    scale = sim_scale(fast)
    factory = _factory(scale, routing_delay, ingress_delay)

    def point_telemetry(load):
        telemetry = telemetry_sink()
        if telemetry is not None:
            sweep_sinks.append((load, telemetry))
        return telemetry

    sweep_sinks = []
    points = load_latency_sweep(
        factory,
        lambda n: make_pattern("uniform", n),
        loads=scale["loads"],
        warmup_cycles=scale["warmup_cycles"],
        measure_cycles=scale["measure_cycles"],
        packet_ids=packet_ids,
        telemetry_factory=point_telemetry,
    )
    for load, telemetry in sweep_sinks:
        write_point_telemetry(
            telemetry, "fig22", f"rc{routing_delay}_load{load:.2f}"
        )
    rows = [
        (
            label,
            point.offered_load,
            round(point.avg_latency_cycles, 1),
            round(point.accepted_load, 3),
            point.saturated,
        )
        for point in points
    ]
    telemetry = telemetry_sink()
    saturation = saturation_throughput(
        factory,
        lambda n: make_pattern("uniform", n),
        warmup_cycles=scale["warmup_cycles"],
        measure_cycles=scale["measure_cycles"],
        packet_ids=packet_ids,
        telemetry=telemetry,
    )
    write_point_telemetry(telemetry, "fig22", f"rc{routing_delay}_saturation")
    return {"rows": rows, "saturation": saturation}


def merge(unit_results, fast: bool = True) -> ExperimentResult:
    del fast
    baseline, proprietary = unit_results
    gain = (proprietary["saturation"] / baseline["saturation"] - 1.0) * 100.0
    return ExperimentResult(
        experiment_id="fig22",
        title="Latency vs load: proprietary routing vs L3 lookup",
        headers=("config", "offered load", "avg latency cycles", "accepted", "saturated"),
        rows=baseline["rows"] + proprietary["rows"],
        notes=[
            f"saturation throughput gain from proprietary routing: "
            f"{gain:+.1f}% (paper: +11% to +14.5%)",
            f"netsim engine: {netsim_engine_tag()}",
        ],
    )


def run(fast: bool = True) -> ExperimentResult:
    return merge([run_unit(u, fast=fast) for u in units(fast)], fast=fast)
