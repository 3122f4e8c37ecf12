"""Fig 23: waferscale switch vs equivalent switch network, synthetic
traffic.

Paper claims: the waferscale switch's zero-load latency is ~38 % lower
(37 vs 60 cycles) with equal or higher saturation throughput on every
pattern except asymmetric (whose saturation is destination-limited).
"""

from __future__ import annotations

from repro.engines import netsim_engine_tag
from repro.experiments.base import ExperimentResult
from repro.experiments.common import sim_scale
from repro.experiments.telemetry_io import telemetry_sink, write_point_telemetry
from repro.netsim.network import baseline_switch_network, waferscale_clos_network
from repro.netsim.packet import PacketIds
from repro.netsim.sim import load_latency_sweep, saturation_throughput
from repro.netsim.traffic import make_pattern

PATTERNS_FAST = ("uniform", "transpose")
PATTERNS_FULL = ("uniform", "transpose", "bit-complement", "shuffle", "asymmetric")

NETWORK_LABELS = ("waferscale", "switch-network")


def _factory(scale, label):
    common = dict(
        n_terminals=scale["n_terminals"],
        ssc_radix=scale["ssc_radix"],
        num_vcs=scale["num_vcs"],
        buffer_flits_per_port=scale["buffer_flits_per_port"],
    )
    if label == "waferscale":
        return lambda: waferscale_clos_network(**common)
    return lambda: baseline_switch_network(**common)


def units(fast: bool = True):
    """One unit per (traffic pattern, network) simulation pair."""
    patterns = PATTERNS_FAST if fast else PATTERNS_FULL
    return [
        (pattern_name, label)
        for pattern_name in patterns
        for label in NETWORK_LABELS
    ]


def run_unit(unit, fast: bool = True):
    pattern_name, label = unit
    packet_ids = PacketIds()  # one numbering for sweep and saturation
    scale = sim_scale(fast)
    factory = _factory(scale, label)
    points = load_latency_sweep(
        factory,
        lambda n: make_pattern(pattern_name, n),
        loads=scale["loads"][:3],
        warmup_cycles=scale["warmup_cycles"],
        measure_cycles=scale["measure_cycles"],
        packet_ids=packet_ids,
    )
    telemetry = telemetry_sink()
    throughput = saturation_throughput(
        factory,
        lambda n: make_pattern(pattern_name, n),
        warmup_cycles=scale["warmup_cycles"],
        measure_cycles=scale["measure_cycles"],
        packet_ids=packet_ids,
        telemetry=telemetry,
    )
    write_point_telemetry(
        telemetry, "fig23", f"{pattern_name}_{label}_saturation"
    )
    low_load_latency = points[0].avg_latency_cycles
    return {
        "row": (
            pattern_name,
            label,
            round(low_load_latency, 1),
            round(throughput, 3),
        ),
        "pattern": pattern_name,
        "label": label,
        "low_load_latency": low_load_latency,
    }


def merge(unit_results, fast: bool = True) -> ExperimentResult:
    del fast
    zero_load = {
        partial["label"]: partial["low_load_latency"]
        for partial in unit_results
        if partial["pattern"] == "uniform"
    }
    notes = [
        "paper: zero-load latency 37 (WS) vs 60 (network) cycles; equal "
        "or higher WS saturation on all patterns but asymmetric",
        f"netsim engine: {netsim_engine_tag()}",
    ]
    if "waferscale" in zero_load and "switch-network" in zero_load:
        reduction = (
            1.0 - zero_load["waferscale"] / zero_load["switch-network"]
        ) * 100.0
        notes.append(
            f"measured low-load latency reduction (uniform): {reduction:.0f}% "
            "(paper: 38%)"
        )
    return ExperimentResult(
        experiment_id="fig23",
        title="WS switch vs equivalent switch network (synthetic traffic)",
        headers=(
            "pattern",
            "network",
            "low-load latency cycles",
            "saturation throughput",
        ),
        rows=[partial["row"] for partial in unit_results],
        notes=notes,
    )


def run(fast: bool = True) -> ExperimentResult:
    return merge([run_unit(u, fast=fast) for u in units(fast)], fast=fast)
