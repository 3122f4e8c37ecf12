"""Fig 24: waferscale switch vs switch network on NERSC-like traces.

Paper claims: saturation throughput of the WS switch is +116.7 %
(LULESH), +16.7 % (MOCFE), +21.4 % (MultiGrid), +15.2 % (Nekbone) over
the TH-5 network baseline. We replay synthetic traces with each
mini-app's communication signature (see `repro.netsim.trace`) at
increasing time compression and report the highest sustained
throughput.
"""

from __future__ import annotations

from repro.engines import netsim_engine_tag
from repro.experiments.base import ExperimentResult
from repro.experiments.common import sim_scale
from repro.experiments.telemetry_io import telemetry_sink, write_point_telemetry
from repro.netsim.network import baseline_switch_network, waferscale_clos_network
from repro.netsim.packet import PacketIds
from repro.netsim.trace import (
    SyntheticTraceSpec,
    duplicate_trace,
    synthetic_nersc_trace,
    replay_trace,
)

TRACES_FAST = ("lulesh", "nekbone")
TRACES_FULL = ("lulesh", "mocfe", "multigrid", "nekbone")

NETWORK_LABELS = ("waferscale", "switch-network")


def _sustained_throughput(
    network_factory, events, n_terminals, compressions, point_slug=None
):
    """Highest delivered flit rate across compression levels."""
    best = 0.0
    packet_ids = PacketIds()  # one numbering across the replays
    for compression in compressions:
        network = network_factory()
        telemetry = telemetry_sink()
        stats = replay_trace(
            network, events, compression=compression, telemetry=telemetry,
            packet_ids=packet_ids,
        )
        if point_slug is not None:
            write_point_telemetry(
                telemetry, "fig24", f"{point_slug}_c{compression:g}"
            )
        cycles = max(stats.measure_end, 1)
        throughput = stats.flits_delivered / cycles / n_terminals
        best = max(best, throughput)
    return best


def units(fast: bool = True):
    """One unit per (trace, network) replay; merge pairs them up."""
    traces = TRACES_FAST if fast else TRACES_FULL
    return [(trace_name, label) for trace_name in traces for label in NETWORK_LABELS]


def run_unit(unit, fast: bool = True):
    trace_name, label = unit
    scale = sim_scale(fast)
    n = scale["n_terminals"]
    trace_nodes = n // 2  # traces are generated at half scale then duplicated
    compressions = (4.0,) if fast else (2.0, 8.0, 32.0)
    # Trace generation is seeded, so regenerating per unit is exact.
    spec = SyntheticTraceSpec(n_nodes=trace_nodes, iterations=2 if fast else 4)
    events = duplicate_trace(
        synthetic_nersc_trace(trace_name, spec), copies=2,
        nodes_per_copy=trace_nodes,
    )
    common = dict(
        n_terminals=n,
        ssc_radix=scale["ssc_radix"],
        num_vcs=scale["num_vcs"],
        buffer_flits_per_port=scale["buffer_flits_per_port"],
    )
    if label == "waferscale":
        factory = lambda: waferscale_clos_network(**common)  # noqa: E731
    else:
        factory = lambda: baseline_switch_network(**common)  # noqa: E731
    throughput = _sustained_throughput(
        factory, events, n, compressions, point_slug=f"{trace_name}_{label}"
    )
    return {"trace": trace_name, "label": label, "throughput": throughput}


def merge(unit_results, fast: bool = True) -> ExperimentResult:
    traces = TRACES_FAST if fast else TRACES_FULL
    by_trace = {trace_name: {} for trace_name in traces}
    for partial in unit_results:
        by_trace[partial["trace"]][partial["label"]] = partial["throughput"]
    rows = []
    for trace_name in traces:
        results = by_trace[trace_name]
        gain = (
            results["waferscale"] / max(results["switch-network"], 1e-9) - 1.0
        ) * 100.0
        rows.append(
            (
                trace_name,
                round(results["waferscale"], 4),
                round(results["switch-network"], 4),
                round(gain, 1),
            )
        )
    return ExperimentResult(
        experiment_id="fig24",
        title="NERSC-like traces: sustained throughput, WS vs network",
        headers=(
            "trace",
            "WS throughput",
            "network throughput",
            "WS gain %",
        ),
        rows=rows,
        notes=[
            "paper gains: LULESH +116.7%, MOCFE +16.7%, MultiGrid +21.4%, "
            "Nekbone +15.2%",
            "traces are synthetic equivalents with each mini-app's "
            "communication signature (originals not redistributable)",
            f"netsim engine: {netsim_engine_tag()}",
        ],
    )


def run(fast: bool = True) -> ExperimentResult:
    return merge([run_unit(u, fast=fast) for u in units(fast)], fast=fast)
