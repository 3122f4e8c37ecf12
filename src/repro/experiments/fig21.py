"""Fig 21: saturation throughput vs buffer size and link latency.

Paper claim: low-latency on-wafer links need far smaller buffers to
sustain saturation throughput (``B = RTT x BW / sqrt(n)``); at an
equivalent delay of 200 ns (10 cycles) large buffers are required,
while 1-cycle on-wafer links saturate with small ones.
"""

from __future__ import annotations

from repro.engines import netsim_engine_tag
from repro.experiments.base import ExperimentResult
from repro.experiments.common import sim_scale
from repro.experiments.telemetry_io import telemetry_sink, write_point_telemetry
from repro.netsim.network import clos_network
from repro.netsim.config import RouterConfig
from repro.netsim.sim import saturation_throughput
from repro.netsim.traffic import make_pattern


def _grid(fast: bool):
    scale = sim_scale(fast)
    link_latencies = (1, 10) if fast else (1, 5, 10)
    buffer_sizes = (
        (scale["num_vcs"], 2 * scale["num_vcs"], 8 * scale["num_vcs"])
        if fast
        else (
            scale["num_vcs"],
            2 * scale["num_vcs"],
            4 * scale["num_vcs"],
            8 * scale["num_vcs"],
            16 * scale["num_vcs"],
        )
    )
    return scale, link_latencies, buffer_sizes


def units(fast: bool = True):
    """One unit per (link latency, buffer size) simulation point."""
    _, link_latencies, buffer_sizes = _grid(fast)
    return [
        (latency, buffer_size)
        for latency in link_latencies
        for buffer_size in buffer_sizes
    ]


def run_unit(unit, fast: bool = True):
    latency, buffer_size = unit
    scale = sim_scale(fast)

    def factory():
        config = RouterConfig(
            num_vcs=scale["num_vcs"],
            buffer_flits_per_port=buffer_size,
            routing_delay=1,
            pipeline_delay=1,
        )
        return clos_network(
            f"fig21-l{latency}-b{buffer_size}",
            scale["n_terminals"],
            scale["ssc_radix"],
            config,
            inter_switch_latency=latency,
            io_latency=1,
        )

    telemetry = telemetry_sink()
    throughput = saturation_throughput(
        factory,
        lambda n: make_pattern("uniform", n),
        warmup_cycles=scale["warmup_cycles"],
        measure_cycles=scale["measure_cycles"],
        telemetry=telemetry,
    )
    write_point_telemetry(telemetry, "fig21", f"l{latency}_b{buffer_size}")
    return [(latency, latency * 20, buffer_size, round(throughput, 3))]


def merge(unit_results, fast: bool = True) -> ExperimentResult:
    del fast
    return ExperimentResult(
        experiment_id="fig21",
        title="Saturation throughput vs buffer size and link latency",
        headers=(
            "link latency cycles",
            "link latency ns",
            "buffer flits/port",
            "saturation throughput (flits/cycle/terminal)",
        ),
        rows=[row for rows in unit_results for row in rows],
        notes=[
            "paper: higher link delay requires larger buffers for the "
            "same saturation throughput; on-wafer latency allows small "
            "SRAM buffers",
            f"netsim engine: {netsim_engine_tag()}",
        ],
    )


def run(fast: bool = True) -> ExperimentResult:
    return merge([run_unit(u, fast=fast) for u in units(fast)], fast=fast)
