"""Golden-parity scenarios: fixed seeds, fixed cycle budgets.

Each scenario builds a small network, drives it with Bernoulli traffic
for an exact number of warmup/measure/drain cycles, and summarises the
run as plain JSON-able data (every latency sample, every flit count).
``tests/netsim/goldens/*.json`` holds the output recorded *before* the
hot-path optimization; ``test_golden_parity.py`` asserts the simulator
still reproduces it bit for bit.

Regenerate (only when the simulated behaviour is *meant* to change)
with::

    PYTHONPATH=src python tests/netsim/goldens/record_goldens.py
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.engines import netsim_engine_tag
from repro.netsim import fast_core
from repro.netsim.config import RouterConfig
from repro.netsim.mesh_network import mesh_network
from repro.netsim.network import clos_network, waferscale_clos_network
from repro.netsim.sim import Simulator
from repro.netsim.trace import (
    SyntheticTraceSpec,
    replay_trace,
    synthetic_nersc_trace,
)
from repro.netsim.traffic import make_pattern


def _small_mesh():
    """4x4 mesh, 2 terminals per router (32 terminals)."""
    return mesh_network(
        4,
        4,
        terminals_per_router=2,
        neighbor_channels=2,
        config=RouterConfig(num_vcs=2, buffer_flits_per_port=8),
        io_latency=2,
    )


def _small_clos():
    """32-terminal waferscale Clos of radix-8 SSCs."""
    return waferscale_clos_network(
        32, 8, num_vcs=2, buffer_flits_per_port=8, io_latency=2
    )


def _clos_on_mesh():
    """Clos with the non-uniform leaf-spine latencies of a mesh mapping.

    A deterministic arithmetic stand-in for ``mapped_pair_latency_fn``
    (no placement solve needed): latency grows with the Manhattan-like
    separation of the pair indices.
    """
    return clos_network(
        "clos-on-mesh",
        32,
        8,
        RouterConfig(num_vcs=2, buffer_flits_per_port=8, pipeline_delay=3),
        inter_switch_latency=1,
        io_latency=2,
        pair_latency_fn=lambda leaf, spine: 1 + (leaf + 2 * spine) % 4,
    )


def _clos_adaptive():
    """Clos with credit-based adaptive spine selection at the leaves."""
    return clos_network(
        "clos-adaptive",
        32,
        8,
        RouterConfig(num_vcs=2, buffer_flits_per_port=8),
        inter_switch_latency=1,
        io_latency=2,
        spine_selection="adaptive",
    )


#: name -> (network factory, pattern name, load, seed)
SCENARIOS = {
    "mesh_low": (_small_mesh, "uniform", 0.05, 11),
    "mesh_high": (_small_mesh, "uniform", 0.35, 12),
    "clos_low": (_small_clos, "uniform", 0.05, 13),
    "clos_high": (_small_clos, "uniform", 0.40, 14),
    "clos_on_mesh_low": (_clos_on_mesh, "transpose", 0.05, 15),
    "clos_on_mesh_high": (_clos_on_mesh, "transpose", 0.40, 16),
    # Hotspot traffic so the credit-sensing actually steers: under
    # uniform load the adaptive and hashed paths rarely diverge.
    "clos_adaptive_low": (_clos_adaptive, "hotspot", 0.05, 17),
    "clos_adaptive_high": (_clos_adaptive, "hotspot", 0.40, 18),
}

WARMUP_CYCLES = 150
MEASURE_CYCLES = 400
DRAIN_CYCLES = 800


def run_scenario(name: str, engine: str = "auto") -> dict:
    """Run one scenario from a clean slate and summarise it exactly."""
    factory, pattern_name, load, seed = SCENARIOS[name]
    network = factory()
    pattern = make_pattern(pattern_name, network.n_terminals)
    sim = Simulator(network, pattern, load, packet_size_flits=4, seed=seed)
    stats = sim.run(
        warmup_cycles=WARMUP_CYCLES,
        measure_cycles=MEASURE_CYCLES,
        drain_cycles=DRAIN_CYCLES,
        engine=engine,
    )
    return {
        "scenario": name,
        "latencies_cycles": list(stats.latencies_cycles),
        "flits_offered": stats.flits_offered,
        "flits_delivered": stats.flits_delivered,
        "packets_delivered": stats.packets_delivered,
        "measure_start": stats.measure_start,
        "measure_end": stats.measure_end,
        "final_cycle": network.cycle,
        "in_flight_after_drain": stats.final.in_flight_flits,
        "flits_received_per_terminal": list(stats.final.flits_received),
        "flits_forwarded_per_router": list(stats.final.flits_forwarded),
    }


#: name -> (network factory, trace name, compression, max_cycles).
#: ``trace_multigrid_truncated`` stops injection mid-schedule: its
#: golden pins the truncation contract (offered counts stop at the
#: cutoff; ``test_truncated_replay_differential`` pins that the run's
#: packet-id source stops there too).
TRACE_SCENARIOS = {
    "trace_lulesh_mesh": (_small_mesh, "lulesh", 1.0, 20_000),
    "trace_nekbone_clos": (_small_clos, "nekbone", 2.0, 20_000),
    "trace_multigrid_truncated": (_small_mesh, "multigrid", 1.0, 150),
}


def run_trace_scenario(
    name: str, engine: str = "auto", telemetry=None
) -> dict:
    """Replay one synthetic mini-app trace and summarise it exactly."""
    factory, trace_name, compression, max_cycles = TRACE_SCENARIOS[name]
    network = factory()
    spec = SyntheticTraceSpec(
        n_nodes=network.n_terminals,
        iterations=3,
        iteration_gap_cycles=120,
        seed=21,
    )
    events = synthetic_nersc_trace(trace_name, spec)
    stats = replay_trace(
        network,
        events,
        compression=compression,
        max_cycles=max_cycles,
        telemetry=telemetry,
        engine=engine,
    )
    return {
        "scenario": name,
        "latencies_cycles": list(stats.latencies_cycles),
        "flits_offered": stats.flits_offered,
        "flits_delivered": stats.flits_delivered,
        "packets_created": stats.packets_created,
        "packets_delivered": stats.packets_delivered,
        "final_cycle": network.cycle,
        "in_flight_after_drain": stats.final.in_flight_flits,
        "flits_received_per_terminal": list(stats.final.flits_received),
        "flits_forwarded_per_router": list(stats.final.flits_forwarded),
    }


def _overcredit_link(network):
    """Router 0 advertises more credits than the downstream port's
    share of the buffer pool — a credit protocol violation the
    simulator must detect as a buffer overflow, never absorb."""
    router = network.routers[0]
    for port in range(router.n_ports):
        if router.out_link[port] is not None and not router.out_is_terminal[port]:
            router.out_credits[port] += 64
            return


def _overcredit_link_arrays(engine):
    """The same sabotage on a compiled engine's credit arrays: router
    0's first wired router-facing output port (port groups of router 0
    are ``0 .. P-1``)."""
    tables = engine.tables
    for port in range(engine.P):
        if tables["send_cls"][port] >= 0 and not tables["oterm"][port]:
            engine.ocred[port] += 64
            return


def _overcredit_terminal(network):
    """Terminal 0 holds more injection credits than its ingress port
    can buffer."""
    network.terminals[0].credits += 64


def _overcredit_terminal_arrays(engine):
    engine.tcred[0] += 64


#: name -> (object-graph sabotage, compiled-engine sabotage, pattern
#: name, load, seed), each on a fresh ``_small_mesh``. Saturating load:
#: the phantom credits only matter once the sabotaged port actually
#: backs up past its share of the buffer pool.
FAILURE_SCENARIOS = {
    "overcredited_link": (
        _overcredit_link, _overcredit_link_arrays, "uniform", 0.90, 19
    ),
    "overcredited_terminal": (
        _overcredit_terminal, _overcredit_terminal_arrays, "uniform", 0.90, 20
    ),
}


def run_failure_scenario(name: str, engine: str = "auto") -> dict:
    """Run one sabotaged network until its protocol violation trips.

    Both engines must fail loudly — and identically — rather than
    corrupt results silently; the golden freezes the exact error. A
    network whose graph is touched runs on the oracle, so the kernel
    leg applies the sabotage to the compiled engine's credit arrays
    instead, as the run builds it.
    """
    (sabotage, sabotage_arrays, pattern_name, load,
     seed) = FAILURE_SCENARIOS[name]
    network = _small_mesh()
    pattern = make_pattern(pattern_name, network.n_terminals)
    sim = Simulator(network, pattern, load, packet_size_flits=4, seed=seed)
    num_vcs = network.spec.config.num_vcs
    if netsim_engine_tag(engine, num_vcs) == "c":
        engine_for = fast_core.engine_for

        def sabotaged(*args, **kwargs):
            compiled = engine_for(*args, **kwargs)
            sabotage_arrays(compiled)
            return compiled

        patch = mock.patch.object(fast_core, "engine_for", sabotaged)
    else:
        sabotage(network)
        patch = contextlib.nullcontext()
    try:
        with patch:
            sim.run(
                warmup_cycles=WARMUP_CYCLES,
                measure_cycles=MEASURE_CYCLES,
                drain_cycles=DRAIN_CYCLES,
                engine=engine,
            )
    except AssertionError as exc:
        return {
            "scenario": name,
            "error_type": "AssertionError",
            "error_message": str(exc),
        }
    raise AssertionError(f"{name}: the sabotage went undetected")
