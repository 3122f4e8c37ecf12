"""Differential fuzz harness: the vectorized core vs the scalar oracle.

Hypothesis draws random topologies (mesh / Clos / adaptive Clos /
mapped Clos / single router), traffic patterns, loads and seeds, runs
the identical workload through both engines — the scalar object
simulator (``engine="scalar"``) and the compiled C kernel — and
requires bit-identical results: every latency sample, every
per-terminal and per-router flit count, the final cycle and the
leftover in-flight flits. Every way to run is covered: Bernoulli load
points, trace replay (truncation included) and partition epochs, idle
stretches with and without a telemetry sink, plus a fixed corpus of
shapes whose kernel bitmasks span several 64-bit words.

The fast tier runs a small derandomized corpus (the same examples every
run, so CI failures reproduce locally); ``-m slow`` widens the sweep to
larger shapes, more packet sizes and more examples.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tests.dcn.test_partition import _drain
from tests.netsim.engines import ENGINES

from repro import ckernel
from repro.netsim import fast_core
from repro.netsim.config import RouterConfig, SimConfig
from repro.netsim.mesh_network import mesh_network
from repro.netsim.network import (
    clos_network,
    single_router_network,
    waferscale_clos_network,
)
from repro.netsim.packet import PacketIds
from repro.netsim.partition import WaferPartition
from repro.netsim.sim import Simulator, run_sim
from repro.netsim.telemetry import Telemetry
from repro.netsim.trace import replay_trace
from repro.netsim.traffic import BernoulliInjector, make_pattern

#: Patterns drawn for the Bernoulli fuzz (a terminal count a pattern
#: rejects is assumed away).
PATTERNS = ("uniform", "transpose", "hotspot", "tornado", "neighbor")


def _build(spec: dict):
    config = RouterConfig(
        num_vcs=spec["V"], buffer_flits_per_port=spec["buf"]
    )
    kind = spec["kind"]
    if kind == "mesh":
        return mesh_network(
            spec["rows"],
            spec["cols"],
            terminals_per_router=spec["tpr"],
            neighbor_channels=spec["nc"],
            config=config,
            io_latency=spec["io"],
        )
    if kind == "clos":
        return waferscale_clos_network(
            spec["n"],
            spec["k"],
            num_vcs=spec["V"],
            buffer_flits_per_port=spec["buf"],
            io_latency=spec["io"],
        )
    if kind == "clos_adaptive":
        return clos_network(
            "fuzz-adaptive",
            spec["n"],
            spec["k"],
            config,
            inter_switch_latency=1,
            io_latency=spec["io"],
            spine_selection="adaptive",
        )
    if kind == "clos_mapped":
        mod = spec["mod"]
        return clos_network(
            "fuzz-mapped",
            spec["n"],
            spec["k"],
            config,
            inter_switch_latency=1,
            io_latency=spec["io"],
            pair_latency_fn=lambda leaf, spine: 1 + (leaf + 2 * spine) % mod,
        )
    assert kind == "single"
    return single_router_network(
        spec["n"],
        num_vcs=spec["V"],
        buffer_flits_per_port=spec["buf"],
        io_latency=spec["io"],
    )


@st.composite
def network_specs(draw, deep: bool = False):
    kind = draw(
        st.sampled_from(
            ["mesh", "clos", "clos_adaptive", "clos_mapped", "single"]
        )
    )
    spec = {
        "kind": kind,
        "V": draw(st.sampled_from([1, 2, 4])),
        "buf": draw(st.sampled_from([8, 16])),
        "io": draw(st.integers(min_value=1, max_value=3)),
    }
    if kind == "mesh":
        limit = 4 if deep else 3
        spec["rows"] = draw(st.integers(min_value=2, max_value=limit))
        spec["cols"] = draw(st.integers(min_value=2, max_value=limit))
        spec["tpr"] = draw(st.integers(min_value=1, max_value=2))
        spec["nc"] = draw(st.integers(min_value=1, max_value=2))
    elif kind == "single":
        spec["n"] = draw(st.integers(min_value=4, max_value=8))
    else:
        shapes = [(16, 8), (32, 8)] + ([(64, 16)] if deep else [])
        spec["n"], spec["k"] = draw(st.sampled_from(shapes))
        if kind == "clos_mapped":
            spec["mod"] = draw(st.integers(min_value=2, max_value=4))
    return spec


def _run_summary(
    spec, pattern_name, load, seed, psize, warmup, measure, drain, engine
):
    """One clean-slate run, summarised down to every observable bit."""
    network = _build(spec)
    pattern = make_pattern(pattern_name, network.n_terminals)
    packet_ids = PacketIds()
    sim = Simulator(
        network, pattern, load, packet_size_flits=psize, seed=seed,
        packet_ids=packet_ids,
    )
    stats = sim.run(
        warmup_cycles=warmup, measure_cycles=measure, drain_cycles=drain,
        engine=engine,
    )
    final = stats.final
    return {
        "latencies": list(stats.latencies_cycles),
        # One id per packet created over warmup and measurement.
        "next_packet_id": packet_ids.next,
        "flits_offered": stats.flits_offered,
        "flits_delivered": stats.flits_delivered,
        "packets_created": stats.packets_created,
        "final_cycle": network.cycle,
        "in_flight": final.in_flight_flits,
        "per_terminal": list(
            zip(final.flits_sent, final.flits_received, final.packets_received)
        ),
        "per_router": list(final.flits_forwarded),
    }


def _assert_engines_agree(spec, pattern_name, load, seed, psize, cycles):
    warmup, measure, drain = cycles
    n_terminals = _build(spec).n_terminals
    try:
        make_pattern(pattern_name, n_terminals)
    except ValueError:  # e.g. transpose on a non-power-of-two size
        assume(False)
    results = {
        label: _run_summary(
            spec, pattern_name, load, seed, psize, warmup, measure, drain,
            engine,
        )
        for label, engine in ENGINES.items()
    }
    reference = results.pop("scalar")
    # Conservation holds on the oracle; equality then carries it over.
    assert reference["flits_offered"] + sum(
        t[0] for t in reference["per_terminal"]
    ) >= reference["flits_delivered"]
    for engine, result in results.items():
        assert result["latencies"] == reference["latencies"], (
            engine,
            spec,
            pattern_name,
            load,
            seed,
        )
        assert result == reference, (engine, spec, pattern_name, load, seed)
    return reference


@given(
    spec=network_specs(),
    pattern_name=st.sampled_from(PATTERNS),
    load=st.floats(min_value=0.02, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_bernoulli_differential(spec, pattern_name, load, seed):
    """Fast tier: a fixed fuzz corpus through both engines."""
    _assert_engines_agree(spec, pattern_name, load, seed, 4, (30, 100, 300))


#: Shapes whose kernel bitmasks span several 64-bit words: a
#: radix-128 Clos and a 128-port single router (out-port masks), and a
#: router with 32 VCs (VC masks past the old 16-VC cap).
WIDE_SPECS = {
    "clos_radix128": {"kind": "clos", "n": 256, "k": 128, "V": 2, "buf": 8, "io": 1},
    "single_128port": {"kind": "single", "n": 128, "V": 2, "buf": 8, "io": 1},
    "single_32vc": {"kind": "single", "n": 8, "V": 32, "buf": 64, "io": 1},
}


@pytest.mark.parametrize("name", sorted(WIDE_SPECS))
@pytest.mark.parametrize("pattern_name", ["uniform", "hotspot"])
def test_wide_router_differential(name, pattern_name):
    """Multi-word bitmask shapes run bit-identically (P > 64 used to
    crash the C path with an UnboundLocalError)."""
    _assert_engines_agree(
        WIDE_SPECS[name], pattern_name, 0.3, 5, 4, (20, 60, 200)
    )


#: A saturated Clos stopped with no drain: the run ends with flits
#: still queued at the sources and in the network, which no golden
#: scenario does (they all drain to zero).
BACKLOG_SPEC = {"kind": "clos", "n": 32, "k": 8, "V": 2, "buf": 8, "io": 1}


@pytest.mark.parametrize("pattern_name", ["uniform", "hotspot"])
def test_backlogged_run_differential(pattern_name):
    """A run cut off mid-saturation leaves the same in-flight count
    (source backlog included) and counters on every engine."""
    reference = _assert_engines_agree(
        BACKLOG_SPEC, pattern_name, 1.0, 3, 4, (50, 200, 0)
    )
    assert reference["in_flight"] > 0


_BACKLOG_CONFIG = SimConfig(
    warmup_cycles=50, measure_cycles=200, drain_cycles=0, seed=3
)

#: A few messages per cycle for the first 40 cycles, cut off at 60.
_BACKLOG_EVENTS = [
    (cycle, src, (src + 5) % 32, 4)
    for cycle in range(0, 40, 4)
    for src in range(0, 32, 3)
]


def _bernoulli_run(network, engine):
    run_sim(network, "uniform", 1.0, config=_BACKLOG_CONFIG, engine=engine)


def _telemetry_run(network, engine):
    run_sim(
        network, "uniform", 1.0, config=_BACKLOG_CONFIG,
        telemetry=Telemetry(), engine=engine,
    )


def _replay_run(network, engine, telemetry=None):
    replay_trace(
        network, _BACKLOG_EVENTS, max_cycles=60, telemetry=telemetry,
        engine=engine,
    )


def _replay_telemetry_run(network, engine):
    _replay_run(network, engine, telemetry=Telemetry(sample_interval=4))


def _partition_run(network, engine):
    partition = WaferPartition(network, engine=engine)
    partition.enqueue(_BACKLOG_EVENTS, range(len(_BACKLOG_EVENTS)))
    partition.advance(60)


#: Every way to run a network: label -> run(network, engine).
RUN_ENTRY_POINTS = {
    "bernoulli": _bernoulli_run,
    "bernoulli_telemetry": _telemetry_run,
    "replay": _replay_run,
    "replay_telemetry": _replay_telemetry_run,
    "partition": _partition_run,
}


def _object_state(network):
    """Every counter, queue, wire and packet list of the object model."""
    routers = [
        (
            r.flits_forwarded, r._buffered_total, list(r.occupancy),
            list(r.out_credits), [[len(q) for q in port] for port in r.queues],
            sorted(r.rc_pending), sorted(r.active_out_ports),
        )
        for r in network.routers
    ]
    terminals = [
        (
            t.flits_sent, t.packets_sent, t.flits_received,
            list(t.packets_received), len(t.source_queue), t.credits,
        )
        for t in network.terminals
    ]
    wires = [len(link._in_flight) for link, _, _, _ in network.links]
    return routers, terminals, wires


@pytest.mark.parametrize("entry", sorted(RUN_ENTRY_POINTS))
def test_compiled_run_moves_only_the_clock(entry):
    """A compiled run hands its end state back on the result: the
    network's objects keep a fresh network's counters and packet
    lists, and only ``network.cycle`` moves."""
    if ckernel.load_kernel() is None:
        pytest.skip("no C kernel on this host")
    network = _build(BACKLOG_SPEC)
    RUN_ENTRY_POINTS[entry](network, "c")
    assert network.cycle > 0
    assert _object_state(network) == _object_state(_build(BACKLOG_SPEC))


@pytest.mark.parametrize("engine", sorted(ENGINES.values()))
@pytest.mark.parametrize("entry", sorted(RUN_ENTRY_POINTS))
def test_network_runs_once(entry, engine):
    """Once a run has moved a network's clock, every entry point
    refuses it, whichever engine ran it."""
    network = _build(BACKLOG_SPEC)
    RUN_ENTRY_POINTS[entry](network, engine)
    assert network.cycle > 0
    assert fast_core.engine_for(network) is None
    for again in sorted(RUN_ENTRY_POINTS):
        for retry in ENGINES.values():
            with pytest.raises(RuntimeError, match="already run"):
                RUN_ENTRY_POINTS[again](network, retry)


@pytest.mark.slow
@given(
    spec=network_specs(deep=True),
    pattern_name=st.sampled_from(PATTERNS),
    load=st.floats(min_value=0.02, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
    psize=st.integers(min_value=1, max_value=6),
)
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_bernoulli_differential_deep(spec, pattern_name, load, seed, psize):
    """Slow tier: larger shapes, variable packet sizes, longer runs."""
    _assert_engines_agree(
        spec, pattern_name, load, seed, psize, (80, 250, 600)
    )


@given(
    spec=network_specs(),
    load=st.floats(min_value=0.05, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_flit_conservation_differential(spec, load, seed):
    """With no warmup, offered == delivered + in-flight on every engine."""
    for engine in ENGINES.values():
        result = _run_summary(spec, "uniform", load, seed, 4, 0, 150, 200, engine)
        delivered = sum(t[1] for t in result["per_terminal"])
        assert result["flits_offered"] == delivered + result["in_flight"], (
            engine,
            spec,
        )


def _replay_summaries(events, compression, max_cycles):
    """Replay ``events`` on every engine; each run summarised exactly."""
    results = {}
    for label, engine in ENGINES.items():
        network = waferscale_clos_network(
            32, 8, num_vcs=2, buffer_flits_per_port=8, io_latency=2
        )
        packet_ids = PacketIds()
        stats = replay_trace(
            network,
            events,
            compression=compression,
            max_cycles=max_cycles,
            packet_ids=packet_ids,
            engine=engine,
        )
        results[label] = {
            "latencies": list(stats.latencies_cycles),
            "flits_offered": stats.flits_offered,
            "flits_delivered": stats.flits_delivered,
            "packets_created": stats.packets_created,
            "final_cycle": network.cycle,
            "in_flight": stats.final.in_flight_flits,
            "per_terminal": list(stats.final.flits_received),
            # Where the run left its packet-id source.
            "next_packet_id": packet_ids.next,
        }
    return results


@given(
    workload=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),  # src
            st.integers(min_value=0, max_value=31),  # dst
            st.integers(min_value=1, max_value=6),  # size
            st.integers(min_value=0, max_value=120),  # cycle
        ),
        min_size=1,
        max_size=60,
    ),
    compression=st.sampled_from([0.5, 1.0, 2.0]),
    max_cycles=st.sampled_from([90, 4000]),
)
@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_trace_replay_differential(workload, compression, max_cycles):
    """Random event schedules replay identically — truncation included."""
    events = [
        (cycle, src, dst, size)
        for src, dst, size, cycle in workload
        if src != dst
    ]
    assume(events)
    results = _replay_summaries(events, compression, max_cycles)
    reference = results.pop("scalar")
    for engine, result in results.items():
        assert result == reference, (engine, compression, max_cycles)


@pytest.mark.parametrize("max_cycles", [1, 40, 75])
def test_truncated_replay_differential(max_cycles):
    """A cap mid-schedule (or before its first event) stops both engines
    at the same cycle, with the same packets offered and the packet-id
    source left at the offered count."""
    rng = random.Random(3)
    events = [
        (cycle, src, (src + rng.randrange(1, 32)) % 32, rng.randint(1, 6))
        for cycle in range(20, 140, 3)
        for src in rng.sample(range(32), 4)
    ]
    results = _replay_summaries(events, 1.0, max_cycles)
    reference = results.pop("scalar")
    assert reference["packets_created"] < len(events)
    assert reference["next_packet_id"] == reference["packets_created"]
    for engine, result in results.items():
        assert result == reference, (engine, max_cycles)


def _partition_events(n, load, seed, gap):
    """Two Bernoulli bursts ``gap`` idle cycles apart, mixed sizes."""
    rng = random.Random(seed)
    events = []
    for start in (0, 40 + gap):
        for cycle in range(start, start + 40):
            for src in range(n):
                if rng.random() < load / 3:
                    dst = (src + rng.randrange(1, n)) % n
                    events.append(
                        (cycle, src, dst, rng.randint(1, 5), len(events))
                    )
    events.sort()
    return events


@given(
    spec=network_specs(),
    load=st.floats(min_value=0.05, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**31),
    epoch=st.sampled_from([1, 7, 32]),
    gap=st.sampled_from([0, 150]),
)
@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_partition_differential(spec, load, seed, epoch, gap):
    """Partition epochs (idle skipping included) deliver identically."""
    results = {}
    for engine in ("scalar", "c"):
        network = _build(spec)
        events = _partition_events(network.n_terminals, load, seed, gap)
        partition = WaferPartition(network, engine=engine)
        bundles, counters = _drain(partition, events, epoch=epoch)
        results[engine] = (
            [[column.tolist() for column in bundle] for bundle in bundles],
            counters,
            partition.cycle,
        )
    assert results["c"] == results["scalar"], (spec, load, seed, epoch)


def test_bernoulli_replay_and_partitions_reach_the_kernel(monkeypatch):
    """Bernoulli, replay and partition runs each use the kernel, not a
    silent fallback."""
    spec = WIDE_SPECS["single_128port"]
    if fast_core.engine_for(_build(spec)) is None:
        pytest.skip("no C kernel on this host")
    calls = []
    run = fast_core.FastEngine._c_run

    def spy(self, limit, drain=False):
        calls[-1][1] += 1
        return run(self, limit, drain)

    monkeypatch.setattr(fast_core.FastEngine, "_c_run", spy)
    calls.append(["bernoulli", 0])
    run_sim(_build(spec), "uniform", 0.1, config=_BACKLOG_CONFIG)
    calls.append(["replay", 0])
    replay_trace(_build(spec), [(0, 0, 1, 4)])
    calls.append(["partition", 0])
    partition = WaferPartition(_build(spec))
    partition.enqueue([(0, 0, 1, 4)], [7])
    partition.advance(64)
    assert partition.engine_name == "c"
    assert calls == [["bernoulli", 3], ["replay", 1], ["partition", 1]]


def _idle_gap_summaries(run, spec):
    """``run(network, engine, telemetry)`` on both engines, telemetry
    off and on: each result and report, keyed by engine and sink."""
    results = {}
    for engine in ENGINES.values():
        for sink in (False, True):
            telemetry = Telemetry(sample_interval=3) if sink else None
            stats = run(_build(spec), engine, telemetry)
            results[engine, sink] = (
                _stats_summary(stats),
                telemetry.to_dict() if sink else None,
            )
    return results


def _stats_summary(stats):
    final = stats.final
    return (
        stats.measure_start, stats.measure_end,
        list(stats.latencies_cycles), stats.flits_offered,
        stats.flits_delivered, stats.packets_created,
        final.in_flight_flits, final.flits_sent, final.packets_sent,
        final.flits_received, final.packets_received, final.flits_forwarded,
    )


def _gapped_replay(network, engine, telemetry):
    """Bursts with 50 or more idle cycles between them: stretches both
    engines jump without a sink and step with one."""
    events = [
        (burst * 120 + offset, src, (src + 7) % 32, 2 + offset)
        for burst in range(4)
        for offset in range(3)
        for src in range(burst, 32, 5)
    ]
    return replay_trace(network, events, telemetry=telemetry, engine=engine)


def _sparse_bernoulli(network, engine, telemetry):
    """Load 0.02 on a small router: idle stretches between packets."""
    return run_sim(
        network, "uniform", 0.02,
        config=SimConfig(warmup_cycles=100, measure_cycles=400,
                         drain_cycles=200, seed=11),
        telemetry=telemetry, engine=engine,
    )


@pytest.mark.parametrize(
    "run, spec",
    [
        (_gapped_replay, BACKLOG_SPEC),
        (_sparse_bernoulli, WIDE_SPECS["single_32vc"]),
    ],
)
def test_idle_gaps_differential(run, spec):
    """Idle jumps (taken only without a telemetry sink) change neither
    engine's results, and a sink's report is the same on both."""
    results = _idle_gap_summaries(run, spec)
    reference = results["scalar", False]
    assert reference[0][2], "the run delivers nothing"
    for key, (summary, report) in results.items():
        assert summary == reference[0], key
    assert results["c", True][1] == results["scalar", True][1]


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    load=st.floats(min_value=0.01, max_value=0.9),
    cycles=st.integers(min_value=1, max_value=80),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_pregen_uniform_matches_python_rng(seed, load, cycles):
    """The uniform offer stream replays CPython's MT bit-for-bit.

    With the kernel, :meth:`BernoulliInjector.stream` draws ``uniform``
    in C, transliterating ``random()`` and the ``randrange`` rejection
    loop; this pins its event stream *and* the handed-back RNG state
    against a pure-Python replay of the same draws.
    """
    n_terminals = 8
    pattern = make_pattern("uniform", n_terminals)
    injector = BernoulliInjector(pattern, load, 4, seed=seed)
    reference_rng = random.Random()
    reference_rng.setstate(injector.rng.getstate())

    rows = injector.stream(cycles, n_terminals)

    expected = []
    probability = injector.packet_probability
    for now in range(cycles):
        for term in range(n_terminals):
            if reference_rng.random() < probability:
                expected.append(
                    (now, term, pattern.destination(term, reference_rng))
                )
    assert rows[:, :3].tolist() == [list(e) for e in expected]
    assert (rows[:, 3] == 4).all()
    assert injector.rng.getstate() == reference_rng.getstate()
