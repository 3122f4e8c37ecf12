"""The flow kernel held to its scalar oracle, event for event.

:class:`~repro.dcn.flow.FlowWafers` steps every flow wafer of an epoch
in one ``flow_advance`` call; :class:`~repro.dcn.flow.FlowWaferNode`
is the per-packet Python recurrence it replaces on kernel hosts. Both
are fed the same seeded random epoch streams: wafers left idle for
several epochs (a span longer than one epoch), a capacity clamp that
binds, exits hit over and over, leaf and spine curves. Every arrival
and the final ``agg_time``/``exit_free`` state must match exactly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import ckernel
from repro.dcn.flow import FlowWaferNode, FlowWafers, ServiceCurve

TERMINALS = 6
EPOCH = 40

#: A light curve with a sub-cycle head (hits the ``max(1.0, .)`` floor)
#: and a tight capacity, and a steeper one with room to spare.
LEAF = ServiceCurve(
    wafer_terminals=TERMINALS,
    ssc_radix=4,
    loads=(0.02, 0.1, 0.2, 0.35),
    latencies=(0.6, 3.25, 9.5, 31.0),
    capacity_flits_per_cycle=1.75,
)
SPINE = ServiceCurve(
    wafer_terminals=TERMINALS,
    ssc_radix=8,
    loads=(0.02, 0.1, 0.2, 0.35),
    latencies=(12.5, 13.0, 17.75, 40.2),
    capacity_flits_per_cycle=24.0,
)
CURVE_OF = (0, 0, 1, 0, 1)


@pytest.fixture
def lib():
    lib = ckernel.load_kernel()
    if lib is None:
        pytest.skip("no C kernel on this host")
    return lib


def _epoch_events(rng, start, tag):
    """A sorted injection batch; heavy enough, at times, to saturate."""
    burst = rng.choice((0, 1, 3, 12, 40))
    events = [
        (
            rng.randrange(start, start + EPOCH),
            rng.randrange(TERMINALS),
            rng.randrange(TERMINALS),
            rng.choice((1, 4, 4, 16)),
            tag + k,
        )
        for k in range(burst)
    ]
    return sorted(events)


def _replay(seed, lib):
    rng = random.Random(seed)
    curves = (LEAF, SPINE)
    nodes = [FlowWaferNode(curves[c], TERMINALS) for c in CURVE_OF]
    wafers = FlowWafers(lib, list(curves), CURVE_OF, TERMINALS)
    expected, got, spans = {}, {}, []
    tag = 0
    for epoch in range(12):
        start, end = epoch * EPOCH, (epoch + 1) * EPOCH
        # Some wafers sit idle for several epochs: span > one epoch.
        active = [w for w in range(len(nodes)) if rng.random() < 0.55]
        batches = {}
        for w in active:
            batches[w] = _epoch_events(rng, start, tag)
            tag += len(batches[w])
        for w in active:
            spans.append(end - nodes[w].cycle)
            nodes[w].enqueue(batches[w])
            _, tags, arrives, _ = nodes[w].advance(end)
            expected.update(zip(tags.tolist(), arrives.tolist()))
        flat = [event for w in active for event in batches[w]]
        offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
        for w in active:
            offsets[w + 1:] += len(batches[w])
        cycle, _, exit_term, size, tags = (
            np.array([e[k] for e in flat], dtype=np.int64) for k in range(5)
        )
        arrive = wafers.advance(
            np.array(active, dtype=np.int64), offsets, cycle, exit_term,
            size, end,
        )
        got.update(zip(tags.tolist(), arrive.tolist()))
    return nodes, wafers, expected, got, spans


@pytest.mark.parametrize("seed", range(8))
def test_flow_kernel_matches_node_oracle(seed, lib):
    nodes, wafers, expected, got, _ = _replay(seed, lib)
    for w, node in enumerate(nodes):
        assert wafers.last[w] == node.cycle
        assert wafers.agg_time[w] == node._agg_time
        table = [node._exit_free.get(x, 0.0) for x in range(TERMINALS)]
        assert wafers.exit_free[w].tolist() == table
    # Arrivals still in flight come out of a final drain.
    for node in nodes:
        _, tags, arrives, counters = node.advance(10**9)
        expected.update(zip(tags.tolist(), arrives.tolist()))
        assert counters["inflight"] == 0
    assert got == expected


def test_replay_covers_the_interesting_cases(lib):
    """The streams above reach the cases the recurrence has."""
    nodes, wafers, expected, got, spans = _replay(3, lib)
    assert len(got) > 300
    # A wafer stepped again after idle epochs spans more than one.
    assert max(spans) > EPOCH
    # The capacity clamp binds: a leaf's agg_time runs past the clock.
    leaf_agg = [wafers.agg_time[w] for w, c in enumerate(CURVE_OF) if c == 0]
    assert max(leaf_agg) > 12 * EPOCH


def test_out_of_bounds_batch_is_rejected(lib):
    """Nothing reaches the kernel that would index past its tables."""
    wafers = FlowWafers(lib, [LEAF, SPINE], CURVE_OF, TERMINALS)
    events = [np.array([0], dtype=np.int64), np.array([4]), np.array([1])]
    good = np.array([0, 1, 1, 1, 1, 1])
    for active, offsets, exit_term in (
        ([0], good[:-1], events[1]),  # offsets too short
        ([5], good, events[1]),  # no wafer 5
        ([0], good + 1, events[1]),  # offsets past the batch
        ([0], good, np.array([TERMINALS])),  # no such exit
    ):
        with pytest.raises(ValueError):
            wafers.advance(
                np.array(active), offsets, events[0], exit_term, events[2], 40
            )
    assert wafers.advance(np.array([0]), good, *events, 40).tolist() == [1]
    assert wafers.last.tolist() == [40, 0, 0, 0, 0]
