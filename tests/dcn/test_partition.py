"""WaferPartition: epoch-driven stepping, engine parity, conservation."""

import numpy as np
import pytest

from repro.engines import netsim_engine_tag
from repro.netsim.network import waferscale_clos_network
from repro.netsim.partition import WaferPartition


def _network():
    return waferscale_clos_network(
        16, 8, num_vcs=4, buffer_flits_per_port=16
    )


def _workload(duration=64, seed=9, n=16):
    import random

    rng = random.Random(seed)
    events = []
    tag = 100
    for cycle in range(duration):
        for src in range(n):
            if rng.random() < 0.1:
                dst = (src + rng.randrange(1, n)) % n
                events.append((cycle, src, dst, 4, tag))
                tag += 1
    events.sort()
    return events


def _drain(partition, events, epoch=16, deadline=5000):
    """Feed ``events`` (rows ``(cycle, src, dst, size, tag)``) epoch by
    epoch and run until in-flight hits 0."""
    events = np.array(events, dtype=np.int64).reshape(-1, 5)
    bundles = []
    cursor = 0
    end = 0
    while cursor < len(events) or partition.inflight_flits:
        end += epoch
        assert end < deadline, "partition failed to drain"
        due = int(np.searchsorted(events[:, 0], end))
        batch, cursor = events[cursor:due], due
        partition.enqueue(batch[:, :4], batch[:, 4])
        terms, tags, arrives, counters = partition.advance(end)
        bundles.append((terms, tags, arrives))
    return bundles, counters


def test_enqueue_rejects_bad_schedules():
    partition = WaferPartition(_network())
    partition.enqueue([(0, 0, 5, 4), (3, 1, 6, 4)], [1, 2])
    partition.advance(8)
    with pytest.raises(ValueError):
        partition.enqueue([(2, 0, 5, 4)], [3])  # in the past
    with pytest.raises(ValueError):
        partition.enqueue([(20, 0, 5, 4), (9, 1, 6, 4)], [4, 5])  # unsorted
    with pytest.raises(ValueError):
        partition.enqueue([(20, 0, 5, 4), (20, 0, 5, 4)], [5, 4])  # tags unsorted
    partition.enqueue([(30, 0, 5, 4)], [6])
    with pytest.raises(ValueError):
        partition.enqueue([(25, 1, 6, 4)], [7])  # behind prior schedule
    with pytest.raises(ValueError):
        partition.enqueue([(30, 0, 5, 4)], [5])  # behind it by tag
    with pytest.raises(ValueError):
        partition.enqueue([(40, 0, 5, 4)], [8, 9])  # a tag per row


def test_delivery_bundle_echoes_tags_sorted():
    partition = WaferPartition(_network())
    events = _workload(duration=32)
    bundles, counters = _drain(partition, events)
    seen_tags = np.concatenate([tags for _, tags, _ in bundles])
    assert sorted(seen_tags.tolist()) == sorted(e[4] for e in events)
    for terms, tags, arrives in bundles:
        rows = list(zip(arrives.tolist(), terms.tolist(), tags.tolist()))
        assert rows == sorted(rows)
    assert counters["inflight"] == 0


def test_conservation_and_counters():
    partition = WaferPartition(_network())
    events = _workload(duration=48, seed=3)
    _, counters = _drain(partition, events)
    assert counters["offered_packets"] == len(events)
    assert counters["offered_flits"] == sum(e[3] for e in events)
    assert counters["delivered_packets"] == counters["offered_packets"]
    assert counters["delivered_flits"] == counters["offered_flits"]


@pytest.mark.parametrize("epoch", [4, 16, 128])
def test_epoch_length_does_not_change_deliveries(epoch):
    reference, _ = _drain(WaferPartition(_network()), _workload(), epoch=16)
    probe, _ = _drain(WaferPartition(_network()), _workload(), epoch=epoch)

    def flat(bundles):
        terms = np.concatenate([b[0] for b in bundles])
        tags = np.concatenate([b[1] for b in bundles])
        arrives = np.concatenate([b[2] for b in bundles])
        order = np.lexsort((tags, terms, arrives))
        return terms[order].tolist(), tags[order].tolist(), arrives[order].tolist()

    assert flat(reference) == flat(probe)


def test_scalar_and_fast_engines_agree():
    fast = WaferPartition(_network(), engine="c")
    scalar = WaferPartition(_network(), engine="scalar")
    if netsim_engine_tag() == "c":  # kernel built
        assert fast.engine_name == "c"
    assert scalar.engine_name == "scalar"
    events = _workload(duration=40, seed=5)
    fast_bundles, fast_counters = _drain(fast, events)
    scalar_bundles, scalar_counters = _drain(scalar, events)
    assert len(fast_bundles) == len(scalar_bundles)
    for (ft, fg, fa), (st, sg, sa) in zip(fast_bundles, scalar_bundles):
        assert ft.tolist() == st.tolist()
        assert fg.tolist() == sg.tolist()
        assert fa.tolist() == sa.tolist()
    assert fast_counters == scalar_counters
