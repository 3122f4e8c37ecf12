"""The array-built DCN plan equals the tuple-list and per-channel code it
replaced.

:func:`repro.dcn.traffic.generate` returns one int64 array, built by
broadcasts and C draws; the reference generators below are the
per-packet tuple-list loops it replaced, kept here verbatim.
:class:`~repro.dcn.fabric.DCNFabric` derives its channel table from the
shape and its liveness tables from one mask; the references are
:func:`~repro.topology.clos.folded_clos`'s link table and the per-channel
``_channel_alive`` oracle.
"""

import random

import numpy as np
import pytest

from repro import ckernel
from repro.dcn.fabric import DCNFabric, DCNShape
from repro.dcn.failures import FailureConfig, sample_failures
from repro.dcn.traffic import PATTERNS, TP_DEGREE, generate
from repro.tech.chiplet import scaled_leaf_die, tomahawk5
from repro.topology.clos import folded_clos

# ------------------------------------------------ reference generators


def _uniform(hosts, duration, rng, load, size_flits):
    events = []
    n = len(hosts)
    for cycle in range(duration):
        for i, src in enumerate(hosts):
            if rng.random() < load:
                j = rng.randrange(n - 1)
                if j >= i:
                    j += 1
                events.append((cycle, src, hosts[j], size_flits))
    return events


def _waves(hosts, duration, interval, size_flits, dst_of):
    events = []
    for r, start in enumerate(range(0, duration, interval)):
        for i, src in enumerate(hosts):
            j, cycle = dst_of(r, i), start + i % interval
            if j != i and cycle < duration:
                events.append((cycle, src, hosts[j], size_flits))
    return events


def _alltoall(hosts, duration, rng, load, size_flits):
    n = len(hosts)
    interval = max(1, int(round(1.0 / max(load, 1e-9))))
    return _waves(
        hosts, duration, interval, size_flits,
        lambda r, i: (i + 1 + r % (n - 1)) % n,
    )


def _incast(hosts, duration, rng, load, size_flits):
    n = len(hosts)
    interval = max(1, int(round(n / max(load * n, 1e-9))))
    return _waves(hosts, duration, interval, size_flits, lambda r, i: r % n)


def _dp_allreduce(hosts, duration, rng, load, size_flits):
    n = len(hosts)
    interval = max(1, int(round(1.0 / max(load, 1e-9))))
    return _waves(hosts, duration, interval, size_flits, lambda r, i: (i + 1) % n)


def _pp_stages(hosts, duration, rng, load, size_flits):
    events = []
    n = len(hosts)
    n_stages = min(8, n)
    ranks = n // n_stages
    activation = size_flits * 2
    interval = max(1, int(round(1.0 / max(load, 1e-9))))
    microbatches = max(1, duration // interval)
    for m in range(microbatches):
        for k in range(n_stages - 1):
            base = (m + k) * interval
            if base >= duration:
                break
            for r in range(ranks):
                cycle = base + r % interval
                if cycle >= duration:
                    continue
                events.append(
                    (cycle, hosts[k * ranks + r], hosts[(k + 1) * ranks + r], activation)
                )
    return events


def _tp_burst(hosts, duration, rng, load, size_flits):
    events = []
    n = len(hosts)
    group_size = min(TP_DEGREE, n)
    interval = max(1, int(round((group_size - 1) / max(load, 1e-9))))
    for start in range(0, duration, interval):
        for g in range(0, n - group_size + 1, group_size):
            members = hosts[g:g + group_size]
            for i, src in enumerate(members):
                for j, dst in enumerate(members):
                    if i == j:
                        continue
                    cycle = start + (i + j) % interval
                    if cycle >= duration:
                        continue
                    events.append((cycle, src, dst, size_flits))
    return events


def _elephant_mouse(hosts, duration, rng, load, size_flits):
    events = []
    n = len(hosts)
    n_elephants = max(1, n // 10)
    elephant_size = size_flits * 4
    sources = rng.sample(range(n), n_elephants)
    for i in sources:
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        period = rng.randrange(4, 9)
        for cycle in range(rng.randrange(period), duration, period):
            events.append((cycle, hosts[i], hosts[j], elephant_size))
    elephants = set(sources)
    mouse_hosts = [h for k, h in enumerate(hosts) if k not in elephants]
    for cycle in range(duration):
        for src in mouse_hosts:
            if rng.random() < load:
                dst = src
                while dst == src:
                    dst = hosts[rng.randrange(n)]
                events.append((cycle, src, dst, size_flits))
    return events


def _reference(pattern, hosts, duration, seed, load, size_flits):
    events = globals()[f"_{pattern}"](
        list(hosts), duration, random.Random(seed), load, size_flits
    )
    return sorted(events)


HOST_SETS = {
    "n2": (0, 1),
    "n3": (3, 9, 12),
    "n16": tuple(range(16)),
    "dead-hosts": (0, 3, 4, 9, 15, 22, 23, 40, 41, 57),
    "n37": tuple(range(0, 74, 2)),
    "unsorted": (40, 3, 22, 0, 15, 9, 41),
}


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_generate_matches_the_tuple_list_generators(pattern, kernel, monkeypatch):
    if not kernel:
        monkeypatch.setattr(ckernel, "load_kernel", lambda: None)
    elif ckernel.load_kernel() is None:
        pytest.skip("no C kernel on this host")
    for hosts in HOST_SETS.values():
        for load in (0.03, 0.2, 0.7, 1.0):
            for duration, seed in ((1, 0), (47, 1), (130, 2)):
                got = generate(pattern, hosts, duration, seed, load=load, size_flits=3)
                assert got.dtype == np.int64 and got.shape == (len(got), 4)
                expected = _reference(pattern, hosts, duration, seed, load, 3)
                assert got.tolist() == [list(e) for e in expected], (
                    pattern, hosts, load, duration, seed
                )


# ------------------------------------------------------- channel table


@pytest.mark.parametrize(
    "shape",
    [
        DCNShape(n_hosts=16, wafer_radix=16, ssc_radix=8, back_to_back=True),
        DCNShape(n_hosts=72, wafer_radix=72, ssc_radix=12, back_to_back=True),
        DCNShape(n_hosts=16, wafer_radix=8, ssc_radix=4),
        DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8),
        DCNShape(n_hosts=64, wafer_radix=16, ssc_radix=8),
        DCNShape(n_hosts=288, wafer_radix=24, ssc_radix=12),
        DCNShape(n_hosts=2592, wafer_radix=72, ssc_radix=12),
    ],
    ids=lambda shape: f"{shape.n_hosts}x{shape.wafer_radix}"
    + ("-b2b" if shape.back_to_back else ""),
)
def test_channel_table_matches_folded_clos(shape):
    fabric = DCNFabric(shape)
    if shape.back_to_back:
        expected = [[shape.hosts_per_leaf], [shape.hosts_per_leaf]]
    else:
        topology = folded_clos(
            shape.n_hosts,
            ssc=scaled_leaf_die(
                shape.wafer_radix,
                tomahawk5().port_bandwidth_gbps,
                reference=tomahawk5(),
            ),
        )
        expected = [[0] * shape.n_spines for _ in range(shape.n_leaves)]
        for link in topology.links:
            expected[link.a][link.b - shape.n_leaves] = link.channels
    assert fabric.channels == expected
    counts = np.array(expected)
    H = shape.hosts_per_leaf
    assert (H + counts.sum(axis=1) == shape.wafer_terminals).all()
    if not shape.back_to_back:
        assert (counts.sum(axis=0) == shape.wafer_terminals).all()


# ----------------------------------------------------- liveness tables


@pytest.mark.parametrize(
    "shape",
    [
        DCNShape(n_hosts=16, wafer_radix=16, ssc_radix=8, back_to_back=True),
        DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8),
        DCNShape(n_hosts=64, wafer_radix=16, ssc_radix=8),
    ],
    ids=["back_to_back", "smoke", "4-spine"],
)
@pytest.mark.parametrize("seed", range(6))
def test_liveness_tables_match_channel_alive(shape, seed):
    config = FailureConfig(seed=seed, defect_density_per_mm2=0.02, link_failure_prob=0.3)
    failures = sample_failures(shape, config)
    fabric = DCNFabric(shape, failures)
    width = fabric.alive.shape[2]
    for leaf, spine in np.ndindex(*fabric.n_alive.shape):
        ids = [
            c for c in range(fabric.channels[leaf][spine])
            if fabric._channel_alive(leaf, spine, c)
        ]
        assert fabric.n_alive[leaf, spine] == len(ids)
        assert fabric.alive[leaf, spine].tolist() == ids + [-1] * (width - len(ids))
    dead = set(failures.dead_terminals)
    assert fabric.alive_hosts == tuple(
        host for host in range(shape.n_hosts)
        if (shape.leaf_of_host(host), shape.local_of_host(host)) not in dead
    )
    assert fabric.host_alive.tolist() == [
        host in fabric.alive_hosts for host in range(shape.n_hosts)
    ]
