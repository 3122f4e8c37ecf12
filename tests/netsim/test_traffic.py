"""Synthetic traffic patterns."""

import dataclasses
import random
from collections import Counter

import pytest

from repro import ckernel
from repro.netsim.network import single_router_network
from repro.netsim.sim import Simulator
from repro.netsim.traffic import (
    BernoulliInjector,
    TRAFFIC_PATTERNS,
    make_pattern,
)


def test_all_patterns_constructible():
    for name in TRAFFIC_PATTERNS:
        pattern = make_pattern(name, 64)
        rng = random.Random(1)
        for src in range(64):
            dst = pattern.destination(src, rng)
            assert 0 <= dst < 64
            assert dst != src


def test_unknown_pattern_rejected():
    with pytest.raises(ValueError):
        make_pattern("zipf", 64)


def test_uniform_covers_destinations():
    pattern = make_pattern("uniform", 16)
    rng = random.Random(0)
    destinations = {pattern.destination(3, rng) for _ in range(500)}
    assert destinations == set(range(16)) - {3}


def test_transpose_is_involution():
    pattern = make_pattern("transpose", 64)
    rng = random.Random(0)
    for src in range(64):
        dst = pattern.destination(src, rng)
        if dst != (src + 1) % 64:  # skip self-redirects
            assert pattern.destination(dst, rng) == src


def test_bit_complement_fixed():
    pattern = make_pattern("bit-complement", 32)
    rng = random.Random(0)
    assert pattern.destination(0, rng) == 31
    assert pattern.destination(5, rng) == 26


def test_shuffle_rotates_bits():
    pattern = make_pattern("shuffle", 8)
    rng = random.Random(0)
    # 3 = 0b011 -> 0b110 = 6
    assert pattern.destination(3, rng) == 6


def test_neighbor_wraps():
    pattern = make_pattern("neighbor", 10)
    rng = random.Random(0)
    assert pattern.destination(9, rng) == 0


def test_power_of_two_required():
    with pytest.raises(ValueError):
        make_pattern("transpose", 48)


def test_hotspot_concentrates_traffic():
    pattern = make_pattern("hotspot", 64)
    rng = random.Random(2)
    counts = Counter(pattern.destination(7, rng) for _ in range(4000))
    top = counts.most_common(4)
    share = sum(count for _, count in top) / 4000
    assert share > 0.15  # 20% hotspot fraction across 4 hotspots


def test_asymmetric_prefers_first_half():
    pattern = make_pattern("asymmetric", 64)
    rng = random.Random(3)
    first_half = sum(
        1 for _ in range(2000) if pattern.destination(40, rng) < 32
    )
    assert first_half / 2000 > 0.6


def test_bernoulli_rate():
    network = single_router_network(8)
    sim = Simulator(
        network, make_pattern("uniform", 8), 0.4, packet_size_flits=4, seed=5
    )
    cycles = 2500
    stats = sim.run(
        warmup_cycles=0, measure_cycles=cycles, drain_cycles=0,
        engine="scalar",
    )
    # 0.4 flits/cycle at 4-flit packets = 0.1 packets/cycle per terminal.
    rate = stats.packets_created / (cycles * network.n_terminals)
    assert rate == pytest.approx(0.1, rel=0.1)


def test_bernoulli_rejects_overload():
    pattern = make_pattern("uniform", 8)
    with pytest.raises(ValueError):
        BernoulliInjector(pattern, 1.5, 4)


#: Library patterns whose Bernoulli stream has a C draw.
C_DRAWN = (
    "uniform", "transpose", "bit-complement", "shuffle", "neighbor",
    "bit-reverse", "tornado",
)


def test_c_draw_is_set_by_the_library_factories():
    kinds = {name: make_pattern(name, 16).c_draw for name in TRAFFIC_PATTERNS}
    assert kinds == {
        **{name: "table" for name in C_DRAWN},
        "uniform": "uniform",
        "hotspot": None,
        "asymmetric": None,
    }


@pytest.mark.parametrize("with_kernel", [True, False])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("name", C_DRAWN)
def test_stream_matches_the_python_loop(name, n, with_kernel, monkeypatch):
    """Each C-drawn pattern's stream, and the RNG state it leaves, equal
    the per-cycle Python loop's (the loop of a pattern with no C draw);
    without the kernel the stream is that loop."""
    if not with_kernel:
        monkeypatch.setattr(ckernel, "load_kernel", lambda: None)
    drawn_in_c = []
    draw = ckernel.draw_uniform

    def spy(*args, **kwargs):
        drawn = draw(*args, **kwargs)
        drawn_in_c.append(drawn is not None)
        return drawn

    monkeypatch.setattr(ckernel, "draw_uniform", spy)
    pattern = make_pattern(name, n)
    injector = BernoulliInjector(pattern, 0.6, 2, seed=n)
    reference = BernoulliInjector(
        dataclasses.replace(pattern, c_draw=None), 0.6, 2, seed=n
    )
    drawn = injector.stream(53, n)
    expected = reference.stream(53, n)
    assert drawn.dtype == "int64" and drawn.shape[1] == 4
    assert drawn.tolist() == expected.tolist()
    assert len(expected) > 0
    assert injector.rng.getstate() == reference.rng.getstate()
    assert drawn_in_c == [ckernel.load_kernel() is not None]
