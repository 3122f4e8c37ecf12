"""DCN traffic generators: determinism and shape invariants."""

import random

import numpy as np
import pytest

from repro import ckernel
from repro.dcn import traffic
from repro.dcn.traffic import PATTERNS, generate

HOSTS = tuple(range(16))


@pytest.mark.parametrize("pattern", PATTERNS)
def test_generate_is_deterministic(pattern):
    first = generate(pattern, HOSTS, duration=200, seed=5, load=0.2)
    second = generate(pattern, HOSTS, duration=200, seed=5, load=0.2)
    assert first.dtype == np.int64 and first.shape[1] == 4
    assert np.array_equal(first, second)
    assert len(first), f"{pattern} produced no traffic at load=0.2"


@pytest.mark.parametrize("pattern", PATTERNS)
def test_generate_invariants(pattern):
    events = generate(pattern, HOSTS, duration=200, seed=7, load=0.2)
    assert events.tolist() == sorted(events.tolist())
    for cycle, src, dst, size in events.tolist():
        assert 0 <= cycle < 200
        assert src in HOSTS and dst in HOSTS
        assert src != dst
        assert size >= 1


def test_generate_respects_alive_subset():
    alive = (0, 3, 4, 9, 15)
    events = generate("uniform", alive, duration=400, seed=2, load=0.3)
    endpoints = set(events[:, 1].tolist()) | set(events[:, 2].tolist())
    assert endpoints <= set(alive)


def test_seeds_change_traffic():
    runs = {
        generate("uniform", HOSTS, duration=100, seed=s, load=0.2).tobytes()
        for s in range(6)
    }
    assert len(runs) > 1


def test_elephant_mouse_is_bimodal():
    events = generate(
        "elephant_mouse", HOSTS, duration=400, seed=1, load=0.2, size_flits=4
    )
    sizes = set(events[:, 3].tolist())
    assert 4 in sizes and 16 in sizes


def test_incast_converges_on_victims():
    from collections import Counter

    # Four complete rounds with rotating victims: exactly four hosts
    # each absorb a full n-1 fan-in, everyone else receives nothing.
    events = generate("incast", HOSTS, duration=20, seed=1, load=0.2)
    fanin = Counter(events[:, 2].tolist())
    assert max(fanin.values()) == len(HOSTS) - 1
    assert len(fanin) == 4


def test_unknown_pattern_rejected():
    with pytest.raises(ValueError):
        generate("nope", HOSTS, duration=10, seed=0)


# ------------------------------------------------- uniform draws in C


@pytest.fixture
def kernel():
    if ckernel.load_kernel() is None:
        pytest.skip("no C kernel on this host")


def _python_draws(rng, cycles, sources, probability):
    draws = []
    for cycle in range(cycles):
        for src in range(sources):
            if rng.random() < probability:
                dst = rng.randrange(sources - 1)
                draws.append((cycle, src, dst + (dst >= src)))
    return draws


@pytest.mark.parametrize("slots", [1, 7, 64, 1 << 16])
@pytest.mark.parametrize("sources", [2, 3, 16, 101])
def test_draw_uniform_replays_the_python_loop(kernel, sources, slots, monkeypatch):
    """Chunked C draws: the same hits and the same RNG state after.

    ``slots`` sets the chunk length (``slots // sources`` cycles, at
    least one), so chunk edges fall inside and between cycles' worth of
    sources, and 37 cycles never divide evenly.
    """
    monkeypatch.setattr(ckernel, "_DRAW_SLOTS", slots)
    rng, reference = random.Random(sources * slots), random.Random(sources * slots)
    cycle, src, dst = ckernel.draw_uniform(rng, 37, sources, 0.3)
    expected = _python_draws(reference, 37, sources, 0.3)
    assert list(zip(cycle.tolist(), src.tolist(), dst.tolist())) == expected
    assert rng.getstate() == reference.getstate()


def _python_mice(rng, cycles, sources, n, probability):
    draws = []
    for cycle in range(cycles):
        for src in sources:
            if rng.random() < probability:
                dst = src
                while dst == src:
                    dst = rng.randrange(n)
                draws.append((cycle, src, dst))
    return draws


@pytest.mark.parametrize("slots", [1, 7, 64, 1 << 16])
@pytest.mark.parametrize(
    "n, sources",
    [(2, [0, 1]), (3, [2]), (16, [0, 1, 4, 5, 9, 15]), (101, list(range(0, 101, 3))),
     (9, [])],
)
def test_draw_mice_replays_the_python_loop(kernel, n, sources, slots, monkeypatch):
    """The mice rule: same hits and the same RNG state after."""
    monkeypatch.setattr(ckernel, "_DRAW_SLOTS", slots)
    rng, reference = random.Random(n * slots), random.Random(n * slots)
    cycle, src, dst = ckernel.draw_uniform(rng, 37, sources, 0.3, mice_among=n)
    expected = _python_mice(reference, 37, sources, n, 0.3)
    assert list(zip(cycle.tolist(), src.tolist(), dst.tolist())) == expected
    assert rng.getstate() == reference.getstate()


def test_draw_uniform_declines_without_kernel_or_sources(monkeypatch):
    rng = random.Random(1)
    state = rng.getstate()
    assert ckernel.draw_uniform(rng, 10, 1, 0.5) is None
    assert ckernel.draw_uniform(rng, 10, [0], 0.5, mice_among=1) is None
    monkeypatch.setattr(ckernel, "load_kernel", lambda: None)
    assert ckernel.draw_uniform(rng, 10, 8, 0.5) is None
    assert rng.getstate() == state


@pytest.mark.parametrize(
    "hosts",
    [(0, 1), (3, 9, 12), tuple(range(16)), (0, 3, 4, 9, 15, 22, 23, 40)],
    ids=["n2", "n3", "n16", "dead-hosts"],
)
@pytest.mark.parametrize("slots", [5, 1 << 16])
def test_uniform_pattern_same_with_and_without_kernel(
    kernel, hosts, slots, monkeypatch
):
    monkeypatch.setattr(ckernel, "_DRAW_SLOTS", slots)
    fast_rng, slow_rng = random.Random(11), random.Random(11)
    fast = traffic._uniform(list(hosts), 53, fast_rng, 0.2, 4)
    monkeypatch.setattr(ckernel, "load_kernel", lambda: None)
    slow = traffic._uniform(list(hosts), 53, slow_rng, 0.2, 4)
    assert np.array_equal(fast, slow) and len(fast)
    assert fast_rng.getstate() == slow_rng.getstate()
