"""Synthetic traffic patterns (the paper's Fig 23 set).

Each pattern maps a source terminal to a destination distribution.
Injection is a Bernoulli process per terminal at the offered load
(flits/cycle/terminal), as in Booksim. Build patterns by name:

>>> import random
>>> make_pattern("tornado", 8).destination(1, random.Random(0))
5
>>> make_pattern("transpose", 16).destination(0b0111, random.Random(0))
13
>>> sorted(TRAFFIC_PATTERNS)[:3]
['asymmetric', 'bit-complement', 'bit-reverse']

Deterministic patterns ignore the RNG; ``uniform`` / ``hotspot`` /
``asymmetric`` draw from it, so a seeded ``random.Random`` makes runs
reproducible. Self-traffic never enters the network — it is redirected
to the next terminal so offered load is preserved:

>>> make_pattern("neighbor", 4).destination(3, random.Random(0))
0
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro import ckernel


def _require_power_of_two(n: int, pattern: str) -> None:
    if n & (n - 1):
        raise ValueError(f"{pattern} traffic needs a power-of-two terminal count")


@dataclass
class TrafficPattern:
    """A named source->destination distribution over terminals."""

    name: str
    n_terminals: int
    destination_fn: Callable[[int, random.Random], int]
    #: How :meth:`BernoulliInjector.stream` may draw this pattern in C
    #: (set by the library factories): ``"uniform"`` for uniform
    #: random, ``"table"`` for a pattern whose ``destination_fn`` never
    #: touches the RNG (one destination per source), ``None`` for the
    #: Python loop.
    c_draw: Optional[str] = None

    def destination(self, src: int, rng: random.Random) -> int:
        dst = self.destination_fn(src, rng)
        if dst == src:
            # Self-traffic never enters the network; redirect to the
            # next terminal so offered load is preserved.
            dst = (src + 1) % self.n_terminals
        return dst


def uniform(n: int) -> TrafficPattern:
    """Uniform random: every other terminal equally likely."""

    def dest(src: int, rng: random.Random) -> int:
        dst = rng.randrange(n - 1)
        return dst if dst < src else dst + 1

    return TrafficPattern("uniform", n, dest, c_draw="uniform")


def transpose(n: int) -> TrafficPattern:
    """Matrix transpose: bit-halves of the terminal id swap."""
    _require_power_of_two(n, "transpose")
    bits = n.bit_length() - 1
    half = bits // 2

    def dest(src: int, rng: random.Random) -> int:
        low = src & ((1 << half) - 1)
        high = src >> half
        return (low << (bits - half)) | high

    return TrafficPattern("transpose", n, dest, c_draw="table")


def bit_complement(n: int) -> TrafficPattern:
    """Destination is the bitwise complement of the source."""
    _require_power_of_two(n, "bit-complement")

    def dest(src: int, rng: random.Random) -> int:
        return src ^ (n - 1)

    return TrafficPattern("bit-complement", n, dest, c_draw="table")


def shuffle(n: int) -> TrafficPattern:
    """Perfect shuffle: rotate the address bits left by one."""
    _require_power_of_two(n, "shuffle")
    bits = n.bit_length() - 1

    def dest(src: int, rng: random.Random) -> int:
        return ((src << 1) | (src >> (bits - 1))) & (n - 1)

    return TrafficPattern("shuffle", n, dest, c_draw="table")


def neighbor(n: int) -> TrafficPattern:
    """Nearest neighbor: terminal i sends to i+1 (mod n)."""

    def dest(src: int, rng: random.Random) -> int:
        return (src + 1) % n

    return TrafficPattern("neighbor", n, dest, c_draw="table")


def bit_reverse(n: int) -> TrafficPattern:
    """Destination is the bit-reversal of the source address."""
    _require_power_of_two(n, "bit-reverse")
    bits = n.bit_length() - 1

    def dest(src: int, rng: random.Random) -> int:
        result = 0
        for bit in range(bits):
            if src & (1 << bit):
                result |= 1 << (bits - 1 - bit)
        return result

    return TrafficPattern("bit-reverse", n, dest, c_draw="table")


def tornado(n: int) -> TrafficPattern:
    """Tornado: each terminal sends halfway around the machine."""

    def dest(src: int, rng: random.Random) -> int:
        return (src + n // 2) % n

    return TrafficPattern("tornado", n, dest, c_draw="table")


def hotspot(n: int, hotspot_fraction: float = 0.2, n_hotspots: int = 4) -> TrafficPattern:
    """Uniform traffic with a fraction directed at a few hot terminals."""
    if not 0.0 <= hotspot_fraction <= 1.0:
        raise ValueError("hotspot_fraction must be in [0, 1]")
    hotspots = [((i + 1) * n) // (n_hotspots + 1) for i in range(n_hotspots)]

    def dest(src: int, rng: random.Random) -> int:
        if rng.random() < hotspot_fraction:
            return hotspots[rng.randrange(len(hotspots))]
        dst = rng.randrange(n - 1)
        return dst if dst < src else dst + 1

    return TrafficPattern("hotspot", n, dest)


def asymmetric(n: int, skew: float = 0.75) -> TrafficPattern:
    """Asymmetric: most traffic targets the first half of the machine.

    Models the paper's "asymmetric" pattern whose saturation is limited
    by the oversubscribed destination half rather than the fabric.
    """
    if not 0.0 < skew < 1.0:
        raise ValueError("skew must be in (0, 1)")

    def dest(src: int, rng: random.Random) -> int:
        if rng.random() < skew:
            return rng.randrange(n // 2)
        return n // 2 + rng.randrange(n - n // 2)

    return TrafficPattern("asymmetric", n, dest)


_FACTORIES: Dict[str, Callable[[int], TrafficPattern]] = {
    "uniform": uniform,
    "transpose": transpose,
    "bit-complement": bit_complement,
    "bit-reverse": bit_reverse,
    "shuffle": shuffle,
    "neighbor": neighbor,
    "tornado": tornado,
    "hotspot": hotspot,
    "asymmetric": asymmetric,
}

TRAFFIC_PATTERNS = tuple(sorted(_FACTORIES))


def make_pattern(name: str, n_terminals: int) -> TrafficPattern:
    """Build a pattern by name for the given terminal count.

    >>> make_pattern("uniform", 64).name
    'uniform'
    >>> make_pattern("zipf", 64)
    Traceback (most recent call last):
        ...
    ValueError: unknown traffic pattern 'zipf'; choose from \
('asymmetric', 'bit-complement', 'bit-reverse', 'hotspot', 'neighbor', \
'shuffle', 'tornado', 'transpose', 'uniform')
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown traffic pattern {name!r}; choose from {TRAFFIC_PATTERNS}"
        ) from None
    return factory(n_terminals)


class BernoulliInjector:
    """Per-terminal Bernoulli packet generation at an offered load."""

    def __init__(
        self,
        pattern: TrafficPattern,
        load_flits_per_cycle: float,
        packet_size_flits: int,
        seed: int = 1,
    ):
        if not 0.0 <= load_flits_per_cycle <= 1.0:
            raise ValueError("offered load must be in [0, 1] flits/cycle")
        if packet_size_flits < 1:
            raise ValueError("packet size must be >= 1 flit")
        self.pattern = pattern
        self.packet_probability = load_flits_per_cycle / packet_size_flits
        self.packet_size_flits = packet_size_flits
        self.rng = random.Random(seed)

    def stream(self, cycles: int, n_terminals: int) -> np.ndarray:
        """The offer stream of ``cycles`` cycles on ``n_terminals``.

        Per cycle, per terminal in order: one ``rng.random()`` draw
        against the packet probability, then, for a packet, its
        destination draw. Returns an offer table (int64 rows ``(cycle,
        src, dst, size)``, see :func:`repro.netsim.network.check_offers`),
        one row per packet in offer order; ``rng`` is left where that
        loop leaves it. A library pattern with a
        :attr:`TrafficPattern.c_draw` is drawn in C
        (:func:`repro.ckernel.draw_uniform`) when the kernel loads: a
        ``"table"`` pattern maps each hit through its destination per
        source, self-traffic redirect included.
        """
        pattern = self.pattern
        rng = self.rng
        destination = pattern.destination
        size = self.packet_size_flits
        if pattern.c_draw is not None and pattern.n_terminals == n_terminals:
            table = None
            if pattern.c_draw == "table":
                table = [destination(src, rng) for src in range(n_terminals)]
            drawn = ckernel.draw_uniform(
                rng, cycles, n_terminals, self.packet_probability,
                table=table,
            )
            if drawn is not None:
                return np.column_stack((*drawn, np.full(len(drawn[0]), size)))
        draw = rng.random
        probability = self.packet_probability
        flat = []  # (cycle, src, dst, size) rows, one list
        for cycle in range(cycles):
            for src in range(n_terminals):
                if draw() < probability:
                    flat += (cycle, src, destination(src, rng), size)
        return np.array(flat, dtype=np.int64).reshape(-1, 4)
