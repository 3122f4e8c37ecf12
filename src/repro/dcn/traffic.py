"""DCN-level traffic generators.

:func:`generate` returns one ``(n, 4)`` int64 array of ``(cycle,
src_host, dst_host, size_flits)`` rows over *global* host ids, sorted,
deterministic in ``(pattern args, seed)``, with ``src != dst`` and both
endpoints drawn only from the ``hosts`` survivor list the caller passes
(so failed ports neither send nor sink).  The coordinator routes and
tags them; generators know nothing about wafers.

Patterns are the heavy-traffic scenarios the roadmap names:

* ``uniform`` — independent Bernoulli arrivals per host per cycle,
  uniform destinations (the classic baseline); drawn in C by
  :func:`repro.ckernel.draw_uniform` when the kernel loads.
* ``alltoall`` — synchronized collective rounds: in round ``r`` every
  host ``i`` sends one packet to the host ``r + 1`` positions ahead,
  the ring-shifted exchange an HBM-fed NPU pod performs (the fm16
  scenario); rounds start every ``interval`` cycles.
* ``incast`` — many-to-one fan-in: every ``interval`` cycles all other
  hosts send to one victim (rotating per round), the straggler-making
  pattern that stresses egress buffering.
* ``elephant_mouse`` — a few long-lived heavy flows (elephants) under
  a background of one-packet mice, the canonical DCN mix; the mice are
  drawn in C like ``uniform`` when the kernel loads.

The LLM-training patterns model the three parallelism axes of a
distributed training job, à la Theseus (PAPERS.md) — the traffic the
paper's Table VIII GPU-cluster fabric must serve:

* ``dp_allreduce`` — data-parallel gradient synchronization: a ring
  all-reduce over all hosts, each step every host sending one gradient
  chunk to its ring successor; steps are staggered and paced by
  ``load``.
* ``pp_stages`` — pipeline parallelism: hosts split into contiguous
  stages, rank ``r`` of stage ``k`` streaming activations
  point-to-point to rank ``r`` of stage ``k+1``, one microbatch per
  interval, skewed by stage depth exactly like a 1F1B schedule's
  steady state.
* ``tp_burst`` — tensor parallelism: small groups of neighbouring
  hosts (TP degree 8) exchanging dense all-to-all bursts every
  interval — mostly intra-leaf traffic that stresses a single wafer's
  ingress rather than the spine tier.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro import ckernel

PATTERNS = (
    "uniform",
    "alltoall",
    "incast",
    "elephant_mouse",
    "dp_allreduce",
    "pp_stages",
    "tp_burst",
)

#: Tensor-parallel group width for ``tp_burst`` (a typical TP degree).
TP_DEGREE = 8


def generate(
    pattern: str,
    hosts: Sequence[int],
    duration: int,
    seed: int,
    load: float = 0.1,
    size_flits: int = 4,
) -> np.ndarray:
    """Dispatch to a named pattern; see module docstring for the menu."""
    if pattern not in PATTERNS:
        raise ValueError(
            f"unknown DCN traffic pattern {pattern!r}; choose from {PATTERNS}"
        )
    if len(hosts) < 2:
        raise ValueError("need at least two alive hosts to generate traffic")
    if duration < 1:
        raise ValueError("duration must be >= 1")
    make = globals()[f"_{pattern}"]
    events = make(list(hosts), duration, random.Random(seed), load, size_flits)
    events = np.asarray(events, dtype=np.int64).reshape(-1, 4)
    return events[np.lexsort(events.T[::-1])]


def _columns(hosts, size_flits, cycle, src, dst, keep=True):
    """Event rows where ``keep`` holds; ``cycle``, ``src`` and ``dst``
    (host indices) and ``keep`` broadcast together."""
    cycle, src, dst, keep = np.broadcast_arrays(cycle, src, dst, keep)
    ids = np.asarray(hosts, dtype=np.int64)
    size = np.full(np.count_nonzero(keep), size_flits, np.int64)
    return np.column_stack((cycle[keep], ids[src[keep]], ids[dst[keep]], size))


def _uniform(hosts, duration, rng, load, size_flits):
    drawn = ckernel.draw_uniform(rng, duration, len(hosts), load)
    if drawn is not None:  # the loop below, run in C
        return _columns(hosts, size_flits, *drawn)
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
    """One round every ``interval`` cycles: in round ``r`` host ``i``
    sends to ``hosts[dst_of(r, i)]`` (none when that is ``i``),
    staggered to cycle ``start + i % interval`` so a round is a wave,
    not a single-cycle wall (as the fm16 system scenario does).
    ``dst_of`` takes a column of rounds and a row of host indices."""
    r, i = np.arange(-(-duration // interval))[:, None], np.arange(len(hosts))
    cycle, dst = r * interval + i % interval, dst_of(r, i)
    return _columns(hosts, size_flits, cycle, i, dst, (dst != i) & (cycle < duration))


def _alltoall(hosts, duration, rng, load, size_flits):
    # One full exchange is n-1 rounds, round r shifting by r+1; `load`
    # sets the duty cycle via the inter-round interval (a round per
    # 1/load cycles, min 1).
    n = len(hosts)
    interval = max(1, int(round(1.0 / max(load, 1e-9))))
    return _waves(
        hosts, duration, interval, size_flits,
        lambda r, i: (i + 1 + r % (n - 1)) % n,
    )


def _incast(hosts, duration, rng, load, size_flits):
    # Round r: every other host sends to victim r (rotating).
    n = len(hosts)
    interval = max(1, int(round(n / max(load * n, 1e-9))))
    return _waves(hosts, duration, interval, size_flits, lambda r, i: r % n)


def _dp_allreduce(hosts, duration, rng, load, size_flits):
    # Ring all-reduce: reduce-scatter + all-gather is 2(n-1) steps; in
    # step s every host i sends one chunk to its ring successor.
    # `load` paces the steps (one per 1/load cycles, min 1).
    n = len(hosts)
    interval = max(1, int(round(1.0 / max(load, 1e-9))))
    return _waves(hosts, duration, interval, size_flits, lambda r, i: (i + 1) % n)


def _pp_stages(hosts, duration, rng, load, size_flits):
    # Pipeline stages: contiguous host blocks, rank r of stage k
    # streams activations to rank r of stage k+1.  Microbatch m leaves
    # stage k at cycle (m + k) * interval — the steady-state skew of a
    # 1F1B schedule.  Activations are heavier than gradient chunks.
    n_stages = min(8, len(hosts))
    ranks = len(hosts) // n_stages
    interval = max(1, int(round(1.0 / max(load, 1e-9))))
    m, k, r = np.ix_(
        np.arange(max(1, duration // interval)),
        np.arange(n_stages - 1),
        np.arange(ranks),
    )
    cycle, src = (m + k) * interval + r % interval, k * ranks + r
    return _columns(hosts, size_flits * 2, cycle, src, src + ranks, cycle < duration)


def _tp_burst(hosts, duration, rng, load, size_flits):
    # Tensor-parallel bursts: consecutive hosts form TP groups of
    # TP_DEGREE; every interval each member sends to every other
    # member (dense intra-group all-to-all, staggered inside the
    # interval).  Interval scales with the per-burst volume so the
    # offered load tracks `load`.
    group_size = min(TP_DEGREE, len(hosts))
    interval = max(1, int(round((group_size - 1) / max(load, 1e-9))))
    start, g, i, j = np.ix_(
        np.arange(0, duration, interval),
        np.arange(len(hosts) // group_size) * group_size,
        np.arange(group_size),
        np.arange(group_size),
    )
    cycle = start + (i + j) % interval
    keep = (i != j) & (cycle < duration)
    return _columns(hosts, size_flits, cycle, g + i, g + j, keep)


def _elephant_mouse(hosts, duration, rng, load, size_flits):
    events = []
    n = len(hosts)
    # ~10% of hosts source an elephant: a persistent pinned-pair flow
    # sending a max-size packet every few cycles for the whole run.
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
    # Everyone else contributes mice at the configured load.
    elephants = set(sources)
    mice = [k for k in range(n) if k not in elephants]
    drawn = ckernel.draw_uniform(rng, duration, mice, load, mice_among=n)
    if drawn is not None:  # the loop below, run in C
        return np.concatenate(
            (np.array(events, np.int64).reshape(-1, 4),
             _columns(hosts, size_flits, *drawn))
        )
    for cycle in range(duration):
        for k in mice:
            if rng.random() < load:
                dst = k
                while dst == k:
                    dst = rng.randrange(n)
                events.append((cycle, hosts[k], hosts[dst], size_flits))
    return events
