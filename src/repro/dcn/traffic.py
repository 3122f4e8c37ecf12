"""DCN-level traffic generators.

Each generator returns a list of ``(cycle, src_host, dst_host,
size_flits)`` tuples over *global* host ids, sorted, deterministic in
``(pattern args, seed)``, with ``src != dst`` and both endpoints drawn
only from the ``hosts`` survivor list the caller passes (so failed
ports neither send nor sink).  The coordinator routes and tags them;
generators know nothing about wafers.

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
  a background of one-packet mice, the canonical DCN mix.

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
from typing import List, Sequence, Tuple

import numpy as np

from repro import ckernel

Event = Tuple[int, int, int, int]

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
) -> List[Event]:
    """Dispatch to a named pattern; see module docstring for the menu."""
    if pattern not in PATTERNS:
        raise ValueError(
            f"unknown DCN traffic pattern {pattern!r}; choose from {PATTERNS}"
        )
    if len(hosts) < 2:
        raise ValueError("need at least two alive hosts to generate traffic")
    if duration < 1:
        raise ValueError("duration must be >= 1")
    events = globals()[f"_{pattern}"](
        list(hosts), duration, random.Random(seed), load, size_flits
    )
    events.sort()
    return events


def _uniform(hosts, duration, rng, load, size_flits):
    drawn = ckernel.draw_uniform(rng, duration, len(hosts), load)
    if drawn is not None:  # the loop below, run in C
        cycle, src, dst, ids = *drawn, np.asarray(hosts)
        sizes = [size_flits] * len(cycle)
        return list(zip(cycle.tolist(), ids[src].tolist(), ids[dst].tolist(), sizes))
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
    not a single-cycle wall (as the fm16 system scenario does)."""
    events = []
    for r, start in enumerate(range(0, duration, interval)):
        for i, src in enumerate(hosts):
            j, cycle = dst_of(r, i), start + i % interval
            if j != i and cycle < duration:
                events.append((cycle, src, hosts[j], size_flits))
    return events


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
    del rng
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
                    (
                        cycle,
                        hosts[k * ranks + r],
                        hosts[(k + 1) * ranks + r],
                        activation,
                    )
                )
    return events


def _tp_burst(hosts, duration, rng, load, size_flits):
    # Tensor-parallel bursts: consecutive hosts form TP groups of
    # TP_DEGREE; every interval each member sends to every other
    # member (dense intra-group all-to-all, staggered inside the
    # interval).  Interval scales with the per-burst volume so the
    # offered load tracks `load`.
    del rng
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
    mouse_hosts = [h for k, h in enumerate(hosts) if k not in elephants]
    for cycle in range(duration):
        for src in mouse_hosts:
            if rng.random() < load:
                dst = src
                while dst == src:
                    dst = hosts[rng.randrange(n)]
                events.append((cycle, src, dst, size_flits))
    return events
