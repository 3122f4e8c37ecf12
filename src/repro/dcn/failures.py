"""Yield-driven failure injection for the multi-wafer DCN.

Failure probabilities come straight from :mod:`repro.tech.yield_model`
— the same compound-Poisson die yield and bond yield the paper's
Section VI uses to size sparing — so a DCN run degrades the way the
manufacturing model says a deployed wafer population would:

* Each terminal-bearing SSC on each wafer (the intra-wafer *leaf*
  SSCs, which own ``ssc_radix / 2`` terminals apiece) fails with
  probability ``1 - die_yield(area) * bond_yield``.  A dead SSC takes
  all of its terminals with it — host ports and inter-wafer gateways
  alike, whichever its slice covers.
* Each inter-wafer channel independently fails with
  ``link_failure_prob`` (cable/connector faults; zero by default since
  the yield model only speaks to on-wafer integration).

Sampling is a pure function of ``(shape, config)``: one
``random.Random(seed)`` stream consumed in a fixed documented order
(wafers ascending, SSC slices ascending within each wafer, then
channels in ``(leaf, spine, channel)`` order).  Identical inputs give
identical failure sets across processes, platforms, and partition
layouts — the property tests pin this, and the partitioned/monolithic
parity guarantee depends on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.tech.yield_model import DEFAULT_BOND_YIELD, die_yield


@dataclass(frozen=True)
class FailureConfig:
    """Knobs for one failure sample; defaults mirror the yield model."""

    seed: int = 0
    ssc_area_mm2: float = 25.0
    defect_density_per_mm2: float = 0.001
    bond_yield: float = DEFAULT_BOND_YIELD
    link_failure_prob: float = 0.0

    @property
    def ssc_failure_prob(self) -> float:
        alive = (
            die_yield(self.ssc_area_mm2, self.defect_density_per_mm2)
            * self.bond_yield
        )
        return 1.0 - alive


@dataclass(frozen=True)
class DCNFailures:
    """One sampled failure set (all-tuples: hashable, picklable).

    ``dead_sscs`` are ``(wafer, ssc_slice)`` pairs; ``dead_terminals``
    the ``(wafer, terminal)`` pairs they imply; ``dead_links`` the
    ``(leaf, spine, channel)`` triples (back-to-back trunks keyed from
    leaf 0's side).
    """

    dead_sscs: Tuple[Tuple[int, int], ...]
    dead_terminals: Tuple[Tuple[int, int], ...]
    dead_links: Tuple[Tuple[int, int, int], ...]

    @property
    def empty(self) -> bool:
        return not (self.dead_sscs or self.dead_links)


def sample_failures(shape, config: FailureConfig) -> DCNFailures:
    """Draw one deterministic failure set for ``shape`` under ``config``.

    ``shape`` is a :class:`repro.dcn.fabric.DCNShape`.  The RNG stream
    is consumed in a fixed order regardless of outcomes, so any two
    samples with the same inputs are identical element-for-element.
    """
    rng = random.Random(config.seed)
    ssc_fail = config.ssc_failure_prob
    dead_sscs: List[Tuple[int, int]] = []
    dead_terminals: List[Tuple[int, int]] = []
    for wafer in range(shape.n_wafers):
        per_ssc = shape.ssc_radix_of(wafer) // 2
        for ssc in range(shape.wafer_terminals // per_ssc):
            if rng.random() < ssc_fail:
                dead_sscs.append((wafer, ssc))
                dead_terminals.extend(
                    (wafer, ssc * per_ssc + slot) for slot in range(per_ssc)
                )
    dead_links: List[Tuple[int, int, int]] = []
    link_fail = config.link_failure_prob
    trunks = [(0, 0)] if shape.back_to_back else [
        (leaf, spine)
        for leaf in range(shape.n_leaves)
        for spine in range(shape.n_spines)
    ]
    for leaf, spine in trunks:
        for channel in range(shape.channels_per_pair):
            if rng.random() < link_fail:
                dead_links.append((leaf, spine, channel))

    return DCNFailures(
        dead_sscs=tuple(dead_sscs),
        dead_terminals=tuple(dead_terminals),
        dead_links=tuple(dead_links),
    )
