"""Folded two-level Clos topologies (paper Sections IV, V.B).

With SSC radix ``k`` and switch radix ``N`` (both at the same port
bandwidth), the folded Clos uses:

* ``2N/k`` **leaf** SSCs, each terminating ``k/2`` external ports and
  spreading ``k/2`` uplink channels across the spines, and
* ``N/k`` **spine** SSCs, each exactly filled by the leaves' uplinks,

for ``3N/k`` chiplets total (Table VI). The construction is rearrangeably
non-blocking: aggregate uplink bandwidth equals external bandwidth at
every leaf.

The **heterogeneous** variant (Section V.B) disaggregates each leaf into
``split`` smaller leaf dies of radix ``k/split`` (scaled TH-4-like for
``split=2``, scaled TH-3-like for ``split=4``) while keeping the spine
connections, trading a tiny average-hop increase for a superlinear SSC
power reduction.

Both constructors share one builder, memoized per process on
``(n_ports, chiplet, leaf_split)``: a design sweep asks for the same few
Clos switches hundreds of times, and every value involved is frozen, so
callers share one immutable topology per argument set. Arguments are
validated before the memo, so a bad one raises on every call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.tech.chiplet import SubSwitchChiplet, scaled_leaf_die, tomahawk5
from repro.topology.base import (
    LogicalLink,
    LogicalTopology,
    NodeRole,
    SwitchNode,
    distribute_evenly,
)


def _validate_clos_parameters(n_ports: int, ssc_radix: int) -> None:
    if n_ports < ssc_radix:
        raise ValueError(
            f"switch radix ({n_ports}) must be at least the SSC radix "
            f"({ssc_radix}); a single SSC already provides that"
        )
    if ssc_radix % 2 != 0:
        raise ValueError("SSC radix must be even (half down / half up)")
    if (2 * n_ports) % ssc_radix != 0:
        raise ValueError(
            f"switch radix {n_ports} must be a multiple of half the SSC "
            f"radix ({ssc_radix // 2}) for an integral leaf count"
        )
    if n_ports % ssc_radix != 0:
        raise ValueError(
            f"switch radix {n_ports} must be a multiple of the SSC radix "
            f"({ssc_radix}) for an integral spine count"
        )


@lru_cache(maxsize=256)
def _build_clos(
    n_ports: int, chiplet: SubSwitchChiplet, leaf_split: int
) -> LogicalTopology:
    """The Clos of validated arguments; ``leaf_split=1`` is the folded one."""
    k = chiplet.radix
    if leaf_split == 1:
        leaf_die = chiplet
        name = f"folded-clos N={n_ports} k={k}"
    else:
        leaf_die = scaled_leaf_die(
            k // leaf_split, chiplet.port_bandwidth_gbps, reference=chiplet
        )
        name = f"hetero-clos N={n_ports} k={k} split={leaf_split}"
    leaf_count = (2 * n_ports // k) * leaf_split
    spine_count = n_ports // k
    down_per_leaf = leaf_die.radix // 2

    leaves = (
        SwitchNode(i, NodeRole.LEAF, leaf_die, down_per_leaf)
        for i in range(leaf_count)
    )
    spines = (
        SwitchNode(leaf_count + j, NodeRole.SPINE, chiplet, 0)
        for j in range(spine_count)
    )
    shares = distribute_evenly(down_per_leaf, spine_count)
    links = []
    for i in range(leaf_count):
        # Rotate the remainder so spines are loaded evenly across leaves.
        rotation = i % spine_count
        for j in range(spine_count):
            channels = shares[(j - rotation) % spine_count]
            if channels:
                links.append(LogicalLink(i, leaf_count + j, channels))

    return LogicalTopology(
        name=name,
        nodes=(*leaves, *spines),
        links=tuple(links),
        port_bandwidth_gbps=chiplet.port_bandwidth_gbps,
        path_diversity=spine_count,
    )


def folded_clos(
    n_ports: int,
    ssc: Optional[SubSwitchChiplet] = None,
) -> LogicalTopology:
    """Build a folded 2-level Clos of the given switch radix.

    Args:
        n_ports: Total external bidirectional port count ``N``.
        ssc: Sub-switch chiplet used for both leaves and spines
            (TH-5 256x200G by default).
    """
    chiplet = ssc if ssc is not None else tomahawk5()
    _validate_clos_parameters(n_ports, chiplet.radix)
    return _build_clos(n_ports, chiplet, 1)


def heterogeneous_clos(
    n_ports: int,
    ssc: Optional[SubSwitchChiplet] = None,
    leaf_split: int = 4,
) -> LogicalTopology:
    """Folded Clos with each leaf disaggregated into smaller leaf dies.

    Args:
        n_ports: Total external port count ``N``.
        ssc: Spine chiplet and the reference for scaled leaf dies.
        leaf_split: How many smaller dies replace one full-radix leaf;
            ``1`` gives the folded Clos, ``2`` half-radix (TH-4-like)
            leaves, ``4`` quarter-radix (TH-3-like) leaves — the
            configuration behind the paper's 30.8 %-33.5 % power
            reduction.
    """
    chiplet = ssc if ssc is not None else tomahawk5()
    k = chiplet.radix
    _validate_clos_parameters(n_ports, k)
    if leaf_split < 1:
        raise ValueError("leaf_split must be >= 1")
    if k % (2 * leaf_split) != 0:
        raise ValueError(
            f"leaf_split {leaf_split} must divide half the SSC radix ({k // 2})"
        )
    return _build_clos(n_ports, chiplet, leaf_split)
