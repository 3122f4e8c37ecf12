"""Folded Clos construction (Section IV, Table VI).

The constructors share one memoized builder. The reference constructors
below are the two separate, unmemoized loops it replaced, kept here
verbatim; the builder must return topologies equal to theirs, names
included, since mapping memo keys and store digests read the names.
"""

import dataclasses
from typing import Optional

import pytest

from repro.core.explorer import max_feasible_design
from repro.tech.chiplet import SubSwitchChiplet, scaled_leaf_die, tomahawk5
from repro.topology.base import (
    LogicalLink,
    LogicalTopology,
    NodeRole,
    SwitchNode,
    distribute_evenly,
    merge_links,
)
from repro.topology.clos import (
    _build_clos,
    _validate_clos_parameters,
    folded_clos,
    heterogeneous_clos,
)

# ------------------------------------------------ reference constructors


def _reference_folded_clos(
    n_ports: int,
    ssc: Optional[SubSwitchChiplet] = None,
) -> LogicalTopology:
    chiplet = ssc if ssc is not None else tomahawk5()
    k = chiplet.radix
    _validate_clos_parameters(n_ports, k)

    leaf_count = 2 * n_ports // k
    spine_count = n_ports // k
    down_per_leaf = k // 2

    nodes = []
    for i in range(leaf_count):
        nodes.append(
            SwitchNode(
                index=i,
                role=NodeRole.LEAF,
                chiplet=chiplet,
                external_ports=down_per_leaf,
            )
        )
    for j in range(spine_count):
        nodes.append(
            SwitchNode(
                index=leaf_count + j,
                role=NodeRole.SPINE,
                chiplet=chiplet,
                external_ports=0,
            )
        )

    raw_links = []
    for i in range(leaf_count):
        shares = distribute_evenly(down_per_leaf, spine_count)
        rotation = i % spine_count
        for j in range(spine_count):
            channels = shares[(j - rotation) % spine_count]
            raw_links.append((i, leaf_count + j, channels))

    return LogicalTopology(
        name=f"folded-clos N={n_ports} k={k}",
        nodes=tuple(nodes),
        links=tuple(merge_links(raw_links)),
        port_bandwidth_gbps=chiplet.port_bandwidth_gbps,
        path_diversity=spine_count,
    )


def _reference_heterogeneous_clos(
    n_ports: int,
    ssc: Optional[SubSwitchChiplet] = None,
    leaf_split: int = 4,
) -> LogicalTopology:
    chiplet = ssc if ssc is not None else tomahawk5()
    k = chiplet.radix
    _validate_clos_parameters(n_ports, k)
    if leaf_split < 1:
        raise ValueError("leaf_split must be >= 1")
    if leaf_split == 1:
        return _reference_folded_clos(n_ports, chiplet)
    if k % (2 * leaf_split) != 0:
        raise ValueError(
            f"leaf_split {leaf_split} must divide half the SSC radix ({k // 2})"
        )

    small_leaf = scaled_leaf_die(
        k // leaf_split, chiplet.port_bandwidth_gbps, reference=chiplet
    )
    leaf_count = (2 * n_ports // k) * leaf_split
    spine_count = n_ports // k
    down_per_leaf = small_leaf.radix // 2

    nodes = []
    for i in range(leaf_count):
        nodes.append(
            SwitchNode(
                index=i,
                role=NodeRole.LEAF,
                chiplet=small_leaf,
                external_ports=down_per_leaf,
            )
        )
    for j in range(spine_count):
        nodes.append(
            SwitchNode(
                index=leaf_count + j,
                role=NodeRole.SPINE,
                chiplet=chiplet,
                external_ports=0,
            )
        )

    raw_links = []
    for i in range(leaf_count):
        shares = distribute_evenly(down_per_leaf, spine_count)
        rotation = i % spine_count
        for j in range(spine_count):
            channels = shares[(j - rotation) % spine_count]
            raw_links.append((i, leaf_count + j, channels))

    return LogicalTopology(
        name=f"hetero-clos N={n_ports} k={k} split={leaf_split}",
        nodes=tuple(nodes),
        links=tuple(merge_links(raw_links)),
        port_bandwidth_gbps=chiplet.port_bandwidth_gbps,
        path_diversity=spine_count,
    )


# ------------------------------------------------ parity with the references

TH5_SLICINGS = [(256, 200.0), (128, 400.0), (64, 800.0)]


@pytest.mark.parametrize("ports,gbps", TH5_SLICINGS)
@pytest.mark.parametrize("leaf_split", [1, 2, 4])
def test_builder_equals_reference(ports, gbps, leaf_split):
    """``n_ports`` from k to 16k: 3k, 5k, 6k, 7k, ... leave a remainder
    that ``distribute_evenly`` spreads over the spines."""
    ssc = tomahawk5(ports, gbps)
    uneven = 0
    for multiple in range(1, 17):
        n_ports = multiple * ports
        expected = _reference_heterogeneous_clos(n_ports, ssc, leaf_split)
        got = heterogeneous_clos(n_ports, ssc, leaf_split)
        assert got == expected
        assert got.name == expected.name
        if leaf_split == 1:
            assert folded_clos(n_ports, ssc) == _reference_folded_clos(n_ports, ssc)
        uneven += len({link.channels for link in got.links}) > 1
    assert uneven


@pytest.mark.parametrize("leaf_split", [1, 2, 4])
def test_default_chiplet_equals_reference(leaf_split):
    for n_ports in (256, 768, 2048):
        default = heterogeneous_clos(n_ports, leaf_split=leaf_split)
        explicit = heterogeneous_clos(n_ports, tomahawk5(), leaf_split)
        assert default == _reference_heterogeneous_clos(
            n_ports, leaf_split=leaf_split
        )
        assert default is explicit
    assert folded_clos(2048) == _reference_folded_clos(2048)


@pytest.mark.parametrize(
    "n_ports,leaf_split", [(300, 1), (128, 2), (384, 4), (1024, 0), (1024, 256)]
)
def test_invalid_arguments_raise_like_reference(n_ports, leaf_split):
    with pytest.raises(ValueError):
        _reference_heterogeneous_clos(n_ports, leaf_split=leaf_split)
    with pytest.raises(ValueError):
        heterogeneous_clos(n_ports, leaf_split=leaf_split)


# ------------------------------------------------ the memo


def test_same_arguments_share_one_topology():
    assert folded_clos(1024) is folded_clos(1024)
    assert folded_clos(1024) is folded_clos(1024, tomahawk5())
    assert heterogeneous_clos(1024, leaf_split=1) is folded_clos(1024)
    assert heterogeneous_clos(1024, leaf_split=2) is heterogeneous_clos(
        1024, tomahawk5(), 2
    )


def test_memoized_topology_is_immutable():
    topo = folded_clos(1024)
    with pytest.raises(dataclasses.FrozenInstanceError):
        topo.name = "changed"
    with pytest.raises(dataclasses.FrozenInstanceError):
        topo.nodes[0].external_ports = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        topo.links[0].channels = 1
    assert isinstance(topo.nodes, tuple) and isinstance(topo.links, tuple)


@pytest.mark.parametrize(
    "cls", [LogicalTopology, SwitchNode, LogicalLink, SubSwitchChiplet]
)
def test_topology_values_have_no_mutable_defaults(cls):
    assert cls.__dataclass_params__.frozen
    for f in dataclasses.fields(cls):
        assert f.default_factory is dataclasses.MISSING, f.name
        assert not isinstance(f.default, (list, dict, set)), f.name


def test_invalid_radix_caches_nothing():
    before = _build_clos.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError):
            folded_clos(300)
        with pytest.raises(ValueError):
            heterogeneous_clos(1024, leaf_split=256)
    assert _build_clos.cache_info().currsize == before


def test_repeat_design_search_builds_no_topology():
    """A second search over the same substrates reuses every Clos."""
    substrates = (100.0, 150.0)
    for side in substrates:
        max_feasible_design(side, mapping_restarts=1)
    misses = _build_clos.cache_info().misses
    for side in substrates:
        max_feasible_design(side, mapping_restarts=1)
    assert _build_clos.cache_info().misses == misses


def test_chiplet_count_formula():
    """Table VI: a Clos needs 3(N/k) chiplets."""
    for n in (256, 512, 1024, 2048, 8192):
        assert folded_clos(n).chiplet_count == 3 * n // 256


def test_radix_matches_request():
    assert folded_clos(2048).radix == 2048


def test_leaf_and_spine_counts():
    topo = folded_clos(2048)
    assert len(topo.leaves()) == 16
    assert len(topo.spines()) == 8


def test_leaves_expose_half_radix_externally():
    topo = folded_clos(1024)
    for leaf in topo.leaves():
        assert leaf.external_ports == 128


def test_spines_have_no_external_ports():
    topo = folded_clos(1024)
    for spine in topo.spines():
        assert spine.external_ports == 0


def test_spines_exactly_full():
    """Every spine port is used: the Clos is rearrangeably non-blocking."""
    topo = folded_clos(2048)
    degrees = topo.channel_degrees()
    for spine in topo.spines():
        assert degrees[spine.index] == spine.chiplet.radix


def test_leaf_uplinks_equal_downlinks():
    """Full bisection: k/2 uplink channels per leaf."""
    topo = folded_clos(4096)
    degrees = topo.channel_degrees()
    for leaf in topo.leaves():
        assert degrees[leaf.index] == leaf.external_ports


def test_uplinks_spread_over_all_spines():
    topo = folded_clos(2048)
    adjacency = topo.adjacency()
    spine_ids = {s.index for s in topo.spines()}
    for leaf in topo.leaves():
        assert set(adjacency[leaf.index]) == spine_ids


def test_connected():
    assert folded_clos(1024).is_connected()


def test_path_diversity_is_spine_count():
    assert folded_clos(2048).path_diversity == 8


def test_invalid_radix_rejected():
    with pytest.raises(ValueError):
        folded_clos(300)  # not a multiple of 256
    with pytest.raises(ValueError):
        folded_clos(128)  # below a single SSC


def test_deradixed_clos():
    ssc = tomahawk5().deradixed(2)
    topo = folded_clos(4096, ssc)
    assert topo.chiplet_count == 3 * 4096 // 128


def test_bisection_channels_positive():
    assert folded_clos(1024).bisection_channels() > 0


# ----------------------------------------------------------------------
# Heterogeneous Clos (Section V.B)
# ----------------------------------------------------------------------

def test_hetero_radix_preserved():
    assert heterogeneous_clos(2048, leaf_split=4).radix == 2048


def test_hetero_split1_is_homogeneous():
    topo = heterogeneous_clos(1024, leaf_split=1)
    assert topo.name.startswith("folded-clos")


def test_hetero_leaf_count_multiplied():
    base = folded_clos(2048)
    hetero = heterogeneous_clos(2048, leaf_split=4)
    assert len(hetero.leaves()) == 4 * len(base.leaves())


def test_hetero_spines_unchanged():
    base = folded_clos(2048)
    hetero = heterogeneous_clos(2048, leaf_split=2)
    assert len(hetero.spines()) == len(base.spines())
    for spine in hetero.spines():
        assert spine.chiplet.radix == 256


def test_hetero_leaves_are_scaled_dies():
    hetero = heterogeneous_clos(2048, leaf_split=4)
    for leaf in hetero.leaves():
        assert leaf.chiplet.radix == 64
        assert leaf.chiplet.core_power_w == pytest.approx(25.0)


def test_hetero_spines_still_full():
    hetero = heterogeneous_clos(2048, leaf_split=4)
    degrees = hetero.channel_degrees()
    for spine in hetero.spines():
        assert degrees[spine.index] == 256


def test_hetero_total_leaf_area_matches_homogeneous():
    """Disaggregated leaves of one site fill the original leaf's area."""
    base = folded_clos(2048)
    hetero = heterogeneous_clos(2048, leaf_split=4)
    base_leaf_area = sum(n.chiplet.area_mm2 for n in base.leaves())
    hetero_leaf_area = sum(n.chiplet.area_mm2 for n in hetero.leaves())
    assert hetero_leaf_area == pytest.approx(base_leaf_area)


def test_hetero_core_power_reduction():
    """Quarter-radix leaves burn 1/4 the leaf power (Fig 16's driver)."""
    base = folded_clos(2048)
    hetero = heterogeneous_clos(2048, leaf_split=4)
    base_core = sum(n.chiplet.core_power_w for n in base.nodes)
    hetero_core = sum(n.chiplet.core_power_w for n in hetero.nodes)
    # Leaves are 2/3 of the chiplets' power budget; saving 3/4 of it
    # cuts total core power by half.
    assert hetero_core == pytest.approx(base_core / 2.0)


def test_hetero_invalid_split_rejected():
    with pytest.raises(ValueError):
        heterogeneous_clos(1024, leaf_split=0)
    with pytest.raises(ValueError):
        heterogeneous_clos(1024, leaf_split=256)


def test_hetero_uses_reference_for_scaling():
    ssc = tomahawk5()
    hetero = heterogeneous_clos(1024, ssc, leaf_split=2)
    expected = scaled_leaf_die(128, reference=ssc)
    assert hetero.leaves()[0].chiplet.core_power_w == pytest.approx(
        expected.core_power_w
    )
