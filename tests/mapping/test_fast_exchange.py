"""C-kernel/scalar-oracle equivalence and the parallel-restart dispatcher."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mapping.exchange import (
    mapping_kernel_tag,
    optimize_mapping,
    pairwise_exchange,
)
from repro.mapping.fast_exchange import pairwise_exchange_fast
from repro.mapping.grid import WaferGrid, grid_for
from repro.mapping.placement import initial_placement
from repro.mapping.routing import IOStyle, compute_edge_loads
from repro.tech.chiplet import SubSwitchChiplet
from repro.topology.base import LogicalTopology, NodeRole, SwitchNode
from repro.topology.clos import folded_clos


@pytest.fixture(scope="module")
def clos_1024():
    return folded_clos(1024)


def _small_ssc(radix: int) -> SubSwitchChiplet:
    return SubSwitchChiplet(
        name=f"test-{radix}",
        radix=radix,
        port_bandwidth_gbps=200.0,
        area_mm2=100.0,
        core_power_w=50.0,
    )


def _both_kernels(topology, grid, seed, strategy, io_style, escalate):
    """Run the scalar oracle and the C kernel from the same start."""
    start_a = initial_placement(
        topology, grid, strategy=strategy, rng=random.Random(seed)
    )
    start_b = start_a.copy()
    swaps_a, swaps_b = [], []
    scalar = pairwise_exchange(
        start_a, io_style, escalate=escalate, record_swaps=swaps_a
    )
    fast = pairwise_exchange_fast(
        start_b, io_style, escalate=escalate, record_swaps=swaps_b
    )
    return scalar, fast, swaps_a, swaps_b


@pytest.mark.parametrize("io_style", [IOStyle.PERIPHERY, IOStyle.AREA])
@pytest.mark.parametrize("strategy", ["random", "leaves_out"])
def test_fast_replays_scalar_swap_sequence(clos_1024, io_style, strategy):
    grid = grid_for(clos_1024.chiplet_count)
    for escalate in (False, True):
        scalar, fast, swaps_a, swaps_b = _both_kernels(
            clos_1024, grid, seed=3, strategy=strategy, io_style=io_style,
            escalate=escalate,
        )
        assert swaps_a == swaps_b
        assert scalar.placement.site_of == fast.placement.site_of
        assert scalar.cost() == fast.cost()
        assert (scalar.loads.h == fast.loads.h).all()
        assert (scalar.loads.v == fast.loads.v).all()
        assert scalar.sweeps == fast.sweeps
        assert scalar.swaps_accepted == fast.swaps_accepted


@given(
    k=st.sampled_from([4, 8]),
    m=st.integers(min_value=2, max_value=6),
    spare_rows=st.integers(min_value=0, max_value=2),
    spare_cols=st.integers(min_value=0, max_value=2),
    shape=st.sampled_from(["wafer", "row", "column", "single"]),
    seed=st.integers(min_value=0, max_value=10_000),
    io_style=st.sampled_from([IOStyle.PERIPHERY, IOStyle.AREA, IOStyle.NONE]),
    escalate=st.booleans(),
)
@settings(max_examples=40, deadline=None)
# Pinned inputs where a slip in the kernel's up-front rejection changes
# the accepted swaps: a max-load edge crossed only by the u-v link, or
# only by a boundary path from the right, bottom or any side.
@example(4, 5, 0, 1, "wafer", 114, IOStyle.PERIPHERY, False)
@example(4, 3, 2, 0, "wafer", 224, IOStyle.AREA, False)
@example(4, 3, 2, 1, "wafer", 287, IOStyle.PERIPHERY, False)
@example(4, 2, 2, 0, "wafer", 7, IOStyle.PERIPHERY, False)
@example(4, 2, 1, 0, "wafer", 85, IOStyle.PERIPHERY, False)
@example(8, 3, 1, 1, "row", 1, IOStyle.PERIPHERY, True)
@example(8, 3, 1, 1, "column", 2, IOStyle.PERIPHERY, True)
@example(4, 2, 0, 0, "single", 0, IOStyle.PERIPHERY, True)
def test_fast_equals_scalar_on_random_instances(
    k, m, spare_rows, spare_cols, shape, seed, io_style, escalate
):
    """Property: identical accepted-swap sequence, placement and loads.

    Spare rows and columns leave EMPTY sites on either side of a swap;
    1 x n and n x 1 grids route everything along one line, to and
    from both ends; a single chiplet on a 1 x 1 grid has no edges.
    """
    if shape == "single":
        topology = LogicalTopology(
            name="single-ssc",
            nodes=(SwitchNode(0, NodeRole.CORE, _small_ssc(k), k),),
            links=(),
            port_bandwidth_gbps=200.0,
        )
        grid = WaferGrid(1, 1)
    else:
        topology = folded_clos(k * m, ssc=_small_ssc(k))
        base = grid_for(topology.chiplet_count)
        line = topology.chiplet_count + spare_rows + spare_cols
        grid = {
            "wafer": WaferGrid(base.rows + spare_rows, base.cols + spare_cols),
            "row": WaferGrid(1, line),
            "column": WaferGrid(line, 1),
        }[shape]
    scalar, fast, swaps_a, swaps_b = _both_kernels(
        topology, grid, seed=seed, strategy="random", io_style=io_style,
        escalate=escalate,
    )
    assert swaps_a == swaps_b
    assert scalar.cost() == fast.cost()
    assert scalar.placement.site_of == fast.placement.site_of
    assert (scalar.loads.h == fast.loads.h).all()
    assert (scalar.loads.v == fast.loads.v).all()
    assert (scalar.sweeps, scalar.swaps_accepted) == (
        fast.sweeps, fast.swaps_accepted
    )


@given(
    k=st.sampled_from([4, 8]),
    m=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_escalation_never_worse_and_loads_consistent(k, m, seed):
    """Escalation may only improve on the plain sweep's cost, and the
    kernel's in-place load accounting must match a fresh recompute."""
    topology = folded_clos(k * m, ssc=_small_ssc(k))
    grid = grid_for(topology.chiplet_count)
    start_a = initial_placement(
        topology, grid, strategy="random", rng=random.Random(seed)
    )
    start_b = start_a.copy()
    plain = pairwise_exchange_fast(start_a, IOStyle.PERIPHERY, escalate=False)
    fast = pairwise_exchange_fast(start_b, IOStyle.PERIPHERY, escalate=True)
    assert fast.cost() <= plain.cost()
    fresh = compute_edge_loads(fast.placement, IOStyle.PERIPHERY)
    assert (fresh.h == fast.loads.h).all()
    assert (fresh.v == fast.loads.v).all()
    assert fresh.total_channel_hops == fast.total_channel_hops


def test_scalar_engine_argument_reaches_pool_workers(clos_1024, monkeypatch):
    """``engine=`` rides in each restart's task, so pool workers run
    the kernel the caller named."""
    monkeypatch.setenv("REPRO_PARALLEL", "force")
    assert mapping_kernel_tag(engine="scalar") == "scalar-esc"
    assert mapping_kernel_tag(engine="fast") == "fast-esc"
    scalar = optimize_mapping(
        clos_1024, restarts=2, seed=4, jobs=2, engine="scalar"
    )
    fast = optimize_mapping(clos_1024, restarts=2, seed=4, jobs=2, engine="fast")
    # The oracle defines escalation too, so both engines return the
    # same mapping, not merely one at least as good.
    assert fast.placement.site_of == scalar.placement.site_of
    assert fast.cost() == scalar.cost()
    assert (fast.sweeps, fast.swaps_accepted) == (
        scalar.sweeps, scalar.swaps_accepted
    )


def test_parallel_restarts_match_serial(clos_1024):
    serial = optimize_mapping(clos_1024, restarts=4, seed=7, jobs=1)
    parallel = optimize_mapping(clos_1024, restarts=4, seed=7, jobs=2)
    assert serial.cost() == parallel.cost()
    assert serial.placement.site_of == parallel.placement.site_of


def test_optimize_result_owns_its_placement(clos_1024):
    """Mutating a returned mapping cannot corrupt later optimizations."""
    first = optimize_mapping(clos_1024, restarts=1, seed=2)
    pristine = list(first.placement.site_of)
    first.placement.swap_sites(0, 1)
    again = optimize_mapping(clos_1024, restarts=1, seed=2)
    assert again.placement.site_of == pristine
