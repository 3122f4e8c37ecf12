"""DCN fabric geometry and failure-aware routing."""

import pytest

from repro.dcn.fabric import DCNFabric, DCNRouteError, DCNShape, _mix
from repro.dcn.failures import DCNFailures


def _failures(terminals=(), links=()):
    return DCNFailures(
        dead_sscs=(), dead_terminals=tuple(terminals), dead_links=tuple(links)
    )


def test_shape_geometry_spined():
    shape = DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8)
    assert shape.n_leaves == 4
    assert shape.n_spines == 2
    assert shape.n_wafers == 6
    assert shape.hosts_per_leaf == 8
    assert shape.wafer_terminals == 16
    assert shape.leaf_of_host(17) == 2
    assert shape.local_of_host(17) == 1


def test_shape_geometry_back_to_back():
    shape = DCNShape(
        n_hosts=16, wafer_radix=16, ssc_radix=8, back_to_back=True
    )
    assert shape.n_leaves == 2
    assert shape.n_spines == 0
    assert shape.n_wafers == 2


def test_shape_validation():
    with pytest.raises(ValueError):
        DCNShape(n_hosts=24, wafer_radix=16, ssc_radix=8)  # not a multiple
    with pytest.raises(ValueError):
        DCNShape(n_hosts=16, wafer_radix=16, ssc_radix=6)  # bad intra shape
    with pytest.raises(ValueError):
        DCNShape(
            n_hosts=32, wafer_radix=16, ssc_radix=8, back_to_back=True
        )  # b2b needs hosts == radix
    with pytest.raises(ValueError):
        DCNShape(
            n_hosts=16, wafer_radix=16, ssc_radix=8, inter_wafer_latency=0
        )


def test_channels_fill_every_wafer_exactly():
    shape = DCNShape(n_hosts=64, wafer_radix=16, ssc_radix=8)
    fabric = DCNFabric(shape)
    for leaf in range(shape.n_leaves):
        assert sum(fabric.channels[leaf]) == shape.hosts_per_leaf
    for spine in range(shape.n_spines):
        assert (
            sum(fabric.channels[leaf][spine] for leaf in range(shape.n_leaves))
            == shape.wafer_terminals
        )


def test_route_segments_chain_consistently():
    shape = DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8)
    fabric = DCNFabric(shape)
    H = shape.hosts_per_leaf
    for dcn_id, (src, dst) in enumerate(((0, 31), (9, 2), (5, 6), (30, 1))):
        route = fabric.route(dcn_id, src, dst)
        if shape.leaf_of_host(src) == shape.leaf_of_host(dst):
            assert len(route) == 1
            continue
        assert len(route) == 3
        first, middle, last = route
        assert first.wafer == shape.leaf_of_host(src)
        assert first.entry == shape.local_of_host(src)
        assert first.exit >= H  # a gateway
        assert middle.wafer >= shape.n_leaves  # a spine wafer
        assert last.wafer == shape.leaf_of_host(dst)
        assert last.exit == shape.local_of_host(dst)


def test_route_is_deterministic_per_packet_id():
    shape = DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8)
    fabric = DCNFabric(shape)
    assert fabric.route(7, 0, 31) == fabric.route(7, 0, 31)
    spread = {tuple(fabric.route(i, 0, 31)) for i in range(64)}
    assert len(spread) > 1, "hash must spread packets over channels"


def test_mix_is_stable():
    # Pinned values: partition parity depends on this hash never moving.
    assert _mix(0) == 16294208416658607535
    assert _mix(1) == 10451216379200822465


def test_dead_host_is_unroutable():
    shape = DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8)
    fabric = DCNFabric(shape, _failures(terminals=[(0, 0)]))
    assert 0 not in fabric.alive_hosts
    with pytest.raises(DCNRouteError):
        fabric.route(0, 0, 31)
    with pytest.raises(DCNRouteError):
        fabric.route(0, 31, 0)


def test_dead_channels_restrict_options():
    shape = DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8)
    clean = DCNFabric(shape)
    assert clean.n_alive.tolist() == clean.channels
    assert clean.alive[0, 0].tolist() == list(range(clean.channels[0][0]))
    # Kill every channel from leaf 0 to spine 0, and channel 1 of leaf 3.
    links = [(0, 0, c) for c in range(clean.channels[0][0])] + [(3, 1, 1)]
    fabric = DCNFabric(shape, _failures(links=links))
    assert fabric.n_alive[0].tolist() == [0, clean.channels[0][1]]
    assert fabric.alive[0, 0].tolist() == [-1] * clean.channels[0][0]
    assert fabric.alive[3, 1].tolist() == [0, 2, 3, -1]
    # A dead gateway terminal kills its channel from the leaf's side.
    gateway = shape.hosts_per_leaf + clean.leaf_gw_base[2][1] + 2
    assert DCNFabric(shape, _failures(terminals=[(2, gateway)])).alive[
        2, 1
    ].tolist() == [0, 1, 3, -1]
    routes = fabric.route_all([0] * 64, [31] * 64)
    assert (routes.wafer[:, 1] == shape.n_leaves + 1).all()  # never spine 0
    down = routes.entry[:, 2] - shape.hosts_per_leaf - clean.leaf_gw_base[3][1]
    assert set(down.tolist()) == {0, 2, 3}
    # Kill the other spine's uplinks too: leaf 0 is fully cut off.
    links += [(0, 1, c) for c in range(clean.channels[0][1])]
    cut = DCNFabric(shape, _failures(links=links))
    assert cut.route_all([0, 8], [31, 31]).hops.tolist() == [0, 3]
    with pytest.raises(DCNRouteError):
        cut.route(0, 0, 31)


def test_back_to_back_routes_are_two_segments():
    shape = DCNShape(
        n_hosts=16, wafer_radix=16, ssc_radix=8, back_to_back=True
    )
    fabric = DCNFabric(shape)
    route = fabric.route(3, 0, 15)
    assert len(route) == 2
    assert route[0].wafer == 0 and route[1].wafer == 1
    assert route[0].exit >= shape.hosts_per_leaf
    assert route[1].entry >= shape.hosts_per_leaf
    # Same channel index on both sides of the trunk.
    assert route[0].exit == route[1].entry
