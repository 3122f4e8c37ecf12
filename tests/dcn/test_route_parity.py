"""The array router equals the scalar oracle, packet by packet.

:meth:`DCNFabric.route_all` routes a whole run at once from per-leaf
channel tables and a vectorized splitmix64; :meth:`DCNFabric.route`
is the per-packet oracle it replaced in the simulator.  Every packet
must get the same hops, and exactly the packets the oracle rejects
with :class:`DCNRouteError` must come back masked (``hops == 0``).
"""

import numpy as np
import pytest

from repro.dcn import traffic
from repro.dcn.fabric import DCNFabric, DCNRouteError, DCNShape, _mix, _mix_array
from repro.dcn.failures import DCNFailures, FailureConfig, sample_failures

SHAPES = {
    # 4 leaves x 2 spines, 4 channels per leaf-spine pair.
    "smoke": (DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8), 128, 0.1),
    "back_to_back": (
        DCNShape(n_hosts=16, wafer_radix=16, ssc_radix=8, back_to_back=True),
        128,
        0.1,
    ),
    # Table-VIII shape: 72 leaves x 36 spines, one channel per pair.
    "table_viii": (DCNShape(n_hosts=2592, wafer_radix=72, ssc_radix=12), 48, 0.03),
}

FAILURES = [None] + [
    FailureConfig(seed=seed, defect_density_per_mm2=0.01, link_failure_prob=0.2)
    for seed in range(6)
]


def assert_parity(fabric, events):
    routes = fabric.route_all([e[1] for e in events], [e[2] for e in events])
    assert routes.wafer.shape == (len(events), 3)
    for dcn_id, (_, src, dst, _) in enumerate(events):
        hops = int(routes.hops[dcn_id])
        try:
            expected = fabric.route(dcn_id, src, dst)
        except DCNRouteError:
            assert hops == 0, f"packet {dcn_id} routed, oracle refused it"
            continue
        got = [
            (routes.wafer[dcn_id, k], routes.entry[dcn_id, k], routes.exit[dcn_id, k])
            for k in range(hops)
        ]
        assert got == [tuple(segment) for segment in expected], dcn_id
        assert (routes.wafer[dcn_id, hops:] == -1).all()
    return routes


@pytest.mark.parametrize("pattern", ["uniform", "incast", "tp_burst"])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_array_router_matches_oracle(name, pattern):
    shape, duration, load = SHAPES[name]
    dropped = 0
    for config in FAILURES:
        failures = sample_failures(shape, config) if config else None
        fabric = DCNFabric(shape, failures)
        events = traffic.generate(pattern, fabric.alive_hosts, duration, 1, load=load)
        routes = assert_parity(fabric, events)
        dropped += int((routes.hops == 0).sum())
    if name == "smoke" and pattern != "tp_burst":
        assert dropped, "failures this dense must cut some leaf pairs"


def test_dead_hosts_are_masked():
    failures = DCNFailures(dead_sscs=(), dead_terminals=((0, 0),), dead_links=())
    fabric = DCNFabric(SHAPES["smoke"][0], failures)
    events = [(0, 0, 31, 4), (0, 31, 0, 4), (0, 1, 31, 4)]
    routes = assert_parity(fabric, events)
    assert routes.hops.tolist() == [0, 0, 3]


def test_empty_run_routes_nothing():
    fabric = DCNFabric(SHAPES["smoke"][0])
    routes = fabric.route_all([], [])
    assert routes.hops.shape == (0,) and routes.wafer.shape == (0, 3)


def test_vectorized_mix_matches_scalar():
    ids = np.array([0, 1, 2, 12345, 2**40 + 7, 2**63 - 1], dtype=np.int64)
    assert _mix_array(ids).tolist() == [_mix(int(i)) for i in ids]


def test_simulator_plans_without_the_oracle(monkeypatch):
    from repro.dcn.sim import DCNConfig, run_dcn

    def oracle(*args):
        raise AssertionError("the simulator must route with route_all")

    monkeypatch.setattr(DCNFabric, "route", oracle)
    config = DCNConfig(
        shape=SHAPES["smoke"][0], duration_cycles=64, load=0.05, fidelity="flow"
    )
    result = run_dcn(config)
    assert result.packets_delivered == result.packets_routed > 0
