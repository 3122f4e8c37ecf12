"""Yield-sampled failure sets: determinism, reproducibility, plumbing."""

from repro.dcn.fabric import DCNFabric, DCNShape
from repro.dcn.failures import FailureConfig, sample_failures

SHAPE = DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8)

#: Absurd die area so the compound-Poisson yield gives a failure rate
#: high enough that every draw matters in a small fabric.
HOT = dict(ssc_area_mm2=2500.0, link_failure_prob=0.25)


def test_same_seed_same_failures():
    for seed in range(8):
        config = FailureConfig(seed=seed, **HOT)
        first = sample_failures(SHAPE, config)
        second = sample_failures(SHAPE, config)
        assert first == second
        # Element order is part of the contract, not just set equality.
        assert first.dead_terminals == second.dead_terminals
        assert first.dead_links == second.dead_links


def test_different_seeds_differ():
    samples = {
        sample_failures(SHAPE, FailureConfig(seed=seed, **HOT))
        for seed in range(16)
    }
    assert len(samples) > 1


def test_failure_probability_tracks_yield_model():
    clean = FailureConfig(ssc_area_mm2=1e-9, link_failure_prob=0.0)
    assert clean.ssc_failure_prob < 0.002  # only bond yield remains
    sample = sample_failures(SHAPE, clean)
    assert sample.dead_links == ()
    hot = FailureConfig(**HOT)
    assert hot.ssc_failure_prob > 0.5
    assert sample_failures(SHAPE, hot).dead_sscs


def test_dead_ssc_kills_its_terminal_slice():
    config = FailureConfig(seed=0, **HOT)
    sample = sample_failures(SHAPE, config)
    per_ssc = SHAPE.ssc_radix // 2
    dead = set(sample.dead_terminals)
    for wafer, ssc in sample.dead_sscs:
        for slot in range(per_ssc):
            assert (wafer, ssc * per_ssc + slot) in dead
    assert len(dead) == len(sample.dead_sscs) * per_ssc


def test_sampled_links_exist_in_the_fabric():
    fabric = DCNFabric(SHAPE)
    sample = sample_failures(SHAPE, FailureConfig(seed=4, **HOT))
    for leaf, spine, channel in sample.dead_links:
        assert 0 <= channel < fabric.channels[leaf][spine]


def test_fabric_excludes_failed_hosts():
    sample = sample_failures(SHAPE, FailureConfig(seed=1, **HOT))
    fabric = DCNFabric(SHAPE, sample)
    dead = set(sample.dead_terminals)
    for host in fabric.alive_hosts:
        assert (SHAPE.leaf_of_host(host), SHAPE.local_of_host(host)) not in dead
    dead_hosts = {
        leaf * SHAPE.hosts_per_leaf + term
        for leaf, term in dead
        if leaf < SHAPE.n_leaves and term < SHAPE.hosts_per_leaf
    }
    assert len(fabric.alive_hosts) == SHAPE.n_hosts - len(dead_hosts)


def test_back_to_back_trunk_failures_keyed_from_leaf_zero():
    shape = DCNShape(
        n_hosts=16, wafer_radix=16, ssc_radix=8, back_to_back=True
    )
    sample = sample_failures(
        shape, FailureConfig(seed=3, link_failure_prob=0.5)
    )
    assert sample.dead_links  # p=0.5 over 8 channels: ~certain
    assert all(leaf == 0 and spine == 0 for leaf, spine, _ in sample.dead_links)
    # A dead trunk channel is unusable from both directions.
    fabric = DCNFabric(shape, sample)
    dead_channels = {c for _, _, c in sample.dead_links}
    alive = [fabric.alive[leaf, 0, : fabric.n_alive[leaf, 0]].tolist() for leaf in (0, 1)]
    assert alive[0] == alive[1]
    assert not dead_channels & set(alive[0])
    H = shape.hosts_per_leaf
    routes = fabric.route_all(range(16), [15 - h for h in range(16)])
    assert (routes.hops == 2).all()
    assert (routes.exit[:, 0] == routes.entry[:, 1]).all()
    assert not dead_channels & set((routes.exit[:, 0] - H).tolist())
