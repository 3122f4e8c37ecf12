"""Parallel scheduler: serial equality, failure fallback.

The CI box (and most laptops) may report a single effective core, on
which :func:`repro.parallel.effective_jobs` would degrade every
parallel request to the serial fast path — correct in production,
useless for testing the pool. Tests that need real worker processes
set ``REPRO_PARALLEL=force`` via the ``force_pool`` fixture.
"""

import os
import time

import pytest

from repro.experiments.base import ExperimentSpec, get_spec
from repro.experiments.runner import run_experiments
from repro.experiments.scheduler import execute

#: Cheap analytical experiments for equality checks (one partitioned
#: explorer sweep, one partitioned cooling search, two opaque singles).
SAMPLE_IDS = ["fig27", "fig28", "fig01", "tab06"]


@pytest.fixture
def force_pool(monkeypatch):
    """Make pool_map use real workers regardless of the core count."""
    monkeypatch.setenv("REPRO_PARALLEL", "force")


def test_parallel_results_equal_serial(force_pool):
    serial = run_experiments(SAMPLE_IDS, fast=True)
    parallel = run_experiments(SAMPLE_IDS, fast=True, jobs=3)
    assert [r.experiment_id for r in parallel] == SAMPLE_IDS
    for expected, actual in zip(serial, parallel):
        assert expected == actual, expected.experiment_id


@pytest.mark.slow
def test_parallel_results_equal_serial_simulation(force_pool):
    serial = run_experiments(["fig21"], fast=True)
    parallel = run_experiments(["fig21"], fast=True, jobs=2)
    assert serial == parallel


def test_spec_run_equals_unit_merge():
    """The work-unit protocol reproduces run() exactly, per module."""
    for experiment_id in ("fig07", "fig25", "fig26"):
        spec = get_spec(experiment_id)
        assert spec.is_partitioned
        via_units = spec.merge(
            [spec.run_unit(u, fast=True) for u in spec.units(fast=True)],
            fast=True,
        )
        assert via_units == spec.run(fast=True)


def test_unpartitioned_spec_is_single_unit():
    spec = get_spec("tab03")
    assert not spec.is_partitioned
    units = spec.units(fast=True)
    assert len(units) == 1
    result = spec.merge([spec.run_unit(units[0], fast=True)], fast=True)
    assert result.experiment_id == "tab03"


def _report_engine_env():
    """Module-level so the pool can pickle it into a worker."""
    from repro.parallel import ENGINE_ENV_VARS

    return {
        name: os.environ.get(name) for name in ENGINE_ENV_VARS
    }, os.getpid()


def test_engine_switches_propagate_to_workers(force_pool):
    """REPRO_SCALAR_NETSIM / REPRO_SCALAR_MAPPING reach pool workers.

    The switches travel per *task*, not per worker spawn: a persistent
    warm worker configured before the flag was set must still see it,
    or a forced-scalar experiment would silently come back vectorized.
    """
    from repro.parallel import pool_map

    previous = os.environ.get("REPRO_SCALAR_NETSIM")
    os.environ["REPRO_SCALAR_NETSIM"] = "1"
    try:
        results = pool_map(_report_engine_env, [()] * 4, jobs=2)
    finally:
        if previous is None:
            del os.environ["REPRO_SCALAR_NETSIM"]
        else:
            os.environ["REPRO_SCALAR_NETSIM"] = previous
    workers = {pid for _, pid in results}
    assert any(pid != os.getpid() for pid in workers)
    for env, pid in results:
        if pid == os.getpid():
            continue  # serial-fallback cells prove nothing here
        assert env["REPRO_SCALAR_NETSIM"] == "1"
        assert env["REPRO_SCALAR_MAPPING"] == os.environ.get("REPRO_SCALAR_MAPPING")


def test_worker_crash_falls_back_to_serial(force_pool, capfd):
    """Units that die in every worker still complete in the parent."""
    spec = ExperimentSpec(
        experiment_id="crashy", module_name="tests.experiments._crashy_exp"
    )
    (result,) = execute([spec], fast=True, jobs=2)
    assert result.rows == [(0, 0), (1, 1), (2, 4)]
    err = capfd.readouterr().err
    assert "retrying" in err
    assert "falling back to serial" in err


def test_stalled_pool_degrades_to_serial(force_pool, capfd):
    """If no unit completes within the watchdog, the parent takes over."""
    spec = ExperimentSpec(
        experiment_id="sleepy", module_name="tests.experiments._sleepy_exp"
    )
    start = time.time()
    (result,) = execute([spec], fast=True, jobs=2, unit_timeout=0.75)
    assert result.rows == [("awake",)]
    assert time.time() - start < 10.0
    assert "abandoning" in capfd.readouterr().err


def test_error_propagates_when_serial_also_fails(force_pool):
    spec = ExperimentSpec(
        experiment_id="broken", module_name="tests.experiments._broken_exp"
    )
    with pytest.raises(RuntimeError, match="always broken"):
        execute([spec], fast=True, jobs=2)
    with pytest.raises(RuntimeError, match="always broken"):
        execute([spec], fast=True, jobs=1)
