"""Work units are hermetic: run order within one process cannot change them.

Every experiment with the work-unit protocol runs each fast-mode unit
in order and then in reverse, in one process and with no result cache
(``run_unit`` is called directly). Each unit's partial must come out
the same both ways, whatever the earlier units left behind in the
process (packet numbering, in-process memos, kernel state).
"""

import pytest

from repro.experiments.base import EXPERIMENT_IDS, get_spec

PARTITIONED_IDS = [
    experiment_id
    for experiment_id in EXPERIMENT_IDS
    if get_spec(experiment_id).is_partitioned
]


def test_sim_figures_are_partitioned():
    assert {"fig21", "fig22", "fig23", "fig24"} <= set(PARTITIONED_IDS)


@pytest.mark.parametrize("experiment_id", PARTITIONED_IDS)
def test_unit_partials_do_not_depend_on_run_order(experiment_id):
    spec = get_spec(experiment_id)
    units = spec.units(fast=True)
    forward = [spec.run_unit(unit, fast=True) for unit in units]
    backward = [spec.run_unit(unit, fast=True) for unit in reversed(units)]
    backward.reverse()
    for unit, first, second in zip(units, forward, backward):
        # repr: a NaN latency (nothing delivered) still compares equal.
        assert repr(second) == repr(first), (experiment_id, unit)
