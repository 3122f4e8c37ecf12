"""Regenerate every paper artifact (see repro.experiments), one test each."""

import pytest

from repro.experiments.base import EXPERIMENT_IDS


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_artifact(run_experiment, experiment_id):
    result = run_experiment(experiment_id)
    assert result.rows
