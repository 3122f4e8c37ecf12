"""Every example script runs to completion.

Part of the fast tier: an example that imports a moved or renamed name
fails here instead of in a reader's terminal. Each script runs in a
fresh process against an empty cache directory.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cas import CACHE_DIR_ENV

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, **{CACHE_DIR_ENV: str(tmp_path)})
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
