"""Engine toggles shared by the parity and differential suites.

Two implementations produce bit-identical runs:

* the scalar object simulator (the oracle, ``REPRO_SCALAR_NETSIM=1``),
* the vectorized engine driven by the compiled C kernel (the default;
  on a host without a C toolchain it declines and the scalar oracle
  runs, so both legs then pin the oracle against itself).

These context managers flip the environment switch around a run and
restore whatever was set before, so tests can drive the same scenario
through every engine from one process.
"""

from __future__ import annotations

import contextlib
import os

from repro.engines import SCALAR_NETSIM_ENV


@contextlib.contextmanager
def scalar_oracle():
    """Force the scalar object simulator (the parity oracle)."""
    previous = os.environ.get(SCALAR_NETSIM_ENV)
    os.environ[SCALAR_NETSIM_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[SCALAR_NETSIM_ENV]
        else:
            os.environ[SCALAR_NETSIM_ENV] = previous


@contextlib.contextmanager
def default_engine():
    """No forcing: the dispatcher's normal choice (C kernel if built)."""
    yield


#: name -> context-manager factory, for parametrized cross-engine runs.
ENGINES = {
    "scalar": scalar_oracle,
    "compiled": default_engine,
}
