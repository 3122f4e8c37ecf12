"""Explicit engine selection for the netsim and mapping kernels.

The repo carries two interchangeable netsim implementations (the
scalar object oracle and the vectorized engine driven by the compiled
C step kernel) and two mapping kernels (the pure-Python oracle and
the compiled C kernel, which replays it). Historically the only way to
pick one was an environment variable set before the run
(``REPRO_SCALAR_NETSIM``, ``REPRO_SCALAR_MAPPING``) — fine for CI
parity jobs, hostile to programmatic callers. This module is the
explicit front door: every simulation entry point now takes an
``engine=`` keyword whose value is resolved here, **once per run**,
before any dispatch happens.

Netsim engine names (``NETSIM_ENGINES``):

* ``"auto"``   — ``"c"``; what you get when you don't care.
* ``"c"``      — the vectorized engine with the compiled C step kernel.
  It serves Bernoulli load points, trace replay and partition epochs at
  any port count.
* ``"scalar"`` — the object-model oracle.

Mapping engine names (``MAPPING_ENGINES``): ``"auto"``, ``"fast"``
(the C kernel, ``map_sweep`` in :mod:`repro.ckernel`),
``"scalar"`` (pure-Python oracle).

Resolution order, most binding first:

1. **Environment overrides** — ``REPRO_SCALAR_NETSIM=1`` forces
   ``"scalar"``; ``REPRO_SCALAR_MAPPING=1`` forces the scalar mapping
   kernel. These exist so CI parity jobs can pin a whole test
   process (including subprocesses and pool workers, which receive
   them with every task) without editing call sites.
2. **The explicit ``engine=`` argument** of the entry point.
3. **The hard default** behind ``"auto"``: ``"c"`` for netsim,
   ``"fast"`` for mapping.

A request the host cannot satisfy degrades to the scalar oracle: with
no C toolchain, or for a network shape the vectorized engine does not
support, :func:`repro.netsim.fast_core.engine_for` declines and the
object simulator runs, whatever was requested; with no C toolchain the
mapping optimizer runs its oracle too. Every pair of engines is held to
bit-identical results by the differential harness, so degradation
changes speed, never answers.
"""

from __future__ import annotations

import os

#: Accepted ``engine=`` values for the netsim entry points.
NETSIM_ENGINES = ("auto", "c", "scalar")

#: Accepted ``engine=`` values for the mapping optimizer.
MAPPING_ENGINES = ("auto", "fast", "scalar")

#: Env switch forcing the scalar netsim oracle (CI parity override).
SCALAR_NETSIM_ENV = "REPRO_SCALAR_NETSIM"

#: Env switch forcing the scalar mapping kernel (CI parity override).
SCALAR_MAPPING_ENV = "REPRO_SCALAR_MAPPING"


def _validate(engine: str, allowed, kind: str) -> str:
    if engine not in allowed:
        raise ValueError(
            f"unknown {kind} engine {engine!r}; choose from {allowed}"
        )
    return engine


def resolve_netsim_engine(engine: str = "auto") -> str:
    """Resolve an ``engine=`` request to ``"c"`` or ``"scalar"``.

    >>> resolve_netsim_engine("scalar")
    'scalar'
    >>> resolve_netsim_engine("c")
    'c'
    """
    _validate(engine, NETSIM_ENGINES, "netsim")
    if os.environ.get(SCALAR_NETSIM_ENV, "") == "1":
        return "scalar"
    return "c" if engine == "auto" else engine


def resolve_mapping_engine(engine: str = "auto") -> str:
    """Resolve an ``engine=`` request to ``"fast"`` or ``"scalar"``.

    >>> resolve_mapping_engine("fast")
    'fast'
    """
    _validate(engine, MAPPING_ENGINES, "mapping")
    if os.environ.get(SCALAR_MAPPING_ENV, "") == "1":
        return "scalar"
    return "fast" if engine == "auto" else engine
