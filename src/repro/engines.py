"""Explicit engine selection for the netsim and mapping kernels.

The repo carries two interchangeable netsim implementations (the
scalar object oracle and the vectorized engine driven by the compiled
C step kernel) and two mapping kernels (scalar oracle,
delta-vectorized fast kernel). Historically the only way to pick one
was an environment variable set before the run
(``REPRO_SCALAR_NETSIM``, ``REPRO_SCALAR_MAPPING``) — fine for CI
parity jobs, hostile to programmatic callers. This module is the
explicit front door: every simulation entry point now takes an
``engine=`` keyword whose value is resolved here, **once per run**,
before any dispatch happens.

Netsim engine names (``NETSIM_ENGINES``):

* ``"auto"``   — the process default (normally ``"c"``); what you get
  when you don't care.
* ``"c"``      — the vectorized engine with the compiled C step kernel.
  It serves Bernoulli load points, trace replay and partition epochs at
  any port count.
* ``"scalar"`` — the object-model oracle.

Mapping engine names (``MAPPING_ENGINES``): ``"auto"``, ``"fast"``
(delta-vectorized numpy kernel), ``"scalar"`` (pure-Python oracle).

Resolution order, most binding first:

1. **Environment overrides** — ``REPRO_SCALAR_NETSIM=1`` forces
   ``"scalar"``; ``REPRO_SCALAR_MAPPING=1`` forces the scalar mapping
   kernel. These exist so CI parity jobs can pin a whole test
   process (including subprocesses) without editing call sites.
2. **The explicit ``engine=`` argument** of the entry point.
3. **The process default** (:func:`set_default_engines`), which the
   pool-worker initializer in :mod:`repro.parallel` mirrors into
   workers so ``--jobs`` runs honor a top-level choice.

A request the host cannot satisfy degrades to the scalar oracle: with
no C toolchain, or for a network shape the vectorized engine does not
support, :func:`repro.netsim.fast_core.engine_for` declines and the
object simulator runs, whatever was requested. Both engines are held to
bit-identical results by the differential harness, so degradation
changes speed, never answers.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

#: Accepted ``engine=`` values for the netsim entry points.
NETSIM_ENGINES = ("auto", "c", "scalar")

#: Accepted ``engine=`` values for the mapping optimizer.
MAPPING_ENGINES = ("auto", "fast", "scalar")

#: Env switch forcing the scalar netsim oracle (CI parity override).
SCALAR_NETSIM_ENV = "REPRO_SCALAR_NETSIM"

#: Env switch forcing the scalar mapping kernel (CI parity override).
SCALAR_MAPPING_ENV = "REPRO_SCALAR_MAPPING"

#: Process-wide defaults used when a caller passes ``engine="auto"``.
_DEFAULTS: Dict[str, str] = {"netsim": "auto", "mapping": "auto"}


def set_default_engines(
    netsim: Optional[str] = None, mapping: Optional[str] = None
) -> None:
    """Set the process-wide engines behind ``engine="auto"``.

    The :mod:`repro.parallel` pool initializer replays these defaults
    into every worker, so one call before a ``--jobs`` run pins the
    engine everywhere. Pass ``None`` to leave a default unchanged.
    """
    if netsim is not None:
        _validate(netsim, NETSIM_ENGINES, "netsim")
        _DEFAULTS["netsim"] = netsim
    if mapping is not None:
        _validate(mapping, MAPPING_ENGINES, "mapping")
        _DEFAULTS["mapping"] = mapping


def default_engines() -> Dict[str, str]:
    """Copy of the process defaults (the pool initializer payload)."""
    return dict(_DEFAULTS)


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
    if engine == "auto":
        engine = _DEFAULTS["netsim"]
    return "c" if engine == "auto" else engine


def resolve_mapping_engine(engine: str = "auto") -> str:
    """Resolve an ``engine=`` request to ``"fast"`` or ``"scalar"``.

    >>> resolve_mapping_engine("fast")
    'fast'
    """
    _validate(engine, MAPPING_ENGINES, "mapping")
    if os.environ.get(SCALAR_MAPPING_ENV, "") == "1":
        return "scalar"
    if engine == "auto":
        engine = _DEFAULTS["mapping"]
    return "fast" if engine == "auto" else engine
