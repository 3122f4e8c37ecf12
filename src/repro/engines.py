"""Explicit engine selection for the netsim and mapping kernels.

The repo carries two interchangeable netsim implementations (the
scalar object oracle and the vectorized engine driven by the compiled
C step kernel) and two mapping kernels (the pure-Python oracle and
the compiled C kernel, which replays it). Every simulation entry point
takes an ``engine=`` keyword, and :func:`repro.mapping.exchange.
optimize_mapping` takes one too; its value is resolved here, **once
per run**, before any dispatch happens. That argument is the only
selector: no environment variable or process-global switch overrides
it, so a pool worker runs the engine its task names.

Netsim engine names (``NETSIM_ENGINES``):

* ``"auto"``   — ``"c"``; what you get when you don't care.
* ``"c"``      — the vectorized engine with the compiled C step kernel.
  It serves Bernoulli load points, trace replay and partition epochs at
  any port count.
* ``"scalar"`` — the object-model oracle.

Mapping engine names (``MAPPING_ENGINES``): ``"auto"``, ``"fast"``
(the C kernel, ``map_sweep`` in :mod:`repro.ckernel`),
``"scalar"`` (pure-Python oracle).

A request the host cannot satisfy degrades to the scalar oracle: with
no C toolchain, or for a network shape the vectorized engine does not
support, :func:`repro.netsim.fast_core.engine_for` declines and the
object simulator runs, whatever was requested; with no C toolchain the
mapping optimizer runs its oracle too. Every pair of engines is held to
bit-identical results by the differential harness, so degradation
changes speed, never answers.
"""

from __future__ import annotations

#: Accepted ``engine=`` values for the netsim entry points.
NETSIM_ENGINES = ("auto", "c", "scalar")

#: Accepted ``engine=`` values for the mapping optimizer.
MAPPING_ENGINES = ("auto", "fast", "scalar")


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
    >>> resolve_netsim_engine("auto")
    'c'
    """
    _validate(engine, NETSIM_ENGINES, "netsim")
    return "c" if engine == "auto" else engine


def resolve_mapping_engine(engine: str = "auto") -> str:
    """Resolve an ``engine=`` request to ``"fast"`` or ``"scalar"``.

    >>> resolve_mapping_engine("auto")
    'fast'
    """
    _validate(engine, MAPPING_ENGINES, "mapping")
    return "fast" if engine == "auto" else engine


def netsim_engine_tag(engine: str = "auto") -> str:
    """The netsim engine a run with this request takes on a shape the
    kernel models.

    ``"c"`` only when ``"c"`` is resolved *and* the kernel loads;
    ``"scalar"`` otherwise, the oracle a kernel-less host degrades to.
    :func:`repro.netsim.fast_core.engine_tag` adds the VC limit.
    """
    from repro import ckernel

    if resolve_netsim_engine(engine) == "scalar" or ckernel.load_kernel() is None:
        return "scalar"
    return "c"
