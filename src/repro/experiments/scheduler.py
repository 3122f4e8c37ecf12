"""Warm-pool scheduler fanning experiment work units across cores.

:func:`execute` takes :class:`~repro.experiments.base.ExperimentSpec`
handles, expands each into its independent work units, and runs every
unit of every selected experiment through the shared warm worker pool.
The pool mechanics — persistent preloaded workers, retry-once on
worker failure, serial fallback for twice-failed or stranded units,
stall watchdog, degraded-to-serial fast path on small machines — live
in :func:`repro.parallel.pool_map`, shared with the mapping
optimizer's parallel restarts and the serve dispatcher.

Units are submitted in task order (experiment by experiment, unit by
unit) and the pool runs them first in, first out.

Workers receive only ``(module name, experiment id, unit index)``, so
nothing un-picklable ever crosses the process boundary; each worker
re-derives the unit list from the module's deterministic ``units()``.
Merged results are bit-identical to a serial run because units share no
mutable state (all simulator/mapping RNG is locally seeded).

Every unit also reports a small stats dict — wall time plus the
mapping-store activity it caused (:mod:`repro.mapping.store` counters
diffed around the unit) — which :func:`execute` collects into
``profile_out`` rows for the runner's ``--profile`` table, alongside
the pool's measured per-unit dispatch overhead (``dispatch_s``: time a
result spent crossing process boundaries, zero for serial execution).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult, ExperimentSpec
from repro.parallel import pool_map


def _execute_unit(
    module_name: str, experiment_id: str, unit_index: int, fast: bool
) -> Tuple[Any, Dict[str, float]]:
    """Worker entry point: run one unit, measuring its mapping activity."""
    from repro.mapping import store as mapping_store

    spec = ExperimentSpec(experiment_id=experiment_id, module_name=module_name)
    units = spec.units(fast=fast)
    before = mapping_store.stats_snapshot()
    started = time.perf_counter()
    result = spec.run_unit(units[unit_index], fast=fast)
    stats = {"seconds": time.perf_counter() - started}
    stats.update(mapping_store.stats_delta(before))
    return result, stats


def execute(
    specs: Sequence[ExperimentSpec],
    fast: bool = True,
    jobs: Optional[int] = 1,
    unit_timeout: Optional[float] = None,
    profile_out: Optional[List[Dict[str, Any]]] = None,
) -> List[ExperimentResult]:
    """Run the experiments, fanning work units over ``jobs`` processes.

    ``jobs <= 1`` runs everything serially in-process (no pool at all);
    ``jobs=None`` auto-detects the effective core count. Either way
    :func:`repro.parallel.effective_jobs` may degrade the request to
    the serial fast path when cores or units are too few to pay for
    dispatch. ``unit_timeout`` is a stall watchdog: if no unit
    completes for that many seconds, outstanding units are abandoned to
    serial fallback. ``profile_out``, if given, receives one row per
    unit: ``{"experiment_id", "unit", "seconds", "dispatch_s",
    <mapping-store counters>}``.
    """
    specs = list(specs)
    unit_lists = [spec.units(fast=fast) for spec in specs]
    owners = [
        (spec, unit_index)
        for spec, units in zip(specs, unit_lists)
        for unit_index in range(len(units))
    ]
    dispatch_stats: List[Optional[Dict[str, Any]]] = []
    outcomes = pool_map(
        _execute_unit,
        [(spec.module_name, spec.experiment_id, index, fast) for spec, index in owners],
        jobs=jobs,
        timeout=unit_timeout,
        labels=[f"{spec.experiment_id}[{index}]" for spec, index in owners],
        dispatch_stats=dispatch_stats,
    )

    done = iter(zip(outcomes, dispatch_stats))
    merged = []
    for spec, units in zip(specs, unit_lists):
        row = []
        for unit_index in range(len(units)):
            (result, stats), pool_stats = next(done)
            row.append(result)
            if profile_out is not None:
                profile_out.append({
                    "experiment_id": spec.experiment_id,
                    "unit": unit_index,
                    **stats,
                    "dispatch_s": pool_stats["dispatch_s"],
                })
        merged.append(spec.merge(row, fast=fast))
    return merged
