"""Run paper-artifact experiments through the result cache and the pool.

:func:`run_experiments` is the one execution path behind
``python -m repro experiments`` and ``usecases`` (see :mod:`repro.cli`),
the ``sweep`` queries of :mod:`repro.api` and the benchmarks.

Results are cached under ``.repro_cache/results/`` keyed by experiment
id, run mode, and a source hash of every module the experiment
imports, so an unchanged experiment returns instantly; editing any of
its modules recomputes it (see :mod:`repro.experiments.cache`). ``--jobs N`` fans
the experiments' independent work units across N warm pool workers;
the default (``--jobs auto``) detects the *effective* core count —
CPU affinity and cgroup quotas respected — and small runs degrade to
plain serial execution automatically (see
:mod:`repro.experiments.scheduler` and :mod:`repro.parallel`).

``--telemetry`` makes the simulation figures (fig21-fig24) write one
structured-JSON telemetry report per simulated point under ``DIR``
(default ``telemetry/``), e.g. ``telemetry/fig21/l1_b4.json`` — see
``docs/netsim.md`` for the schema. It implies ``--no-cache`` for the
selected run: a cached result would skip the simulations that emit the
artifacts.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro.experiments.base import EXPERIMENT_IDS, ExperimentResult, get_spec
from repro.experiments.cache import ResultCache
from repro.experiments.scheduler import execute


def run_experiments(
    ids: Optional[Sequence[str]] = None,
    fast: bool = True,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    unit_timeout: Optional[float] = None,
    profile_out: Optional[List[dict]] = None,
) -> List[ExperimentResult]:
    """Run the given experiments (all when ids is None).

    ``jobs`` > 1 schedules independent work units across the warm
    worker pool (``None`` auto-detects the effective core count);
    passing a :class:`~repro.experiments.cache.ResultCache` serves
    up-to-date cached results and stores fresh ones. Output is
    identical for every (jobs, cache) combination. ``profile_out``
    collects one stats row per executed work unit (result-cache hits
    appear as a single ``unit="cached"`` row).
    """
    selected = list(ids) if ids else list(EXPERIMENT_IDS)
    specs = [get_spec(experiment_id) for experiment_id in selected]

    results = {}
    to_run = []
    for spec in specs:
        load_start = time.perf_counter()
        cached = cache.load(spec.experiment_id, fast) if cache else None
        if cached is not None:
            results[spec.experiment_id] = cached
            if profile_out is not None:
                profile_out.append(
                    {
                        "experiment_id": spec.experiment_id,
                        "unit": "cached",
                        "seconds": time.perf_counter() - load_start,
                    }
                )
        elif spec.experiment_id not in results and not any(
            s.experiment_id == spec.experiment_id for s in to_run
        ):
            to_run.append(spec)

    for spec, result in zip(
        to_run,
        execute(
            to_run,
            fast=fast,
            jobs=jobs,
            unit_timeout=unit_timeout,
            profile_out=profile_out,
        ),
    ):
        if cache is not None:
            cache.store(spec.experiment_id, fast, result)
        results[spec.experiment_id] = result

    return [results[experiment_id] for experiment_id in selected]


def format_profile(rows: Sequence[dict]) -> str:
    """Render the ``--profile`` table: wall time and mapping activity.

    One line per work unit plus a per-experiment total; the trailing
    summary is the quickest read on whether the mapping store is doing
    its job (hits) or being missed (optimized from scratch).
    ``dispatch`` is the pool's per-unit dispatch overhead — the time
    the unit's task and result spent crossing process boundaries
    (0.00 for units the serial fast path ran in-process).
    """
    headers = (
        "experiment", "unit", "seconds", "dispatch",
        "memo", "store", "optimized", "opt_s",
    )
    table: List[Tuple[str, ...]] = []

    def fmt(row: dict, label_id: str, label_unit: str) -> Tuple[str, ...]:
        return (
            label_id,
            label_unit,
            f"{row.get('seconds', 0.0):.2f}",
            f"{row.get('dispatch_s', 0.0):.3f}",
            f"{int(row.get('memo_hits', 0))}",
            f"{int(row.get('store_hits', 0))}",
            f"{int(row.get('optimized', 0))}",
            f"{row.get('optimize_seconds', 0.0):.2f}",
        )

    by_experiment: dict = {}
    for row in rows:
        by_experiment.setdefault(row["experiment_id"], []).append(row)
    totals = {"seconds": 0.0, "dispatch_s": 0.0, "memo_hits": 0,
              "store_hits": 0, "optimized": 0, "optimize_seconds": 0.0}
    for experiment_id, unit_rows in by_experiment.items():
        subtotal = dict.fromkeys(totals, 0.0)
        for row in unit_rows:
            if len(unit_rows) > 1:
                table.append(fmt(row, experiment_id, str(row["unit"])))
            for key in subtotal:
                subtotal[key] += row.get(key, 0)
        label_unit = "total" if len(unit_rows) > 1 else str(unit_rows[0]["unit"])
        table.append(fmt(subtotal, experiment_id, label_unit))
        for key in totals:
            totals[key] += subtotal[key]
    table.append(fmt(totals, "all", "total"))

    widths = [
        max(len(headers[i]), *(len(r[i]) for r in table)) for i in range(len(headers))
    ]
    lines = ["== profile: wall time and mapping-store activity per unit =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in table)
    return "\n".join(lines)
