"""Run experiments from the command line.

Usage::

    python -m repro.experiments.runner                  # all, fast mode
    python -m repro.experiments.runner fig07            # one experiment
    python -m repro.experiments.runner --full           # full-scale runs
    python -m repro.experiments.runner --jobs 4         # parallel units
    python -m repro.experiments.runner --jobs auto      # effective cores
    python -m repro.experiments.runner --no-cache       # always recompute
    python -m repro.experiments.runner --cache-clear    # wipe the result cache
    python -m repro.experiments.runner --profile        # per-unit timings
    python -m repro.experiments.runner fig21 --telemetry[=DIR]
                                        # per-point telemetry artifacts

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

import os
import sys
import time
from typing import List, Optional, Sequence, Tuple

from repro.experiments.base import (
    EXPERIMENT_IDS,
    ExperimentResult,
    get_spec,
)
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


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    print(__doc__, file=sys.stderr)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    fast = True
    jobs: Optional[int] = None  # auto-detect effective cores
    use_cache = True
    cache_clear = False
    profile = False
    telemetry_out: Optional[str] = None
    unit_timeout: Optional[float] = None
    ids: List[str] = []

    iterator = iter(args)
    for arg in iterator:
        if arg == "--full":
            fast = False
        elif arg == "--no-cache":
            use_cache = False
        elif arg == "--telemetry" or arg.startswith("--telemetry="):
            value = arg.split("=", 1)[1] if "=" in arg else ""
            telemetry_out = value or "telemetry"
        elif arg == "--cache-clear":
            cache_clear = True
        elif arg == "--profile":
            profile = True
        elif arg == "--jobs" or arg.startswith("--jobs="):
            value = arg.split("=", 1)[1] if "=" in arg else next(iterator, None)
            if value == "auto":
                jobs = None
            elif value is None or not value.lstrip("-").isdigit():
                return _usage_error("--jobs needs an integer or 'auto'")
            else:
                jobs = int(value)
        elif arg == "--timeout" or arg.startswith("--timeout="):
            value = arg.split("=", 1)[1] if "=" in arg else next(iterator, None)
            try:
                unit_timeout = float(value)
            except (TypeError, ValueError):
                return _usage_error("--timeout needs a number of seconds")
        elif arg.startswith("-"):
            return _usage_error(f"unknown option {arg!r}")
        else:
            ids.append(arg)

    if telemetry_out is not None:
        # A cached result would skip the simulations that write the
        # artifacts, so telemetry runs bypass the result cache. The env
        # var is inherited by pool workers (set before the pool forks).
        from repro.experiments.telemetry_io import TELEMETRY_DIR_ENV

        os.environ[TELEMETRY_DIR_ENV] = telemetry_out
        use_cache = False

    cache = ResultCache() if use_cache else None
    if cache_clear:
        removed = ResultCache().clear()
        print(f"cleared {removed} cache entr{'y' if removed == 1 else 'ies'}")
        if not ids:
            return 0

    unknown = [i for i in ids if i not in EXPERIMENT_IDS]
    if unknown:
        print(
            f"error: unknown experiment id(s): {', '.join(sorted(unknown))}\n"
            f"known ids: {' '.join(EXPERIMENT_IDS)}",
            file=sys.stderr,
        )
        return 2

    start = time.time()
    profile_rows: Optional[List[dict]] = [] if profile else None
    for result in run_experiments(
        ids or None,
        fast=fast,
        jobs=jobs,
        cache=cache,
        unit_timeout=unit_timeout,
        profile_out=profile_rows,
    ):
        print(result.format_table())
        print()
    if profile_rows is not None:
        print(format_profile(profile_rows))
        print()
    if telemetry_out is not None:
        print(f"[telemetry artifacts under {telemetry_out}/]")
    if jobs is None:
        from repro.parallel import effective_cpu_count

        jobs_label = f"auto({effective_cpu_count()})"
    else:
        jobs_label = str(jobs)
    print(f"[{time.time() - start:.1f}s total, fast={fast}, jobs={jobs_label}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
