"""Command-line interface: ``python -m repro <command>``.

One parser; each command turns its arguments into a call of the code
that the HTTP server and Python callers already run, then formats the
answer:

* ``design``      — max feasible switch for a substrate / technology
                    combination (a :class:`repro.api.DesignQuery`).
* ``experiments`` — paper-artifact reproductions
                    (:func:`repro.experiments.runner.run_experiments`).
* ``simulate``    — cycle-accurate WS-vs-network comparison (one
                    :class:`repro.api.SimQuery` per network).
* ``usecases``    — the deployment comparison tables (``experiments``
                    on tab03, tab07, tab08 and tab09).
* ``dcn``         — partitioned multi-wafer DCN simulation (a
                    :class:`repro.api.DCNQuery`).
* ``serve``       — answer queries over HTTP; its options belong to
                    :func:`repro.serve.server.main` (see docs/serve.md).

A malformed query (:class:`repro.api.QueryError`) prints ``error: ...``
and exits 2, like a usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

#: The experiments behind ``usecases``.
USECASE_IDS = ("tab03", "tab07", "tab08", "tab09")


def _write_json(path: str, document) -> None:
    import json
    import pathlib

    target = pathlib.Path(path)
    if target.parent != pathlib.Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.api import DesignQuery, execute
    from repro.core.design import DesignPoint
    from repro.mapping.visualize import describe_mapping

    query = DesignQuery(
        substrate_mm=args.substrate,
        wsi=args.wsi,
        external_io=args.external_io,
        hetero=args.hetero,
    )
    result = execute(query)["result"]
    if not result["feasible"]:
        print("no feasible waferscale design for this configuration")
        return 1
    design = DesignPoint.from_dict(result["design"])
    print(design.describe())
    print(
        f"power density {design.power_density_w_per_mm2:.2f} W/mm2; "
        f"I/O share {design.power.io_fraction * 100:.0f}%"
    )
    hetero = result.get("hetero")
    if hetero is not None:
        print(
            f"heterogeneous: {hetero['total_power_w'] / 1000:.1f} kW "
            f"(-{hetero['power_reduction_fraction'] * 100:.1f}%), "
            f"{hetero['cooling']} cooling"
        )
    if args.show_mapping and design.mapping is not None:
        print()
        print(describe_mapping(design.mapping))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    import os
    import time

    from repro.api import QueryError
    from repro.experiments.base import EXPERIMENT_IDS
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import format_profile, run_experiments
    from repro.experiments.telemetry_io import TELEMETRY_DIR_ENV

    if args.cache_clear:
        removed = ResultCache().clear()
        print(f"cleared {removed} cache entr{'y' if removed == 1 else 'ies'}")
        if not args.ids:
            return 0
    unknown = sorted(set(args.ids) - set(EXPERIMENT_IDS))
    if unknown:
        raise QueryError(
            f"unknown experiment id(s): {', '.join(unknown)}\n"
            f"known ids: {' '.join(EXPERIMENT_IDS)}"
        )

    # A cached result would skip the simulations that write telemetry
    # artifacts, so telemetry runs bypass the result cache. Pool workers
    # receive the directory with every task.
    telemetry_out = args.telemetry
    if telemetry_out is not None:
        telemetry_out = telemetry_out or "telemetry"
    use_cache = not args.no_cache and telemetry_out is None
    previous = os.environ.get(TELEMETRY_DIR_ENV)
    if telemetry_out is not None:
        os.environ[TELEMETRY_DIR_ENV] = telemetry_out
    start = time.time()
    profile_rows = [] if args.profile else None
    try:
        results = run_experiments(
            args.ids or None,
            fast=not args.full,
            jobs=args.jobs,
            cache=ResultCache() if use_cache else None,
            unit_timeout=args.timeout,
            profile_out=profile_rows,
        )
    finally:
        if previous is None:
            os.environ.pop(TELEMETRY_DIR_ENV, None)
        else:
            os.environ[TELEMETRY_DIR_ENV] = previous

    for result in results:
        print(result.format_table())
        print()
    if profile_rows is not None:
        print(format_profile(profile_rows))
        print()
    if telemetry_out is not None:
        print(f"[telemetry artifacts under {telemetry_out}/]")
    if args.jobs is None:
        from repro.parallel import effective_cpu_count

        jobs_label = f"auto({effective_cpu_count()})"
    else:
        jobs_label = str(args.jobs)
    print(
        f"[{time.time() - start:.1f}s total, fast={not args.full}, "
        f"jobs={jobs_label}]"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.api import SimQuery, execute

    reports = {}
    for network in ("waferscale", "switch-network"):
        query = SimQuery(
            network=network,
            terminals=args.terminals,
            radix=args.radix,
            vcs=args.vcs,
            buffer_flits=args.buffer,
            pattern=args.pattern,
            loads=args.loads,
            telemetry=bool(args.telemetry),
        )
        result = execute(query, engine=args.engine)["result"]
        for entry in result.get("telemetry", ()):
            reports[f"{network}/load={entry['load']:g}"] = entry["report"]
        print(f"\n{network} ({args.pattern}):")
        for point in result["points"]:
            print(
                f"  load {point['offered_load']:.2f}: "
                f"{point['avg_latency_cycles']:7.1f} cycles "
                f"({point['avg_latency_ns']:7.0f} ns), accepted "
                f"{point['accepted_load']:.3f}"
                + ("  [saturated]" if point["saturated"] else "")
            )
    if args.telemetry:
        # One bundle file: a report per (network, load) sweep point.
        _write_json(
            args.telemetry,
            {"schema": "repro-netsim-telemetry-bundle", "reports": reports},
        )
        print(f"\ntelemetry bundle written to {args.telemetry}")
    return 0


def _cmd_dcn(args: argparse.Namespace) -> int:
    from repro.api import DCNQuery, execute

    query = DCNQuery(
        hosts=args.hosts,
        wafer_radix=args.wafer_radix,
        ssc_radix=args.radix,
        back_to_back=args.back_to_back,
        pattern=args.pattern,
        duration_cycles=args.duration,
        load=args.load,
        seed=args.seed,
        lookahead=args.lookahead,
        inter_wafer_latency=args.inter_wafer_latency,
        failure_seed=args.failure_seed,
        link_failure_prob=args.link_failure_prob,
        fidelity=args.fidelity,
        cycle_wafers=args.cycle_wafers,
    )
    response = execute(query, engine=args.engine)
    result = response["result"]
    fidelity = result["fidelity"]
    if fidelity == "cycle":
        fidelity_note = ""
    else:
        fidelity_note = (
            f", fidelity={fidelity} "
            f"({result['cycle_accurate_wafers']}/{result['n_wafers']} "
            "wafers cycle-accurate)"
        )
    print(
        f"dcn: {result['n_wafers']} wafers, "
        f"engine={result['engine']}{fidelity_note}"
    )
    print(
        f"  packets {result['packets_delivered']}/{result['packets_created']}"
        f" delivered ({result['packets_dropped_unroutable']} unroutable), "
        f"flits {result['flits_delivered']}/{result['flits_offered']}"
    )
    if result["dead_sscs"] or result["dead_links"]:
        print(
            f"  failures: {result['dead_sscs']} dead SSCs, "
            f"{result['dead_links']} dead links"
        )
    latency = result["latency"]
    if latency.get("count"):
        print(
            f"  latency avg {latency['avg']} p50 {latency['p50']} "
            f"p99 {latency['p99']} max {latency['max']} cycles"
        )
    print(
        f"  {result['epochs']} epochs x {result['epoch_cycles']} cycles in "
        f"{result['wall_seconds']:.3f}s"
    )
    if args.json:
        _write_json(args.json, response)
        print(f"  response written to {args.json}")
    return 0


def _csv(cast):
    """argparse ``type=`` for a comma-separated list of ``cast`` values."""

    def parse(text: str) -> tuple:
        try:
            return tuple(cast(item) for item in text.split(",") if item.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {cast.__name__} values, got {text!r}"
            ) from None

    return parse


def _jobs(text: str) -> Optional[int]:
    """argparse ``type=`` for ``--jobs``: an integer, or None for 'auto'."""
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "--jobs needs an integer or 'auto'"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    design = sub.add_parser("design", help="max feasible switch design")
    design.add_argument("--substrate", type=float, default=300.0)
    design.add_argument(
        "--wsi",
        default="Si-IF (x2 overdrive)",
        help="WSI technology name (see repro.tech.wsi)",
    )
    design.add_argument(
        "--external-io",
        default="Optical I/O",
        help="external I/O technology name (see repro.tech.external_io)",
    )
    design.add_argument("--hetero", action="store_true")
    design.add_argument("--show-mapping", action="store_true")
    design.set_defaults(func=_cmd_design)

    experiments = sub.add_parser("experiments", help="reproduce paper artifacts")
    experiments.add_argument("ids", nargs="*")
    experiments.add_argument("--full", action="store_true")
    experiments.add_argument(
        "--jobs",
        type=_jobs,
        default=None,
        help="warm-pool workers to fan work units across; an integer, "
        "or 'auto' (default) for the effective core count",
    )
    experiments.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache (always recompute)",
    )
    experiments.add_argument(
        "--cache-clear",
        action="store_true",
        help="wipe .repro_cache/results/ (then exit unless ids are given)",
    )
    experiments.add_argument(
        "--profile",
        action="store_true",
        help="print per-unit wall time and mapping-store hit/miss table",
    )
    experiments.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-unit stall watchdog in seconds (falls back to serial)",
    )
    experiments.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="write per-point simulator telemetry JSON under DIR "
        "(default telemetry/); implies --no-cache",
    )
    experiments.set_defaults(func=_cmd_experiments)

    simulate = sub.add_parser("simulate", help="cycle-accurate comparison")
    simulate.add_argument("--terminals", type=int, default=64)
    simulate.add_argument("--radix", type=int, default=16)
    simulate.add_argument("--vcs", type=int, default=4)
    simulate.add_argument("--buffer", type=int, default=16)
    simulate.add_argument("--pattern", default="uniform")
    simulate.add_argument("--loads", type=_csv(float), default="0.1,0.3,0.5,0.7")
    simulate.add_argument(
        "--telemetry",
        default=None,
        metavar="OUT.json",
        help="write a telemetry bundle (one report per network x load) "
        "to this JSON file",
    )
    simulate.add_argument(
        "--engine",
        choices=("auto", "c", "scalar"),
        default="auto",
        help="netsim kernel (default auto; see repro.engines)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    dcn = sub.add_parser(
        "dcn", help="partitioned multi-wafer DCN simulation"
    )
    dcn.add_argument("--hosts", type=int, default=16)
    dcn.add_argument("--wafer-radix", type=int, default=16)
    dcn.add_argument("--radix", type=int, default=8, help="intra-wafer SSC radix")
    dcn.add_argument(
        "--back-to-back",
        action="store_true",
        help="two leaf wafers trunked directly (needs hosts == wafer radix)",
    )
    dcn.add_argument(
        "--pattern",
        choices=(
            "uniform", "alltoall", "incast", "elephant_mouse",
            "dp_allreduce", "pp_stages", "tp_burst",
        ),
        default="uniform",
    )
    dcn.add_argument("--duration", type=int, default=128)
    dcn.add_argument("--load", type=float, default=0.05)
    dcn.add_argument("--seed", type=int, default=1)
    dcn.add_argument(
        "--lookahead",
        type=int,
        default=0,
        help="epoch length in cycles (0 = inter-wafer latency, the max)",
    )
    dcn.add_argument("--inter-wafer-latency", type=int, default=40)
    dcn.add_argument(
        "--failure-seed",
        type=int,
        default=-1,
        help="yield-model failure injection seed (negative disables)",
    )
    dcn.add_argument("--link-failure-prob", type=float, default=0.0)
    dcn.add_argument(
        "--engine", choices=("auto", "c", "scalar"), default="auto"
    )
    dcn.add_argument(
        "--fidelity",
        choices=("cycle", "flow", "hybrid"),
        default="cycle",
        help="cycle = every wafer cycle-accurate; flow = calibrated "
        "queueing nodes (paper-scale fabrics); hybrid = --cycle-wafers "
        "stay cycle-accurate, the rest flow-level",
    )
    dcn.add_argument(
        "--cycle-wafers",
        type=_csv(int),
        default="",
        metavar="W0,W1,...",
        help="comma-separated wafer indices kept cycle-accurate under "
        "--fidelity hybrid (default: wafer 0)",
    )
    dcn.add_argument(
        "--json", default=None, metavar="OUT.json",
        help="also write the full API response to this file",
    )
    dcn.set_defaults(func=_cmd_dcn)

    # Every serve option belongs to repro.serve.server.main: main()
    # hands it whatever follows the command, --help included.
    sub.add_parser(
        "serve", help="query the model over HTTP (see docs/serve.md)",
        add_help=False,
    )

    usecases = sub.add_parser("usecases", help="deployment tables")
    usecases.set_defaults(
        func=_cmd_experiments,
        ids=list(USECASE_IDS),
        full=False,
        jobs=None,
        no_cache=False,
        cache_clear=False,
        profile=False,
        timeout=None,
        telemetry=None,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "serve":
        from repro.serve.server import main as serve_main

        return serve_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")

    from repro.api import QueryError

    try:
        return args.func(args)
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
