"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``design``      — find and describe the max feasible switch for a
                    substrate / technology combination.
* ``experiments`` — run paper-artifact reproductions (same as
                    ``python -m repro.experiments.runner``).
* ``simulate``    — run the cycle-accurate WS-vs-network comparison.
* ``usecases``    — print the deployment comparison tables.
* ``serve``       — answer design/sweep/simulate queries over HTTP
                    (coalescing + response cache; see docs/serve.md).
* ``shard``       — run experiments through the queue-backed shard
                    coordinator + runner processes (see
                    docs/parallel.md, "Shard runner").
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.tech.external_io import EXTERNAL_IO_TECHNOLOGIES
from repro.tech.wsi import SI_IF_OVERDRIVEN, WSI_TECHNOLOGIES


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.core.explorer import max_feasible_design
    from repro.core.hetero import apply_heterogeneity
    from repro.mapping.visualize import describe_mapping

    wsi = WSI_TECHNOLOGIES[args.wsi]
    external = EXTERNAL_IO_TECHNOLOGIES[args.external_io]
    design = max_feasible_design(args.substrate, wsi=wsi, external_io=external)
    if design is None:
        print("no feasible waferscale design for this configuration")
        return 1
    print(design.describe())
    print(
        f"power density {design.power_density_w_per_mm2:.2f} W/mm2; "
        f"I/O share {design.power.io_fraction * 100:.0f}%"
    )
    if args.hetero:
        hetero = apply_heterogeneity(design, leaf_split=4)
        print(
            f"heterogeneous: {hetero.power.total_w / 1000:.1f} kW "
            f"(-{hetero.power_reduction_fraction * 100:.1f}%), "
            f"{hetero.cooling.name} cooling"
        )
    if args.show_mapping and design.mapping is not None:
        print()
        print(describe_mapping(design.mapping))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as runner_main

    forwarded = list(args.ids)
    if args.full:
        forwarded.append("--full")
    if args.jobs != "auto":
        forwarded.append(f"--jobs={args.jobs}")
    if args.no_cache:
        forwarded.append("--no-cache")
    if args.cache_clear:
        forwarded.append("--cache-clear")
    if args.profile:
        forwarded.append("--profile")
    if args.timeout is not None:
        forwarded.append(f"--timeout={args.timeout}")
    if args.telemetry is not None:
        forwarded.append(
            f"--telemetry={args.telemetry}" if args.telemetry else "--telemetry"
        )
    return runner_main(forwarded)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.netsim.network import (
        baseline_switch_network,
        waferscale_clos_network,
    )
    from repro.netsim.sim import load_latency_sweep
    from repro.netsim.telemetry import Telemetry
    from repro.netsim.traffic import make_pattern

    common = dict(
        n_terminals=args.terminals,
        ssc_radix=args.radix,
        num_vcs=args.vcs,
        buffer_flits_per_port=args.buffer,
    )
    loads = [float(x) for x in args.loads.split(",")]
    reports = {}
    for label, factory in (
        ("waferscale", lambda: waferscale_clos_network(**common)),
        ("switch-network", lambda: baseline_switch_network(**common)),
    ):
        sinks = []

        def point_telemetry(load, _sinks=sinks):
            telemetry = Telemetry()
            _sinks.append((load, telemetry))
            return telemetry

        points = load_latency_sweep(
            factory,
            lambda n: make_pattern(args.pattern, n),
            loads,
            telemetry_factory=point_telemetry if args.telemetry else None,
            engine=args.engine,
        )
        for load, telemetry in sinks:
            reports[f"{label}/load={load:g}"] = telemetry.to_dict()
        print(f"\n{label} ({args.pattern}):")
        for point in points:
            print(
                f"  load {point.offered_load:.2f}: "
                f"{point.avg_latency_cycles:7.1f} cycles "
                f"({point.avg_latency_ns:7.0f} ns), accepted "
                f"{point.accepted_load:.3f}"
                + ("  [saturated]" if point.saturated else "")
            )
    if args.telemetry:
        # One bundle file: a report per (network, load) sweep point.
        import json
        import pathlib

        target = pathlib.Path(args.telemetry)
        if target.parent != pathlib.Path("."):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(
                {"schema": "repro-netsim-telemetry-bundle", "reports": reports},
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"\ntelemetry bundle written to {target}")
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
        executor=args.executor,
        fidelity=args.fidelity,
        cycle_wafers=tuple(
            int(w) for w in args.cycle_wafers.split(",") if w.strip()
        ),
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
        f"dcn: {result['n_wafers']} wafers, executor={result['executor']}, "
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
        import json
        import pathlib

        target = pathlib.Path(args.json)
        if target.parent != pathlib.Path("."):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(response, indent=1, sort_keys=True) + "\n")
        print(f"  response written to {target}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import main as serve_main

    forwarded = [f"--host={args.host}", f"--port={args.port}"]
    if args.engine != "auto":
        forwarded.append(f"--engine={args.engine}")
    if args.mapping_engine != "auto":
        forwarded.append(f"--mapping-engine={args.mapping_engine}")
    if args.no_cache:
        forwarded.append("--no-cache")
    return serve_main(forwarded)


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro import shard

    if args.connect:
        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            print("error: --connect needs HOST:PORT", file=sys.stderr)
            return 2
        if not args.authkey:
            print("error: --connect requires --authkey", file=sys.stderr)
            return 2
        executed = shard.run_runner(
            (host, int(port)), bytes.fromhex(args.authkey)
        )
        print(f"[runner executed {executed} unit(s)]")
        return 0

    stats: dict = {}
    results = shard.coordinate(
        args.ids,
        fast=not args.full,
        local_runners=args.runners,
        result_timeout=args.timeout,
        stats_out=stats,
    )
    for result in results:
        print(result.format_table())
        print()
    print(
        f"[{stats['units']} unit(s): {stats['sharded']} sharded over "
        f"{args.runners} runner(s), {stats['local']} completed locally]"
    )
    return 0


def _cmd_usecases(args: argparse.Namespace) -> int:
    del args
    from repro.experiments.runner import run_experiments

    for result in run_experiments(["tab03", "tab07", "tab08", "tab09"]):
        print(result.format_table())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    design = sub.add_parser("design", help="max feasible switch design")
    design.add_argument("--substrate", type=float, default=300.0)
    design.add_argument(
        "--wsi",
        choices=sorted(WSI_TECHNOLOGIES),
        default=SI_IF_OVERDRIVEN.name,
    )
    design.add_argument(
        "--external-io",
        choices=sorted(EXTERNAL_IO_TECHNOLOGIES),
        default="Optical I/O",
    )
    design.add_argument("--hetero", action="store_true")
    design.add_argument("--show-mapping", action="store_true")
    design.set_defaults(func=_cmd_design)

    experiments = sub.add_parser("experiments", help="reproduce paper artifacts")
    experiments.add_argument("ids", nargs="*")
    experiments.add_argument("--full", action="store_true")
    experiments.add_argument(
        "--jobs",
        default="auto",
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
    simulate.add_argument("--loads", default="0.1,0.3,0.5,0.7")
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
        "--executor",
        choices=("auto", "serial", "pool"),
        default="auto",
        help="serial = monolithic reference; pool = one warm worker "
        "per wafer partition",
    )
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

    serve = sub.add_parser("serve", help="query the model over HTTP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8177, help="0 picks a free port")
    serve.add_argument(
        "--engine", choices=("auto", "c", "scalar"), default="auto"
    )
    serve.add_argument(
        "--mapping-engine", choices=("auto", "fast", "scalar"), default="auto"
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the serve response cache (coalescing still applies)",
    )
    serve.set_defaults(func=_cmd_serve)

    shard = sub.add_parser(
        "shard", help="queue-backed shard coordinator / runner"
    )
    shard.add_argument("ids", nargs="*", help="experiment ids to coordinate")
    shard.add_argument("--full", action="store_true")
    shard.add_argument(
        "--runners",
        type=int,
        default=2,
        help="host-local runner processes to spawn (default 2)",
    )
    shard.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="seconds to wait between result arrivals before finishing "
        "stragglers locally (default 300)",
    )
    shard.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="run as a runner against an existing coordinator instead",
    )
    shard.add_argument(
        "--authkey",
        default=None,
        metavar="HEX",
        help="shared authkey (hex) for --connect",
    )
    shard.set_defaults(func=_cmd_shard)

    usecases = sub.add_parser("usecases", help="deployment tables")
    usecases.set_defaults(func=_cmd_usecases)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
