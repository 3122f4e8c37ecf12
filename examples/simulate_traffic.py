"""Cycle-accurate comparison: waferscale switch vs switch network.

Runs the Section VI simulation on a scaled-down 2-level Clos (64 hosts,
radix-16 SSCs by default): load-latency curves for uniform traffic plus
a synthetic LULESH trace replay.

Run:  python examples/simulate_traffic.py [--terminals 128 --radix 16]
"""

from __future__ import annotations

import argparse

from repro.netsim.network import baseline_switch_network, waferscale_clos_network
from repro.netsim.sim import load_latency_sweep
from repro.netsim.trace import (
    SyntheticTraceSpec,
    duplicate_trace,
    replay_trace,
    synthetic_nersc_trace,
)
from repro.netsim.traffic import make_pattern


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--terminals", type=int, default=64)
    parser.add_argument("--radix", type=int, default=16)
    args = parser.parse_args()

    common = dict(
        n_terminals=args.terminals,
        ssc_radix=args.radix,
        num_vcs=4,
        buffer_flits_per_port=16,
    )
    factories = {
        "waferscale": lambda: waferscale_clos_network(**common),
        "switch-network": lambda: baseline_switch_network(**common),
    }

    print(f"Uniform traffic, {args.terminals} hosts on radix-{args.radix} SSCs")
    print(f"{'load':>6s}  " + "".join(f"{name:>18s}" for name in factories))
    loads = (0.1, 0.3, 0.5, 0.7)
    curves = {
        name: load_latency_sweep(
            factory, lambda n: make_pattern("uniform", n), loads
        )
        for name, factory in factories.items()
    }
    for i, load in enumerate(loads):
        cells = "".join(
            f"{curves[name][i].avg_latency_cycles:>15.1f}cyc"
            for name in factories
        )
        print(f"{load:>6.1f}  {cells}")

    print("\nSynthetic LULESH trace replay (halo-exchange bursts):")
    spec = SyntheticTraceSpec(n_nodes=args.terminals // 2, iterations=3)
    events = duplicate_trace(
        synthetic_nersc_trace("lulesh", spec),
        copies=2,
        nodes_per_copy=args.terminals // 2,
    )
    for name, factory in factories.items():
        stats = replay_trace(factory(), events, compression=4.0)
        print(
            f"  {name:15s} finished in {stats.measure_end} cycles, "
            f"avg packet latency {stats.avg_latency_cycles:.1f} cycles"
        )


if __name__ == "__main__":
    main()
