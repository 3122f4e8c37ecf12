"""Quickstart: size a waferscale network switch.

Evaluates the paper's headline design — a 300 mm substrate of TH-5-like
sub-switch chiplets with overdriven Si-IF internal links and Optical
I/O — then applies the heterogeneous-leaf optimization and sizes the
physical enclosure.

Run:  python examples/quickstart.py [--substrate 200]
"""

from __future__ import annotations

import argparse

from repro.core.explorer import max_feasible_design
from repro.core.hetero import apply_heterogeneity
from repro.core.system_arch import design_system_architecture
from repro.tech.external_io import OPTICAL_IO
from repro.tech.wsi import SI_IF_OVERDRIVEN


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--substrate",
        type=float,
        default=300.0,
        help="square substrate side in mm (paper: 100/200/300)",
    )
    args = parser.parse_args()

    print(f"Searching the max feasible Clos on a {args.substrate:g}mm wafer...")
    design = max_feasible_design(
        args.substrate, wsi=SI_IF_OVERDRIVEN, external_io=OPTICAL_IO
    )
    if design is None:
        print("No feasible waferscale design; a single TH-5 is the answer.")
        return

    print(f"  {design.describe()}")
    print(f"  worst-edge load: {design.constraints.max_edge_channels} channels")
    print(
        f"  per-port internal bandwidth: "
        f"{design.constraints.available_per_port_gbps:.0f} Gbps"
    )
    print(
        f"  power: {design.power.total_w / 1000:.1f} kW "
        f"({design.power.io_fraction * 100:.0f}% I/O), "
        f"{design.power_density_w_per_mm2:.2f} W/mm2"
    )

    hetero = apply_heterogeneity(design, leaf_split=4)
    print("\nAfter heterogeneous-leaf optimization (scaled TH-3-like leaves):")
    print(
        f"  power: {hetero.power.total_w / 1000:.1f} kW "
        f"(-{hetero.power_reduction_fraction * 100:.1f}%), "
        f"{hetero.power_density_w_per_mm2:.2f} W/mm2 "
        f"-> {hetero.cooling.name} cooling"
    )

    arch = design_system_architecture(
        args.substrate,
        design.n_ports,
        design.topology.port_bandwidth_gbps,
        hetero.power.total_w,
    )
    print("\nEnclosure:")
    print(f"  {arch.psu_count} PSUs, {arch.dcdc_count} DC-DC, {arch.vrm_count} VRMs")
    print(f"  {arch.pcl_count} cold plates on {arch.supply_channel_count} loops")
    print(
        f"  {arch.adapter_count} optical adapters in {arch.front_panel_ru}RU "
        f"+ 1RU management = {arch.total_ru}RU total"
    )
    print(
        f"  {arch.power_per_port_w:.1f} W/port, "
        f"{arch.capacity_density_tbps_per_ru:.1f} Tbps/RU"
    )


if __name__ == "__main__":
    main()
