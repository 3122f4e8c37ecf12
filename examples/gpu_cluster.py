"""Sizing a singular GPU cluster around a waferscale switch (Table VIII).

Builds the paper's 2048 x 800G switch configuration, checks its
feasibility on a 300 mm substrate, and compares the resulting GPU
cluster to a DGX-GH200-style NVSwitch network.

Run:  python examples/gpu_cluster.py
"""

from __future__ import annotations

from repro.core.design import evaluate_design
from repro.core.use_cases import NVSWITCH_BASELINE, gpu_cluster_comparison
from repro.tech.chiplet import TH5_CONFIGURATIONS
from repro.tech.external_io import OPTICAL_IO
from repro.tech.wsi import SI_IF_OVERDRIVEN
from repro.topology.clos import folded_clos


def main() -> None:
    # TH-5 in its 64 x 800G configuration; 2048 ports = 32x one chip.
    ssc = TH5_CONFIGURATIONS[64]
    topology = folded_clos(2048, ssc)
    design = evaluate_design(300.0, topology, SI_IF_OVERDRIVEN, OPTICAL_IO)
    print("GPU switch design:", design.describe())
    print(
        f"  per-port internal bandwidth: "
        f"{design.constraints.available_per_port_gbps:.0f} Gbps "
        f"(needs {ssc.port_bandwidth_gbps:g})"
    )

    comparison = gpu_cluster_comparison(gpus=2048)
    print(f"\n{comparison.label} vs NVSwitch network:")
    print(f"  GPUs:        2048 vs {NVSWITCH_BASELINE['gpus']}")
    print(f"  switches:    {comparison.ws_switches} vs {comparison.baseline_switches}")
    print(f"  cables:      {comparison.ws_cables} vs {comparison.baseline_cables}")
    print(f"  hop count:   {comparison.ws_hops} vs {comparison.baseline_hops}")
    print(f"  rack units:  {comparison.ws_rack_units} vs {comparison.baseline_rack_units}")
    print(
        f"  bisection:   {comparison.bisection_bandwidth_gbps / 1000:.1f} Tbps "
        f"vs {NVSWITCH_BASELINE['bisection_tbps']} Tbps"
    )
    # 96 GB HBM per GPU (GH200-class) -> shared VRAM pool at one hop.
    vram_tb = 2048 * 576 / 1024
    print(f"  shared VRAM: {vram_tb / 1000:.2f} PB at a single switch hop")


if __name__ == "__main__":
    main()
