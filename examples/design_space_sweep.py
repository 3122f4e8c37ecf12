"""Full design-space sweep: the paper's Figures 6-9 in one report.

Sweeps substrate sizes, internal bandwidth densities, and external I/O
technologies, printing the maximum feasible radix and its binding
constraint for each point.

Run:  python examples/design_space_sweep.py [--full]
      (--full includes the 300 mm substrate; ~2-4 minutes on first run)
"""

from __future__ import annotations

import argparse

from repro.core.explorer import ideal_max_ports, max_feasible_design
from repro.tech.external_io import AREA_IO, OPTICAL_IO, SERDES_IO
from repro.tech.wsi import SI_IF, SI_IF_OVERDRIVEN


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()

    substrates = (100.0, 200.0, 300.0) if args.full else (100.0, 200.0)
    wsis = ((SI_IF, "3200"), (SI_IF_OVERDRIVEN, "6400"))
    externals = (SERDES_IO, OPTICAL_IO, AREA_IO)

    header = f"{'substrate':>9s} {'internal':>9s} {'external':>12s} {'ports':>6s} {'ideal':>6s}  binding"
    print(header)
    print("-" * len(header))
    for side in substrates:
        ideal = ideal_max_ports(side)
        for wsi, density in wsis:
            for ext in externals:
                design = max_feasible_design(side, wsi=wsi, external_io=ext)
                if design is None:
                    print(
                        f"{side:>7.0f}mm {density:>9s} {ext.name:>12s} "
                        f"{'—':>6s} {ideal:>6d}  (none feasible)"
                    )
                    continue
                binding = (
                    "none (area-ideal)"
                    if design.n_ports == ideal
                    else "internal/external bandwidth"
                )
                print(
                    f"{side:>7.0f}mm {density:>9s} {ext.name:>12s} "
                    f"{design.n_ports:>6d} {ideal:>6d}  {binding}"
                )


if __name__ == "__main__":
    main()
