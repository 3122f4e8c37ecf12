"""repro: a reproduction of "Waferscale Network Switches" (ISCA 2024).

Public API overview (each package ``__init__`` holds only its
docstring; import every name from the module that defines it):

* ``repro.tech`` — technology parameter models (WSI substrates,
  external I/O, TH-5-like chiplets, power scaling, cooling).
* ``repro.topology`` — logical switch topologies (folded Clos,
  heterogeneous Clos, mesh, butterfly, dragonfly, flattened butterfly).
* ``repro.mapping`` — logical-to-physical mapping onto the wafer mesh
  with the pairwise-exchange heuristic (Algorithm 1).
* ``repro.core`` — the design-space study: feasibility constraints,
  max-radix exploration, heterogeneity / deradixing optimizations,
  power breakdowns, system architecture, and use-case comparisons.
* ``repro.netsim`` — cycle-accurate network simulator (Booksim2
  equivalent) for the Section VI performance experiments.
* ``repro.dcn`` — multi-wafer datacenter network simulation.
* ``repro.experiments`` — one module per paper table/figure.
* ``repro.api`` / ``repro.serve`` — the query facade and its HTTP
  service.

Quickstart::

    from repro.core.explorer import max_feasible_design
    from repro.tech.external_io import OPTICAL_IO
    from repro.tech.wsi import SI_IF_OVERDRIVEN

    design = max_feasible_design(
        300, wsi=SI_IF_OVERDRIVEN, external_io=OPTICAL_IO
    )
    print(design.describe())  # 8192 x 200G ports, ~62 kW
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
