"""Waferscale network switch design-space core (the paper's contribution).

This package ties together the technology, topology, and mapping layers
into the paper's analyses:

* :mod:`repro.core.design` / :mod:`repro.core.constraints` — evaluate a
  candidate switch design against area, internal-bandwidth,
  external-bandwidth and cooling constraints.
* :mod:`repro.core.explorer` — find the maximum feasible radix for a
  substrate / technology combination (Figs 6, 7, 9, 12, 17, 18, 25, 27, 28).
* :mod:`repro.core.power_breakdown` — SSC core / internal I/O /
  external I/O power accounting (Figs 10, 11, 13, 26c).
* :mod:`repro.core.hetero` — the heterogeneous switch optimization
  (Section V.B, Figs 14, 16).
* :mod:`repro.core.deradix` — subswitch deradixing (Section V.C,
  Figs 17, 18, 19).
* :mod:`repro.core.physical_clos` — physical-Clos alternative (Fig 26).
* :mod:`repro.core.system_arch` — enclosure, power delivery, cooling
  loop and front-panel sizing (Section VIII.A, Figs 29, 30).
* :mod:`repro.core.use_cases` / :mod:`repro.core.costs` — single-switch
  datacenter, singular GPU, and DCN comparisons (Tables III, VI-IX).
"""
