"""Recorded per-unit wall times driving cost-aware dispatch.

The scheduler dispatches expensive work units first so a big netsim
unit never starts last and strands the pool behind it (longest-
processing-time-first is within 4/3 of optimal makespan for identical
machines; dispatch order is the whole scheduling knob we have). The
cost of a unit is whatever the last run measured: every ``--profile``
pass and every scheduled run records per-unit wall seconds here, keyed
by the unit label (``"fig21[0]"``), persisted as one JSON book under
the cache root so costs survive across runs.

Units never seen before fall back to a coarse prior: the simulation
figures (fig21–fig24) run the cycle-accurate netsim and dominate every
sweep, everything else is analytical-model work orders of magnitude
cheaper. The exact numbers do not matter — only the ordering does, and
a wrong prior costs at most one badly-ordered first run.

>>> book = CostBook(path=None)
>>> book.get("fig21[0]") > book.get("fig08[0]")
True
>>> book.record("fig08[0]", 12.5)
>>> book.get("fig08[0]")
12.5
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

from repro import cas

#: File name of the cost book inside the cache root.
COST_BOOK_NAME = "unit_costs.json"

#: Prior for a never-measured simulation unit (fig21–fig24 drive the
#: cycle-accurate netsim; tens of seconds each in full mode).
SIM_UNIT_PRIOR_S = 5.0

#: Prior for a never-measured analytical unit (sub-second typically).
ANALYTICAL_UNIT_PRIOR_S = 0.5

#: Experiment-id prefixes whose units run the cycle-accurate simulator.
_SIM_PREFIXES = ("fig21", "fig22", "fig23", "fig24")


def _default_cost(label: str) -> float:
    if label.startswith(_SIM_PREFIXES):
        return SIM_UNIT_PRIOR_S
    return ANALYTICAL_UNIT_PRIOR_S


class CostBook:
    """Load/record/persist per-unit wall seconds.

    ``path=None`` keeps the book in memory only (doctests, callers that
    must not touch the cache root). Otherwise the book lives at
    ``<cache root>/unit_costs.json`` and :meth:`save` publishes it
    atomically (:func:`repro.cas.publish`), so concurrent runs can race
    on the file without corrupting it — last writer wins, which is fine
    for a hint.
    """

    def __init__(self, path: Optional[Path] = ...):  # type: ignore[assignment]
        if path is ...:
            path = cas.cache_root() / COST_BOOK_NAME
        self.path = path
        self._costs: Dict[str, float] = {}
        self._dirty = False
        if path is not None:
            try:
                raw = json.loads(path.read_text())
                self._costs = {
                    str(k): float(v)
                    for k, v in raw.get("costs", {}).items()
                }
            except (OSError, ValueError):
                self._costs = {}

    def get(self, label: str) -> float:
        """Estimated wall seconds for the unit with this label."""
        cost = self._costs.get(label)
        if cost is not None:
            return cost
        return _default_cost(label)

    def record(self, label: str, seconds: float) -> None:
        """Record an observed wall time (overwrites the prior estimate)."""
        self._costs[label] = round(float(seconds), 6)
        self._dirty = True

    def save(self) -> None:
        """Persist atomically; a failed write never corrupts the book."""
        if self.path is None or not self._dirty:
            return
        try:
            cas.publish(self.path, json.dumps({"costs": self._costs}, sort_keys=True))
            self._dirty = False
        except OSError:
            pass
