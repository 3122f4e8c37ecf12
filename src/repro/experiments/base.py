"""Shared experiment-result structure, work-unit protocol, and registry.

Every experiment module exposes ``run(fast: bool = True) ->
ExperimentResult``. Modules whose work decomposes into independent
sweep points additionally implement the **work-unit protocol** used by
the parallel scheduler (:mod:`repro.experiments.scheduler`):

* ``units(fast) -> list`` — picklable descriptors of independent work,
  in the exact order their rows appear in the final table;
* ``run_unit(unit, fast) -> partial`` — compute one unit in isolation
  (no shared mutable state with other units);
* ``merge(unit_results, fast) -> ExperimentResult`` — assemble the
  final table from per-unit partials, preserving unit order.

``run`` must equal ``merge([run_unit(u) for u in units()])`` so serial
and parallel execution produce identical tables. A unit's result cannot
depend on which units ran before it in the same process: no state
carries over (packet ids, which feed spine selection, come from a
:class:`repro.netsim.packet.PacketIds` source each run owns), and
``tests/experiments/test_unit_order.py`` runs every unit in two orders.
Modules without the protocol are scheduled as a single opaque unit.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Experiment ids in paper order.
EXPERIMENT_IDS = (
    "fig01",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "fig25",
    "fig26",
    "fig27",
    "fig28",
    "tab03",
    "tab06",
    "tab07",
    "tab08",
    "tab09",
)


@dataclass
class ExperimentResult:
    """Rows/series reproducing one paper artifact."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Tuple]
    notes: List[str] = field(default_factory=list)

    def format_table(self) -> str:
        """Plain-text table in the style of the paper's artifacts."""
        columns = [str(h) for h in self.headers]
        str_rows = [[_fmt(cell) for cell in row] for row in self.rows]
        widths = [
            max(len(columns[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(columns[i])
            for i in range(len(columns))
        ]
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            "  ".join(c.ljust(w) for c, w in zip(columns, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in str_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (see :meth:`from_dict`)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict`; restores tuple rows/headers so a
        round-tripped result compares equal to the original."""
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            headers=tuple(payload["headers"]),
            rows=[tuple(row) for row in payload["rows"]],
            notes=list(payload["notes"]),
        )


def _fmt(cell) -> str:
    """Format one table cell.

    >>> _fmt(0.123456)
    '0.123'
    >>> _fmt(1234567.0)
    '1,234,567'
    >>> _fmt("SerDes")
    'SerDes'
    """
    if isinstance(cell, float):
        return f"{cell:.3g}" if abs(cell) < 1000 else f"{cell:,.0f}"
    return str(cell)


@dataclass(frozen=True)
class ExperimentSpec:
    """Schedulable handle on one experiment module.

    Carries only strings so it can cross process boundaries; the module
    is re-imported (and its unit list re-derived) wherever a unit runs.
    """

    experiment_id: str
    module_name: str

    @property
    def module(self):
        return importlib.import_module(self.module_name)

    @property
    def is_partitioned(self) -> bool:
        """Whether the module declares independent work units."""
        module = self.module
        return all(
            hasattr(module, attr) for attr in ("units", "run_unit", "merge")
        )

    def units(self, fast: bool = True) -> List[Any]:
        """Independent work units (a single opaque one if undeclared)."""
        if self.is_partitioned:
            return list(self.module.units(fast=fast))
        return [None]

    def run_unit(self, unit: Any, fast: bool = True) -> Any:
        """One unit's partial result (the full result if unpartitioned)."""
        if self.is_partitioned:
            return self.module.run_unit(unit, fast=fast)
        return self.module.run(fast=fast)

    def merge(self, unit_results: Sequence[Any], fast: bool = True) -> ExperimentResult:
        """Assemble the final table from unit partials, in unit order."""
        if self.is_partitioned:
            return self.module.merge(unit_results, fast=fast)
        return unit_results[0]

    def run(self, fast: bool = True) -> ExperimentResult:
        return self.module.run(fast=fast)


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Registry lookup: the schedulable spec for a known experiment id."""
    if experiment_id not in EXPERIMENT_IDS:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; known: {EXPERIMENT_IDS}"
        )
    return ExperimentSpec(
        experiment_id=experiment_id,
        module_name=f"repro.experiments.{experiment_id}",
    )


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """The ``run`` callable of an experiment module, by id."""
    return get_spec(experiment_id).module.run
