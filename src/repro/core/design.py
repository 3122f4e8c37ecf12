"""Evaluation of a single waferscale switch design point."""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.constraints import ConstraintLimits, ConstraintReport
from repro.core.power_breakdown import PowerBreakdown, power_breakdown
from repro.mapping.exchange import (
    MappingResult,
    mapping_kernel_tag,
    optimize_mapping,
)
from repro.mapping.grid import grid_for
from repro.mapping.routing import IOStyle, available_bandwidth_per_port_gbps
from repro.mapping.store import MappingStore, entry_key, record_stat
from repro.tech.external_io import ExternalIOTechnology, IOPlacement
from repro.tech.wsi import WSITechnology

#: Schema tag/version for :meth:`DesignPoint.to_dict` payloads.
DESIGN_SCHEMA = "repro-design-point"
DESIGN_SCHEMA_VERSION = 1
from repro.topology.base import LogicalTopology
from repro.units import require_positive

#: In-process memo over the persistent mapping store: the explorer and
#: the experiment suite repeatedly evaluate the same (topology, I/O
#: style) combinations; pairwise exchange on the big Clos instances is
#: the only expensive computation in the analytical model. Misses fall
#: through to the on-disk store (:mod:`repro.mapping.store`), which
#: parallel workers and separate runs share, before optimizing afresh.
_MAPPING_CACHE: Dict[Tuple[str, int, str, int, int, str], MappingResult] = {}


def io_style_for(external_io: Optional[ExternalIOTechnology]) -> IOStyle:
    """Mesh-routing style implied by the external I/O technology."""
    if external_io is None:
        return IOStyle.NONE
    if external_io.placement is IOPlacement.PERIPHERY:
        return IOStyle.PERIPHERY
    return IOStyle.AREA


def cached_mapping(
    topology: LogicalTopology,
    io_style: IOStyle,
    restarts: int = 2,
    seed: int = 0,
) -> MappingResult:
    """Optimize (or fetch a cached) mapping for the topology.

    Returns a defensive copy — callers may mutate the result (e.g.
    ``swap_sites`` in a what-if sweep) without corrupting the memo or
    the persistent store. The optimizer runs the default kernel;
    its :func:`mapping_kernel_tag` is part of the memo/store key, so
    mappings of different kernels or modes never share an entry.
    """
    engine = mapping_kernel_tag()
    key = (
        topology.name, topology.chiplet_count, io_style.value,
        restarts, seed, engine,
    )
    result = _MAPPING_CACHE.get(key)
    if result is not None:
        record_stat("memo_hits")
        return result.copy()
    grid = grid_for(topology.chiplet_count)
    params = {
        "restarts": restarts,
        "seed": seed,
        "strategy": "mixed",
        "max_sweeps": 30,
        "engine": engine,
    }
    store = MappingStore()
    store_key = entry_key(topology, grid, io_style, params)
    result = store.load(store_key, topology)
    if result is not None:
        record_stat("store_hits")
    else:
        started = time.perf_counter()
        result = optimize_mapping(
            topology,
            grid=grid,
            io_style=io_style,
            restarts=restarts,
            seed=seed,
        )
        record_stat("optimized")
        record_stat("optimize_seconds", time.perf_counter() - started)
        store.store(store_key, result)
    _MAPPING_CACHE[key] = result
    return result.copy()


def clear_mapping_cache() -> None:
    """Drop the in-process memo (the persistent store is unaffected)."""
    _MAPPING_CACHE.clear()


def _encode_float(value):
    """Strict-JSON encoding: non-finite floats become strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf' / '-inf' / 'nan'
    return value


def _decode_float(value):
    """Inverse of :func:`_encode_float`."""
    if isinstance(value, str):
        return float(value)
    return value


@dataclass(frozen=True)
class DesignPoint:
    """A fully evaluated waferscale switch design."""

    substrate_side_mm: float
    topology: LogicalTopology
    wsi: WSITechnology
    external_io: Optional[ExternalIOTechnology]
    mapping: Optional[MappingResult]
    constraints: ConstraintReport
    power: PowerBreakdown

    @property
    def n_ports(self) -> int:
        return self.topology.radix

    @property
    def feasible(self) -> bool:
        return self.constraints.feasible

    @property
    def substrate_area_mm2(self) -> float:
        return self.substrate_side_mm * self.substrate_side_mm

    @property
    def power_density_w_per_mm2(self) -> float:
        return self.power.total_w / self.substrate_area_mm2

    def describe(self) -> str:
        status = "feasible" if self.feasible else (
            "infeasible: " + ", ".join(self.constraints.binding_constraints())
        )
        return (
            f"{self.topology.describe()} on {self.substrate_side_mm:g}mm "
            f"[{self.wsi.name}"
            + (f" + {self.external_io.name}" if self.external_io else "")
            + f"] -> {status}, {self.power.total_w / 1000:.1f} kW"
        )

    def to_dict(self) -> Dict:
        """Versioned JSON-serializable form (see :meth:`from_dict`).

        The full design round-trips — topology (every chiplet
        parameter, not just a registry name), technologies, mapping,
        constraint report, power breakdown — so a served response can
        be rehydrated into a working :class:`DesignPoint` on the other
        side of a process or network boundary. Non-finite floats
        (unconstrained capacities) are encoded as strings to keep the
        payload strict JSON.
        """
        return {
            "schema": DESIGN_SCHEMA,
            "version": DESIGN_SCHEMA_VERSION,
            "substrate_side_mm": self.substrate_side_mm,
            "topology": self.topology.to_dict(),
            "wsi": dataclasses.asdict(self.wsi),
            "external_io": (
                None
                if self.external_io is None
                else {
                    **dataclasses.asdict(self.external_io),
                    "placement": self.external_io.placement.value,
                }
            ),
            "mapping": None if self.mapping is None else self.mapping.to_dict(),
            "constraints": {
                key: _encode_float(value)
                for key, value in dataclasses.asdict(self.constraints).items()
            },
            "power": dataclasses.asdict(self.power),
            "derived": {
                "feasible": self.feasible,
                "n_ports": self.n_ports,
                "total_power_w": self.power.total_w,
                "io_fraction": self.power.io_fraction,
                "power_density_w_per_mm2": self.power_density_w_per_mm2,
                "describe": self.describe(),
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "DesignPoint":
        """Inverse of :meth:`to_dict`; rebuilds every component."""
        if payload.get("schema") != DESIGN_SCHEMA:
            raise ValueError(f"not a {DESIGN_SCHEMA} payload")
        if payload.get("version") != DESIGN_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported {DESIGN_SCHEMA} version "
                f"{payload.get('version')!r}"
            )
        topology = LogicalTopology.from_dict(payload["topology"])
        external = payload["external_io"]
        mapping = payload["mapping"]
        return cls(
            substrate_side_mm=float(payload["substrate_side_mm"]),
            topology=topology,
            wsi=WSITechnology(**payload["wsi"]),
            external_io=(
                None
                if external is None
                else ExternalIOTechnology(
                    **{
                        **external,
                        "placement": IOPlacement(external["placement"]),
                    }
                )
            ),
            mapping=(
                None
                if mapping is None
                else MappingResult.from_dict(mapping, topology)
            ),
            constraints=ConstraintReport(
                **{
                    key: _decode_float(value)
                    for key, value in payload["constraints"].items()
                }
            ),
            power=PowerBreakdown(**payload["power"]),
        )


def evaluate_design(
    substrate_side_mm: float,
    topology: LogicalTopology,
    wsi: WSITechnology,
    external_io: Optional[ExternalIOTechnology],
    limits: ConstraintLimits = ConstraintLimits(),
    mapping_restarts: int = 2,
    seed: int = 0,
) -> DesignPoint:
    """Evaluate one design against the given constraint limits.

    The mapping (the expensive step) is only computed when the internal
    bandwidth constraint is under consideration and the design passes
    the cheap area and external-bandwidth checks — failing designs short
    circuit, which the explorer relies on.
    """
    require_positive("substrate_side_mm", substrate_side_mm)
    usable_area = (
        substrate_side_mm * substrate_side_mm * limits.substrate_utilization
    )
    chip_area = topology.total_chiplet_area_mm2
    area_ok = chip_area <= usable_area

    if external_io is not None:
        ext_required = external_io.required_gbps(
            topology.radix, topology.port_bandwidth_gbps
        )
        ext_capacity = external_io.capacity_gbps(substrate_side_mm)
    else:
        ext_required = 2.0 * topology.radix * topology.port_bandwidth_gbps
        ext_capacity = float("inf")
    external_ok = ext_required <= ext_capacity

    mapping: Optional[MappingResult] = None
    max_edge_channels = 0
    available_per_port = float("inf")
    internal_ok = True
    cheap_checks_pass = (area_ok or not limits.consider_area) and (
        external_ok or not limits.consider_external
    )
    if limits.consider_internal and cheap_checks_pass:
        # The grid must physically fit in the substrate row/col budget in
        # the ideal packing sense; the area check above covers capacity.
        mapping = cached_mapping(
            topology, io_style_for(external_io), restarts=mapping_restarts, seed=seed
        )
        max_edge_channels = mapping.max_edge_channels
        # All chiplets on the wafer share edges at the pitch of the
        # *largest* chiplet side present (mixed-size chiplets abut the
        # grid at the full site pitch).
        edge_mm = max(node.chiplet.side_mm for node in topology.nodes)
        available_per_port = available_bandwidth_per_port_gbps(
            mapping.loads,
            wsi.edge_capacity_gbps(edge_mm),
            topology.port_bandwidth_gbps,
            capacity_fraction=limits.capacity_fraction,
        )
        internal_ok = available_per_port >= topology.port_bandwidth_gbps

    power = power_breakdown(topology, mapping, wsi, external_io)
    density = power.total_w / (substrate_side_mm * substrate_side_mm)
    if limits.cooling is not None:
        cooling_ok = density <= limits.cooling.max_power_density_w_per_mm2
        cooling_limit = limits.cooling.max_power_density_w_per_mm2
    else:
        cooling_ok = True
        cooling_limit = float("inf")

    report = ConstraintReport(
        area_considered=limits.consider_area,
        area_ok=area_ok,
        chiplet_area_mm2=chip_area,
        usable_area_mm2=usable_area,
        external_considered=limits.consider_external,
        external_ok=external_ok,
        external_required_gbps=ext_required,
        external_capacity_gbps=ext_capacity,
        internal_considered=limits.consider_internal,
        internal_ok=internal_ok,
        max_edge_channels=max_edge_channels,
        available_per_port_gbps=available_per_port,
        required_per_port_gbps=topology.port_bandwidth_gbps,
        cooling_considered=limits.cooling is not None,
        cooling_ok=cooling_ok,
        power_density_w_per_mm2=density,
        cooling_limit_w_per_mm2=cooling_limit,
    )
    return DesignPoint(
        substrate_side_mm=substrate_side_mm,
        topology=topology,
        wsi=wsi,
        external_io=external_io,
        mapping=mapping,
        constraints=report,
        power=power,
    )
