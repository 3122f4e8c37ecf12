"""Programmatic facade: typed queries in, JSON-serializable results out.

Everything the CLI can do — evaluate a design point, sweep paper
experiments, run a cycle-accurate simulation — is reachable here
through three frozen query dataclasses:

* :class:`DesignQuery`   — max-feasible-design search for a substrate /
  WSI / external-I/O / topology-family combination;
* :class:`SweepQuery`    — paper-artifact experiment tables, served
  through the content-addressed result cache;
* :class:`SimQuery`      — a load-latency sweep on one of the netsim
  network models, optionally with telemetry capture;
* :class:`DCNQuery`      — a partitioned multi-wafer DCN simulation
  (leaf/spine folded Clos of wafers, see :mod:`repro.dcn`).

Each query round-trips through ``to_dict``/``from_dict`` (the wire
format of the :mod:`repro.serve` server) and has a deterministic
content key (:func:`query_key`) covering the query fields, the netsim
engine selection **and** a transitive source fingerprint of this
module — so a cached response can never outlive an edit to any code
that produced it.

Engine and cache selection is *explicit*: :func:`execute` takes
``engine=`` (the netsim kernel of simulate and dcn queries, see
:mod:`repro.engines`) and ``cache=`` keywords, and nothing else picks
them. Design queries always run the default mapping kernel; the
response envelope names the netsim engine that actually ran.

>>> query = query_from_dict({"kind": "design", "substrate_mm": 100.0})
>>> query.substrate_mm, query.family
(100.0, 'clos')
>>> query == DesignQuery.from_dict(query.to_dict())
True
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import cas
from repro.engines import netsim_engine_tag, resolve_netsim_engine

#: Schema tag/version for every facade response envelope.
RESPONSE_SCHEMA = "repro-api-response"
RESPONSE_SCHEMA_VERSION = 2

#: Schema tag/version for serialized queries.
QUERY_SCHEMA = "repro-api-query"
QUERY_SCHEMA_VERSION = 1

#: Telemetry callback: ``on_telemetry(load, report_dict)`` per point.
TelemetryCallback = Callable[[float, Dict[str, Any]], None]


class QueryError(ValueError):
    """A query that cannot be executed (unknown names, bad payloads)."""


# ----------------------------------------------------------------------
# Query dataclasses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DesignQuery:
    """Find the max feasible waferscale switch for one configuration."""

    substrate_mm: float = 300.0
    wsi: str = "Si-IF (x2 overdrive)"
    external_io: str = "Optical I/O"
    family: str = "clos"
    hetero: bool = False
    mapping_restarts: int = 2

    kind = "design"

    def to_dict(self) -> Dict[str, Any]:
        return _query_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DesignQuery":
        return _query_from_dict(cls, payload)


@dataclass(frozen=True)
class SweepQuery:
    """Run paper-artifact experiments (all of them when empty)."""

    experiments: Tuple[str, ...] = ()
    fast: bool = True

    kind = "sweep"

    def __post_init__(self):
        object.__setattr__(self, "experiments", tuple(self.experiments))

    def to_dict(self) -> Dict[str, Any]:
        return _query_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepQuery":
        return _query_from_dict(cls, payload)


@dataclass(frozen=True)
class SimQuery:
    """Cycle-accurate load-latency sweep on one network model."""

    network: str = "waferscale"  # waferscale | switch-network | single-router
    terminals: int = 64
    radix: int = 16
    vcs: int = 4
    buffer_flits: int = 16
    pattern: str = "uniform"
    loads: Tuple[float, ...] = (0.1, 0.3)
    packet_size_flits: int = 4
    warmup_cycles: int = 500
    measure_cycles: int = 1500
    seed: int = 1
    telemetry: bool = False

    kind = "simulate"

    def __post_init__(self):
        object.__setattr__(
            self, "loads", tuple(float(x) for x in self.loads)
        )

    def to_dict(self) -> Dict[str, Any]:
        return _query_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimQuery":
        return _query_from_dict(cls, payload)


@dataclass(frozen=True)
class DCNQuery:
    """Partitioned multi-wafer DCN simulation (see :mod:`repro.dcn`).

    Every wafer is stepped in the process that executes the query.
    ``executor`` accepts ``"serial"`` (the default) or ``"auto"``; both
    run that one path, and any other value is a :class:`QueryError`.
    ``failure_seed < 0`` disables failure injection entirely.

    ``fidelity`` selects the rung of the fidelity ladder
    (docs/dcn_scale.md): ``"cycle"`` holds every wafer cycle-accurate,
    ``"flow"`` models every wafer as a calibrated queueing node (the
    only tractable mode at the paper's Tables VII–IX scale), and
    ``"hybrid"`` keeps ``cycle_wafers`` cycle-accurate while the rest
    run flow-level, stitched at the same epoch barrier.
    """

    hosts: int = 16
    wafer_radix: int = 16
    ssc_radix: int = 8
    back_to_back: bool = False
    pattern: str = "uniform"
    duration_cycles: int = 128
    load: float = 0.05
    packet_size_flits: int = 4
    seed: int = 1
    lookahead: int = 0
    inter_wafer_latency: int = 40
    vcs: int = 4
    buffer_flits: int = 16
    failure_seed: int = -1
    ssc_area_mm2: float = 25.0
    link_failure_prob: float = 0.0
    executor: str = "serial"
    fidelity: str = "cycle"
    cycle_wafers: Tuple[int, ...] = ()

    kind = "dcn"

    def __post_init__(self):
        object.__setattr__(
            self, "cycle_wafers", tuple(int(w) for w in self.cycle_wafers)
        )

    def to_dict(self) -> Dict[str, Any]:
        return _query_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DCNQuery":
        return _query_from_dict(cls, payload)


Query = Union[DesignQuery, SweepQuery, SimQuery, DCNQuery]

_QUERY_KINDS = {
    DesignQuery.kind: DesignQuery,
    SweepQuery.kind: SweepQuery,
    SimQuery.kind: SimQuery,
    DCNQuery.kind: DCNQuery,
}


def _query_to_dict(query: Query) -> Dict[str, Any]:
    payload = {
        "schema": QUERY_SCHEMA,
        "version": QUERY_SCHEMA_VERSION,
        "kind": query.kind,
    }
    for f in dataclasses.fields(query):
        value = getattr(query, f.name)
        payload[f.name] = list(value) if isinstance(value, tuple) else value
    return payload


def _query_from_dict(cls, payload: Dict[str, Any]):
    if payload.get("schema") not in (None, QUERY_SCHEMA):
        raise QueryError(f"not a {QUERY_SCHEMA} payload")
    kind = payload.get("kind", cls.kind)
    if kind != cls.kind:
        raise QueryError(f"expected a {cls.kind!r} query, got {kind!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    extra = set(payload) - names - {"schema", "version", "kind"}
    if extra:
        raise QueryError(f"unknown {kind} query fields: {sorted(extra)}")
    kwargs = {name: payload[name] for name in names if name in payload}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"bad {kind} query: {exc}") from exc


def query_from_dict(payload: Dict[str, Any]) -> Query:
    """Build the right query type from a ``{"kind": ...}`` payload."""
    try:
        kind = payload["kind"]
    except (TypeError, KeyError):
        raise QueryError('query payload needs a "kind" field') from None
    try:
        cls = _QUERY_KINDS[kind]
    except KeyError:
        raise QueryError(
            f"unknown query kind {kind!r}; choose from {sorted(_QUERY_KINDS)}"
        ) from None
    return cls.from_dict(payload)


@lru_cache(maxsize=None)
def _api_fingerprint() -> str:
    """Source fingerprint over everything this facade transitively uses."""
    from repro.fingerprint import source_fingerprint, transitive_modules

    return source_fingerprint(transitive_modules("repro.api"))


def _query_engine(query: Query, engine: str) -> str:
    """The netsim engine ``query`` runs on, resolved: simulate and dcn
    queries take ``engine``; design and sweep queries pass no engine
    down, so their runs take the default."""
    if query.kind not in (SimQuery.kind, DCNQuery.kind):
        engine = "auto"
    return resolve_netsim_engine(engine)


def query_key(query: Query, engine: str = "auto") -> str:
    """Deterministic content key for coalescing and response caching.

    Two requests share a key iff they would compute the same thing:
    same query fields, same *resolved* engine, same source tree.
    """
    descriptor = {
        "query": query.to_dict(),
        "engine": _query_engine(query, engine),
    }
    return cas.key(RESPONSE_SCHEMA_VERSION, descriptor, _api_fingerprint())


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _envelope(query: Query, engine: str) -> Dict[str, Any]:
    return {
        "schema": RESPONSE_SCHEMA,
        "version": RESPONSE_SCHEMA_VERSION,
        "kind": query.kind,
        "key": query_key(query, engine),
        "query": query.to_dict(),
        "engines": {"netsim": _engine_tag(query, engine)},
    }


def _engine_tag(query: Query, engine: str) -> str:
    """The netsim engine ``query``'s runs take: for a simulate query,
    the rule :func:`~repro.netsim.fast_core.engine_for` applies to its
    networks, and for a dcn query the same rule for its cycle-accurate
    wafers; otherwise whether the kernel loads."""
    engine = _query_engine(query, engine)
    if isinstance(query, (SimQuery, DCNQuery)):
        from repro.netsim.fast_core import engine_tag

        return engine_tag(engine, query.vcs)
    return netsim_engine_tag(engine)


def _execute_design(query: DesignQuery) -> Dict[str, Any]:
    from repro.core.explorer import TOPOLOGY_FAMILIES, max_feasible_design
    from repro.core.hetero import apply_heterogeneity
    from repro.tech.external_io import EXTERNAL_IO_TECHNOLOGIES
    from repro.tech.wsi import WSI_TECHNOLOGIES

    try:
        wsi = WSI_TECHNOLOGIES[query.wsi]
    except KeyError:
        raise QueryError(
            f"unknown WSI technology {query.wsi!r}; "
            f"choose from {sorted(WSI_TECHNOLOGIES)}"
        ) from None
    if query.external_io is None:
        external = None
    else:
        try:
            external = EXTERNAL_IO_TECHNOLOGIES[query.external_io]
        except KeyError:
            raise QueryError(
                f"unknown external I/O technology {query.external_io!r}; "
                f"choose from {sorted(EXTERNAL_IO_TECHNOLOGIES)}"
            ) from None
    if query.family not in TOPOLOGY_FAMILIES:
        raise QueryError(
            f"unknown topology family {query.family!r}; "
            f"choose from {sorted(TOPOLOGY_FAMILIES)}"
        )
    design = max_feasible_design(
        query.substrate_mm,
        wsi=wsi,
        external_io=external,
        family=query.family,
        mapping_restarts=query.mapping_restarts,
    )
    result: Dict[str, Any] = {
        "feasible": design is not None,
        "design": None if design is None else design.to_dict(),
    }
    if design is not None and query.hetero:
        hetero = apply_heterogeneity(design, leaf_split=4)
        result["hetero"] = {
            "total_power_w": hetero.power.total_w,
            "power_reduction_fraction": hetero.power_reduction_fraction,
            "cooling": hetero.cooling.name,
        }
    return result


def _execute_sweep(query: SweepQuery, cache) -> Dict[str, Any]:
    from repro.experiments.base import EXPERIMENT_IDS
    from repro.experiments.runner import run_experiments

    unknown = [i for i in query.experiments if i not in EXPERIMENT_IDS]
    if unknown:
        raise QueryError(
            f"unknown experiment ids {unknown}; see repro.experiments"
        )
    results = run_experiments(
        list(query.experiments) or None, fast=query.fast, cache=cache
    )
    return {
        "experiments": [r.to_dict() for r in results],
        "cached": cache is not None,
    }


def _sim_network_factory(query: SimQuery):
    from repro.netsim.network import (
        baseline_switch_network,
        single_router_network,
        waferscale_clos_network,
    )

    if query.network == "waferscale":
        return lambda: waferscale_clos_network(
            n_terminals=query.terminals,
            ssc_radix=query.radix,
            num_vcs=query.vcs,
            buffer_flits_per_port=query.buffer_flits,
        )
    if query.network == "switch-network":
        return lambda: baseline_switch_network(
            n_terminals=query.terminals,
            ssc_radix=query.radix,
            num_vcs=query.vcs,
            buffer_flits_per_port=query.buffer_flits,
        )
    if query.network == "single-router":
        return lambda: single_router_network(
            query.terminals,
            num_vcs=query.vcs,
            buffer_flits_per_port=query.buffer_flits,
        )
    raise QueryError(
        f"unknown network model {query.network!r}; choose from "
        "['single-router', 'switch-network', 'waferscale']"
    )


def _execute_sim(
    query: SimQuery,
    engine: str,
    on_telemetry: Optional[TelemetryCallback],
) -> Dict[str, Any]:
    from repro.netsim.sim import load_latency_sweep
    from repro.netsim.telemetry import Telemetry
    from repro.netsim.traffic import TRAFFIC_PATTERNS, make_pattern

    if query.pattern not in TRAFFIC_PATTERNS:
        raise QueryError(
            f"unknown traffic pattern {query.pattern!r}; "
            f"choose from {list(TRAFFIC_PATTERNS)}"
        )
    if not query.loads:
        raise QueryError("simulate query needs at least one load")
    build = _sim_network_factory(query)

    def factory():
        # The network constructors validate the shape (radix parity,
        # terminals a multiple of the radix); the first point's build
        # is where an invalid one surfaces.
        try:
            return build()
        except ValueError as exc:
            raise QueryError(f"bad simulate query: {exc}") from exc

    reports: List[Dict[str, Any]] = []
    pending: List[Tuple[float, Telemetry]] = []

    def flush() -> None:
        # A point's sink is complete once the sweep moves past it; the
        # factory call for the next point (and the tail flush) drain
        # finished sinks so ``on_telemetry`` streams per point.
        while pending:
            done_load, sink = pending.pop(0)
            report = sink.to_dict()
            reports.append({"load": done_load, "report": report})
            if on_telemetry is not None:
                on_telemetry(done_load, report)

    def telemetry_factory(load: float) -> Telemetry:
        flush()
        sink = Telemetry()
        pending.append((load, sink))
        return sink

    points = load_latency_sweep(
        factory,
        lambda n: make_pattern(query.pattern, n),
        list(query.loads),
        packet_size_flits=query.packet_size_flits,
        warmup_cycles=query.warmup_cycles,
        measure_cycles=query.measure_cycles,
        seed=query.seed,
        telemetry_factory=telemetry_factory if query.telemetry else None,
        engine=engine,
    )
    flush()
    result: Dict[str, Any] = {
        "points": [dataclasses.asdict(p) for p in points],
    }
    if query.telemetry:
        result["telemetry"] = reports
    return result


def _execute_dcn(query: DCNQuery, engine: str) -> Dict[str, Any]:
    from repro.dcn.fabric import DCNShape
    from repro.dcn.failures import FailureConfig
    from repro.dcn.sim import FIDELITIES, DCNConfig, run_dcn
    from repro.dcn.traffic import PATTERNS

    if query.executor not in ("auto", "serial"):
        raise QueryError(
            f"unknown executor {query.executor!r}; choose 'auto' or 'serial'"
        )
    if query.fidelity not in FIDELITIES:
        raise QueryError(
            f"unknown fidelity {query.fidelity!r}; choose from {FIDELITIES}"
        )
    if query.pattern not in PATTERNS:
        raise QueryError(
            f"unknown DCN traffic pattern {query.pattern!r}; "
            f"choose from {PATTERNS}"
        )
    failures = (
        FailureConfig(
            seed=query.failure_seed,
            ssc_area_mm2=query.ssc_area_mm2,
            link_failure_prob=query.link_failure_prob,
        )
        if query.failure_seed >= 0
        else None
    )
    try:
        shape = DCNShape(
            n_hosts=query.hosts,
            wafer_radix=query.wafer_radix,
            ssc_radix=query.ssc_radix,
            back_to_back=query.back_to_back,
            inter_wafer_latency=query.inter_wafer_latency,
            num_vcs=query.vcs,
            buffer_flits=query.buffer_flits,
        )
        config = DCNConfig(
            shape=shape,
            pattern=query.pattern,
            duration_cycles=query.duration_cycles,
            load=query.load,
            size_flits=query.packet_size_flits,
            traffic_seed=query.seed,
            lookahead=query.lookahead,
            failures=failures,
            engine=engine,
            fidelity=query.fidelity,
            cycle_wafers=query.cycle_wafers,
        )
    except ValueError as exc:
        raise QueryError(f"bad dcn query: {exc}") from exc
    return run_dcn(config).to_dict()


def execute(
    query: Query,
    engine: str = "auto",
    cache: Any = "default",
    on_telemetry: Optional[TelemetryCallback] = None,
) -> Dict[str, Any]:
    """Execute one query and return its JSON-serializable response.

    ``engine`` picks the netsim kernel of simulate and dcn queries
    explicitly (a :data:`repro.engines.NETSIM_ENGINES` name, resolved
    once here); the envelope's ``engines.netsim`` names the one that
    ran (for a dcn query, the engine of its cycle-accurate wafers),
    ``"scalar"`` where the host has no C kernel. ``cache``
    applies to sweep queries: ``"default"`` uses the result cache at
    :func:`repro.cas.cache_root`, ``None`` disables it, any
    :class:`~repro.experiments.cache.ResultCache` instance is used
    as-is, and a path is taken as the cache root. ``on_telemetry``
    streams per-load telemetry reports of a ``telemetry=True``
    :class:`SimQuery` as they are produced.

    Raises :class:`QueryError` for malformed queries; any other
    exception is a genuine execution failure.
    """
    engine = resolve_netsim_engine(engine)
    response = _envelope(query, engine)
    if isinstance(query, DesignQuery):
        result = _execute_design(query)
    elif isinstance(query, SweepQuery):
        result = _execute_sweep(query, _resolve_cache(cache))
    elif isinstance(query, SimQuery):
        result = _execute_sim(query, engine, on_telemetry)
    elif isinstance(query, DCNQuery):
        result = _execute_dcn(query, engine)
    else:
        raise QueryError(f"not a query: {query!r}")
    response["result"] = result
    return response


def _resolve_cache(cache: Any):
    from repro.experiments.cache import ResultCache

    if cache == "default":
        return ResultCache()
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def execute_payload(
    payload: Dict[str, Any], engine: str = "auto", cache: Any = "default"
) -> bytes:
    """:func:`execute` for an already-serialized query dict.

    The process-pool entry point of the serve layer: module-level and
    picklable, query dict in, the response's JSON bytes out, so a
    pooled response is encoded once, in the worker.
    """
    response = execute(query_from_dict(payload), engine=engine, cache=cache)
    return json.dumps(response).encode()
