"""Persistent content-addressed store for optimized wafer mappings.

The pairwise-exchange optimizer is the reproduction's dominant cost,
and many experiments (and every parallel worker) ask for mappings of
the *same* wafer. The in-process memo in :mod:`repro.core.design`
cannot cross a process boundary, so ``--jobs N`` used to re-optimize
identical wafers in every worker. This store promotes those memo
entries to JSON files under ``.repro_cache/mappings/``, shared by all
processes and surviving across runs.

An entry is keyed by everything the optimized mapping depends on:

* a **structural digest** of the topology — links, channel counts and
  per-node external ports (not just the name, so two same-named but
  differently wired topologies can never collide);
* the grid dimensions and I/O style;
* the optimizer parameters (restarts, seed, strategy, max sweeps) and
  the kernel engine tag (scalar / fast / fast-esc);
* a **source fingerprint** of the mapping layer
  (:mod:`repro.fingerprint`), so editing any mapping module silently
  invalidates old entries instead of serving stale placements.

Like the result cache, the store is a namespace (``mappings``) of the
shared content-addressed store (:mod:`repro.cas`): ``load`` returns
None on any miss or unreadable entry and writes are atomic.
Hit/miss/optimize counters feed the ``--profile`` table of
``python -m repro experiments``.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional

from repro import cas
from repro.fingerprint import source_fingerprint, transitive_modules
from repro.mapping.exchange import MappingResult
from repro.mapping.grid import WaferGrid
from repro.mapping.routing import IOStyle
from repro.topology.base import LogicalTopology

#: Bump to invalidate every existing entry (serialization changes).
#: v2: the mapping body moved to the shared MappingResult.to_dict form.
STORE_FORMAT_VERSION = 2

#: Process-wide mapping activity counters (reported by ``--profile``).
_STATS: Dict[str, float] = {}


def _zero_stats() -> Dict[str, float]:
    return {
        "memo_hits": 0,
        "store_hits": 0,
        "optimized": 0,
        "optimize_seconds": 0.0,
    }


_STATS = _zero_stats()


def record_stat(name: str, amount: float = 1) -> None:
    """Bump one mapping activity counter (unknown names are created)."""
    _STATS[name] = _STATS.get(name, 0) + amount


def stats_snapshot() -> Dict[str, float]:
    """Copy of the counters, e.g. to diff around a work unit."""
    return dict(_STATS)


def stats_delta(before: Dict[str, float]) -> Dict[str, float]:
    """Counter increments since ``before`` (a :func:`stats_snapshot`)."""
    return {
        key: _STATS.get(key, 0) - before.get(key, 0)
        for key in set(_STATS) | set(before)
    }


def reset_stats() -> None:
    _STATS.clear()
    _STATS.update(_zero_stats())


def topology_digest(topology: LogicalTopology) -> str:
    """Hash of everything about a topology that the mapping depends on.

    Covers the wiring (links and channel counts) and per-node external
    ports/roles — not chiplet power or area, which cannot change the
    optimized placement.
    """
    digest = hashlib.sha256()
    digest.update(topology.name.encode())
    digest.update(b"\0")
    for node in topology.nodes:
        digest.update(
            f"{node.index}:{node.role.value}:{node.external_ports}:"
            f"{node.chiplet.radix}\n".encode()
        )
    digest.update(b"\0")
    for link in topology.links:
        digest.update(f"{link.a}-{link.b}:{link.channels}\n".encode())
    return digest.hexdigest()


@lru_cache(maxsize=None)
def mapping_source_fingerprint() -> str:
    """Fingerprint of the mapping layer's own source.

    Walked from the optimizer façade and this store, so the scalar
    exchange oracle, the C kernel source (``repro.ckernel``), the load
    model and this store are covered; any edit to them invalidates
    every persisted mapping.
    """
    modules = set(transitive_modules("repro.mapping.exchange"))
    modules.update(transitive_modules("repro.mapping.store"))
    return source_fingerprint(modules)


def entry_key(
    topology: LogicalTopology,
    grid: WaferGrid,
    io_style: IOStyle,
    params: Dict,
) -> str:
    """Content-addressed key for one optimized mapping."""
    descriptor = [
        topology_digest(topology),
        f"{grid.rows}x{grid.cols}",
        io_style.value,
        {k: params[k] for k in sorted(params)},
    ]
    return cas.key(STORE_FORMAT_VERSION, descriptor, mapping_source_fingerprint())


class MappingStore:
    """Stores :class:`MappingResult` placements in the ``mappings`` namespace.

    ``root`` pins the cache root (default: :func:`repro.cas.cache_root`).
    Entries are addressed by an :func:`entry_key` the caller computes
    once and passes to both ``load`` and ``store``. Loaded results are
    freshly built objects — callers own them outright and may mutate
    them freely.
    """

    def __init__(self, root: Optional[cas.PathLike] = None):
        self.entries = cas.Store("mappings", root)

    def load(self, key: str, topology: LogicalTopology) -> Optional[MappingResult]:
        return self.entries.get(
            key, lambda payload: MappingResult.from_dict(payload, topology)
        )

    def store(self, key: str, result: MappingResult) -> Path:
        return self.entries.put(key, result.to_dict())

    def clear(self) -> int:
        """Delete every stored mapping; returns the number removed."""
        return self.entries.clear()
