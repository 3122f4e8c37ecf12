"""Content-addressed on-disk cache for experiment results.

A cached entry is keyed by the experiment id, the run mode (fast/full),
and a **source fingerprint**: a hash over the source text of every
``repro`` module the experiment (transitively) imports. Editing any
module an experiment depends on — and only those — changes its key, so
stale results can never be served while unrelated edits keep the cache
warm. Entries live in the ``results`` namespace of the shared store
(:mod:`repro.cas`), which owns the root, the layout and atomic writes.

The dependency walk is static (AST import scan, see
:mod:`repro.fingerprint`), so computing a key never executes
experiment code.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro import cas, fingerprint
from repro.experiments.base import ExperimentResult

#: Bump to invalidate every existing cache entry (serialization changes).
CACHE_FORMAT_VERSION = 1


def _mode_tag(fast: bool) -> str:
    """Cache-key tag for the run mode.

    >>> _mode_tag(True), _mode_tag(False)
    ('fast', 'full')
    """
    return "fast" if fast else "full"


def cache_key(experiment_id: str, fast: bool, module_name: Optional[str] = None) -> str:
    """Content-addressed key: experiment id + mode + source fingerprint.

    The readable prefix names the entry file (``fig01-fast-<hash>``).
    """
    module_name = module_name or f"repro.experiments.{experiment_id}"
    sources = fingerprint.source_fingerprint(fingerprint.transitive_modules(module_name))
    mode = _mode_tag(fast)
    digest = cas.key(CACHE_FORMAT_VERSION, [experiment_id, mode], sources)
    return f"{experiment_id}-{mode}-{digest}"


class ResultCache:
    """Stores :class:`ExperimentResult` tables in the ``results`` namespace.

    ``root`` pins the cache root (default: :func:`repro.cas.cache_root`).
    Entries are addressed by a :func:`cache_key` the caller computes
    once and passes to both ``load`` and ``store``. ``load`` returns
    None on any miss or unreadable entry.
    """

    def __init__(self, root: Optional[cas.PathLike] = None):
        self.entries = cas.Store("results", root)

    def load(self, key: str) -> Optional[ExperimentResult]:
        return self.entries.get(
            key, lambda payload: ExperimentResult.from_dict(payload["result"])
        )

    def store(self, key: str, result: ExperimentResult) -> Path:
        return self.entries.put(key, {"result": result.to_dict()})

    def clear(self) -> int:
        """Delete every result entry; returns the number removed."""
        return self.entries.clear()
