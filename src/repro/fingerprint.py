"""Static source fingerprinting shared by every on-disk cache.

A **source fingerprint** is a hash over the source text of every
``repro`` module a given module (transitively) imports. The import
graph comes from a static AST scan, and ``repro`` module names resolve
to files by the package's layout (``pkg/__init__.py`` is ``pkg``,
``pkg/mod.py`` is ``pkg.mod``), so no code is ever executed, and no
module imported, to derive a cache key. Both the experiment result
cache (:mod:`repro.experiments.cache`) and the persistent mapping store
(:mod:`repro.mapping.store`) key their entries on these fingerprints;
the helpers live here, below both, because imports in this codebase
only point downward (see ``docs/architecture.md``).

One process holds one import graph: the package directory is listed
once, each module's import edges are parsed at most once (and only for
modules a walk reaches), and a closure is a set walk over those edges.
:func:`source_fingerprint` still reads the source bytes on every call,
so an edit changes the key.

The scan is deliberately conservative: lazy imports inside function
bodies are still found (the scan visits every nested block), so a
module cannot hide a dependency from its fingerprint by deferring the
import; and a module's enclosing package is one of its edges, because
importing ``repro.a.b`` runs ``repro/a/__init__.py`` (and
``repro/__init__.py``) first.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

_PACKAGE = "repro"
_PACKAGE_DIR = Path(__file__).parent


@lru_cache(maxsize=None)
def _layout() -> Dict[str, Path]:
    """Every ``repro`` module name mapped to its source file, from one
    listing of the package directory."""
    modules = {}
    for path in _PACKAGE_DIR.rglob("*.py"):
        parts = path.relative_to(_PACKAGE_DIR.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def module_source_path(module_name: str) -> Optional[Path]:
    """Filesystem path of a module's source, or None for non-file modules.

    ``repro`` names resolve by the package layout; any other name goes
    through ``importlib.util.find_spec``, which imports its parents.
    """
    if module_name.partition(".")[0] == _PACKAGE:
        return _layout().get(module_name)
    try:
        spec = importlib.util.find_spec(module_name)
    except (ImportError, AttributeError, ValueError):
        return None
    if spec is None or not spec.origin or not spec.origin.endswith(".py"):
        return None
    return Path(spec.origin)


def _statements(nodes) -> Iterable[ast.AST]:
    """Every statement under ``nodes``, nested blocks included.

    An import is a statement, so the scan never descends into
    expressions, which make up most of a syntax tree.
    """
    for node in nodes:
        yield node
        for block in ("body", "orelse", "finalbody", "handlers", "cases"):
            yield from _statements(getattr(node, block, ()))


def _direct_imports(source: bytes) -> Iterable[str]:
    """Names of ``repro.*`` modules a source text imports directly.

    ``from repro.a import b`` yields both ``repro.a`` and ``repro.a.b``
    as candidates; non-module candidates are discarded by the resolver.
    """
    for node in _statements(ast.parse(source).body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == _PACKAGE:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == _PACKAGE:
                yield node.module
                for alias in node.names:
                    yield f"{node.module}.{alias.name}"


@lru_cache(maxsize=None)
def _edges(module_name: str) -> FrozenSet[str]:
    """Modules whose code runs when ``module_name`` is imported: its
    enclosing package and its direct imports. Parsed once."""
    names = set(_direct_imports(module_source_path(module_name).read_bytes()))
    names.add(module_name.rpartition(".")[0])
    return frozenset(name for name in names if name and module_source_path(name))


@lru_cache(maxsize=None)
def transitive_modules(module_name: str) -> Tuple[str, ...]:
    """All ``repro`` modules reachable from ``module_name`` via imports,
    including itself, sorted. Static AST walk — no code is executed."""
    if module_source_path(module_name) is None:
        return ()
    seen = {module_name}
    frontier = [module_name]
    while frontier:
        for name in _edges(frontier.pop()) - seen:
            seen.add(name)
            frontier.append(name)
    return tuple(sorted(seen))


def source_fingerprint(module_names: Iterable[str]) -> str:
    """SHA-256 over the named modules' source bytes (order-independent)."""
    digest = hashlib.sha256()
    for name in sorted(set(module_names)):
        path = module_source_path(name)
        if path is None or not path.exists():
            continue
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
