"""One content-addressed JSON store behind every on-disk cache.

The experiment result cache, the persistent mapping store, the serve
response cache and the DCN service-curve cache all keep the same kind
of entry: a JSON document named by a content key. This module owns
every decision they share, so each of them is only (de)serialization:

* **Root.** ``.repro_cache/`` in the working directory unless
  ``REPRO_CACHE_DIR`` overrides it; an explicit ``root`` argument beats
  both, so programmatic callers can pin a directory without touching
  the environment.
* **Layout.** ``<root>/<namespace>/<key>.json``, one namespace per
  cache (:data:`NAMESPACES`).
* **Keys.** :func:`key` hashes a format version, a JSON descriptor of
  what the entry depends on, and a source fingerprint
  (:func:`repro.fingerprint.source_fingerprint`). A source edit changes
  the key, so stale entries become unreachable instead of being served.
* **Reads.** :meth:`Store.get` treats any unreadable or undecodable
  entry as a miss: a cache is an accelerator, never a source of errors.
* **Writes.** :func:`publish` writes a unique ``mkstemp`` file in the
  target directory, then ``os.replace`` moves it over the entry, so
  concurrent writers of one key all succeed and a reader sees either
  nothing or a complete entry.
* **Clearing.** :meth:`Store.clear` removes entries of its own
  namespace only.

>>> import tempfile
>>> tmp = tempfile.TemporaryDirectory()
>>> store = Store("results", tmp.name)
>>> k = key(1, {"id": "fig01"}, "fingerprint")
>>> store.get(k) is None
True
>>> store.put(k, {"rows": [1, 2]}).name == k + ".json"
True
>>> store.get(k)
{'rows': [1, 2]}
>>> store.clear()
1
>>> tmp.cleanup()
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional, Union

#: Environment variable overriding the shared cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache root (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: One sub-directory of the root per cache.
NAMESPACES = ("results", "mappings", "serve", "dcn")

PathLike = Union[str, Path]


def cache_root(override: Optional[PathLike] = None) -> Path:
    """The shared cache root directory (not created).

    Resolution order: the explicit ``override`` argument, then
    ``$REPRO_CACHE_DIR``, then ``.repro_cache`` in the cwd.

    >>> import os
    >>> os.environ.pop("REPRO_CACHE_DIR", None) and None
    >>> cache_root().name
    '.repro_cache'
    >>> cache_root("/tmp/elsewhere").as_posix()
    '/tmp/elsewhere'
    """
    if override is not None:
        return Path(override)
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


def key(version: int, descriptor: Any, fingerprint: str) -> str:
    """Content key over a format version, a JSON-able descriptor of the
    entry's inputs, and the source fingerprint of the code producing it.

    >>> key(1, {"a": 1}, "f") == key(1, {"a": 1}, "f")
    True
    >>> len({key(1, {"a": 1}, "f"), key(2, {"a": 1}, "f"), key(1, {"a": 1}, "g")})
    3
    """
    raw = json.dumps([version, descriptor, fingerprint], sort_keys=True)
    return hashlib.sha256(raw.encode()).hexdigest()[:24]


def publish(path: Path, text: str) -> None:
    """Atomically replace ``path`` with ``text``.

    The text goes to a unique temp file in the target directory first,
    so writers never share a temp name and a reader never sees a torn
    file; the temp file is removed if anything fails.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Store:
    """One namespace of the cache root: ``<root>/<namespace>/<key>.json``."""

    def __init__(self, namespace: str, root: Optional[PathLike] = None):
        if namespace not in NAMESPACES:
            raise ValueError(f"unknown cache namespace {namespace!r}")
        self.directory = cache_root(root) / namespace

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str, decode: Optional[Callable[[Any], Any]] = None) -> Any:
        """The entry's JSON value (passed through ``decode`` if given),
        or None when it is missing, unreadable or fails to decode."""
        try:
            value = json.loads(self.path(key).read_text())
            return value if decode is None else decode(value)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def put(self, key: str, value: Any) -> Path:
        """Publish ``value`` as the entry for ``key``; returns its path."""
        path = self.path(key)
        publish(path, json.dumps(value) + "\n")
        return path

    def clear(self) -> int:
        """Delete every entry of this namespace; returns the number removed."""
        removed = 0
        for entry in self.directory.glob("*.json"):
            entry.unlink(missing_ok=True)
            removed += 1
        return removed
