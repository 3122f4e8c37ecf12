"""The shared content-addressed store and the caches built on it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cas
from repro.cli import main as cli_main
from repro.dcn.flow import ServiceCurve, _curve_cache_key
from repro.experiments.base import ExperimentResult
from repro.experiments.cache import ResultCache, cache_key
from repro.mapping.grid import grid_for
from repro.mapping.routing import IOStyle
from repro.mapping.store import MappingStore, entry_key
from repro.serve.dispatch import ResponseCache
from repro.topology.clos import folded_clos

SRC = Path(__file__).resolve().parents[1] / "src"


def _entry(namespace, root):
    """(key, load) of one entry of a cache, loaded through its public API."""
    if namespace == "results":
        key = cache_key("fig01", True)
        return key, lambda: ResultCache(root).load(key)
    if namespace == "mappings":
        topology = folded_clos(1024)
        grid = grid_for(topology.chiplet_count)
        args = (topology, grid, IOStyle.PERIPHERY, {"restarts": 1, "seed": 0})
        key = entry_key(*args)
        return key, lambda: MappingStore(root).load(key, topology)
    if namespace == "serve":
        return "0" * 24, lambda: ResponseCache(root).load("0" * 24)
    key = _curve_cache_key(8, 8, 4, 16, 4)
    return key, lambda: cas.Store("dcn", root).get(key, ServiceCurve.from_dict)


@pytest.mark.parametrize("namespace", cas.NAMESPACES)
def test_corrupt_entry_is_a_miss(namespace, tmp_path):
    key, load = _entry(namespace, tmp_path)
    assert load() is None  # missing
    path = cas.Store(namespace, tmp_path).path(key)
    path.parent.mkdir(parents=True)
    for torn in ("{not json", "", '{"result": '):
        path.write_text(torn)
        assert load() is None


def test_clear_touches_only_its_own_namespace(tmp_path):
    for namespace in cas.NAMESPACES:
        cas.Store(namespace, tmp_path).put("k", {"namespace": namespace})
    for cleared, namespace in enumerate(cas.NAMESPACES, start=1):
        assert cas.Store(namespace, tmp_path).clear() == 1
        for other in cas.NAMESPACES[cleared:]:
            assert cas.Store(other, tmp_path).get("k") == {"namespace": other}


def test_cache_clear_command_clears_only_results(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cas.CACHE_DIR_ENV, str(tmp_path))
    key = cache_key("fig01", True)
    ResultCache().store(key, ExperimentResult("fig01", "t", ("a",), [(1,)]))
    cas.Store("serve", tmp_path).put("k", {"kept": True})
    assert cli_main(["experiments", "--cache-clear"]) == 0
    assert "cleared 1 cache entry" in capsys.readouterr().out
    assert ResultCache().load(key) is None
    assert cas.Store("serve", tmp_path).get("k") == {"kept": True}


def test_failed_publish_leaves_the_entry_and_no_temp_file(tmp_path):
    store = cas.Store("results", tmp_path)
    store.put("k", {"v": 1})
    with pytest.raises(TypeError):  # the write fails after mkstemp
        cas.publish(store.path("k"), b"bytes, not text")
    assert store.get("k") == {"v": 1}
    assert [p.name for p in store.directory.iterdir()] == ["k.json"]


_WRITER = """
import os, sys
from repro import cas
store = cas.Store("results", sys.argv[1])
while not os.path.exists(sys.argv[2]):
    pass  # start together
for i in range(200):
    store.put("race", {"i": i, "blob": "x" * 100000})
"""

_READER = """
import json, os, sys
from repro import cas
path = cas.Store("results", sys.argv[1]).path("race")
complete = 0
while not os.path.exists(sys.argv[2]):
    try:
        text = path.read_text()
    except FileNotFoundError:
        continue  # a miss is fine
    entry = json.loads(text)  # a torn entry raises here
    assert len(entry["blob"]) == 100000, "partial entry"
    complete += 1
print(complete)
"""


def test_concurrent_puts_of_one_key(tmp_path):
    """N processes publish one key at once: every writer succeeds and
    every concurrent reader sees either a miss or a complete entry."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start, stop = tmp_path / "start", tmp_path / "stop"

    def spawn(script, *args):
        return subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path), *args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    readers = [spawn(_READER, str(stop)) for _ in range(2)]
    try:
        writers = [spawn(_WRITER, str(start)) for _ in range(4)]
        start.touch()
        for writer in writers:
            _, err = writer.communicate(timeout=120)
            assert writer.returncode == 0, err
    finally:
        stop.touch()  # readers exit even when a writer failed
    for reader in readers:
        _, err = reader.communicate(timeout=120)
        assert reader.returncode == 0, err
    store = cas.Store("results", tmp_path)
    assert len(store.get("race")["blob"]) == 100000
    assert [p.name for p in store.directory.iterdir()] == ["race.json"]
