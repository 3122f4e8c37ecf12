"""Result cache: round-trip, hit/miss, and source-edit invalidation."""

import importlib
import textwrap

import pytest

from repro import fingerprint
from repro.experiments.base import ExperimentResult
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.runner import run_experiments
from repro.fingerprint import source_fingerprint, transitive_modules


def _toy_result() -> ExperimentResult:
    return ExperimentResult(
        experiment_id="fig01",
        title="toy",
        headers=("a", "b"),
        rows=[(1, 2.5), ("x", True)],
        notes=["a note"],
    )


def test_result_round_trips_through_dict():
    result = _toy_result()
    assert ExperimentResult.from_dict(result.to_dict()) == result


def test_store_then_load_hits(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.load(cache_key("fig01", fast=True)) is None
    path = cache.store(cache_key("fig01", fast=True), _toy_result())
    assert path.is_file()
    assert cache.load(cache_key("fig01", fast=True)) == _toy_result()


def test_fast_and_full_modes_are_distinct_entries(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(cache_key("fig01", fast=True), _toy_result())
    assert cache.load(cache_key("fig01", fast=False)) is None
    assert cache_key("fig01", fast=True) != cache_key("fig01", fast=False)


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(cache_key("fig01", fast=True), _toy_result())
    cache.store(cache_key("fig01", fast=False), _toy_result())
    assert cache.clear() == 2
    assert cache.load(cache_key("fig01", fast=True)) is None


def test_transitive_modules_track_real_dependencies():
    fig07_deps = transitive_modules("repro.experiments.fig07")
    assert "repro.experiments.fig07" in fig07_deps
    assert "repro.core.explorer" in fig07_deps
    assert "repro.mapping.exchange" in fig07_deps  # via core.design
    assert not any(m.startswith("repro.netsim") for m in fig07_deps)

    fig21_deps = transitive_modules("repro.experiments.fig21")
    assert "repro.netsim.sim" in fig21_deps

    # fig09 delegates to fig07, so it must inherit its dependency cone.
    fig09_deps = set(transitive_modules("repro.experiments.fig09"))
    assert set(fig07_deps) <= fig09_deps


def test_source_edit_changes_fingerprint(tmp_path, monkeypatch):
    pkg = tmp_path / "fingerprintpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    module = pkg / "leaf.py"
    module.write_text("VALUE = 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    importlib.invalidate_caches()

    names = ["fingerprintpkg.leaf"]
    before = source_fingerprint(names)
    assert before == source_fingerprint(names)  # deterministic
    module.write_text("VALUE = 2\n")
    assert source_fingerprint(names) != before


def test_source_edit_busts_cache_key(tmp_path, monkeypatch):
    """A changed dependency fingerprint makes the old entry unreachable."""
    cache = ResultCache(tmp_path)
    cache.store(cache_key("fig01", fast=True), _toy_result())
    assert cache.load(cache_key("fig01", fast=True)) is not None

    original = fingerprint.source_fingerprint
    monkeypatch.setattr(
        fingerprint,
        "source_fingerprint",
        lambda names: "edited" + original(names),
    )
    assert cache.load(cache_key("fig01", fast=True)) is None


def test_runner_serves_cached_result_without_recompute(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    (first,) = run_experiments(["tab06"], fast=True, cache=cache)

    import repro.experiments.tab06 as tab06

    def boom(fast=True):
        raise AssertionError("cache should have served this")

    monkeypatch.setattr(tab06, "run", boom)
    (second,) = run_experiments(["tab06"], fast=True, cache=cache)
    assert second == first


def test_runner_without_cache_recomputes(monkeypatch):
    calls = []
    import repro.experiments.tab06 as tab06

    original = tab06.run

    def counting(fast=True):
        calls.append(fast)
        return original(fast=fast)

    monkeypatch.setattr(tab06, "run", counting)
    run_experiments(["tab06"], fast=True, cache=None)
    run_experiments(["tab06"], fast=True, cache=None)
    assert len(calls) == 2


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
    path = ResultCache().store(cache_key("fig01", fast=True), _toy_result())
    assert path.parent == tmp_path / "alt" / "results"


def test_entry_names_are_human_readable(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.store(cache_key("fig01", fast=True), _toy_result())
    assert path.name.startswith("fig01-fast-")


def test_function_local_import_is_fingerprinted(tmp_path, monkeypatch):
    """``repro.api`` imports ``repro.dcn.sim`` only inside
    ``_execute_dcn``; the closure must still hold it, and an edit to it
    must still change the closure's fingerprint."""
    import ast
    import inspect

    from repro import api

    top_level = [
        node.module
        for node in ast.parse(inspect.getsource(api)).body
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro")
    ]
    assert top_level
    assert not any(
        "repro.dcn.sim" in transitive_modules(module) for module in top_level
    ), "repro.dcn.sim must be reachable only through the local import"
    closure = transitive_modules("repro.api")
    assert "repro.dcn.sim" in closure

    # Fingerprint an editable copy in place of the real source.
    copy = tmp_path / "sim.py"
    copy.write_bytes(fingerprint.module_source_path("repro.dcn.sim").read_bytes())
    real_path = fingerprint.module_source_path
    monkeypatch.setattr(
        fingerprint,
        "module_source_path",
        lambda name: copy if name == "repro.dcn.sim" else real_path(name),
    )
    before = source_fingerprint(closure)
    assert before == source_fingerprint(closure)
    copy.write_text(copy.read_text() + "\n# edited\n")
    assert source_fingerprint(closure) != before
