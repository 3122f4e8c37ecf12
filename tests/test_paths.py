"""Tests for the shared cache-root resolver and layout (repro.cas)."""

from pathlib import Path

from repro import cas
from repro.experiments.cache import ResultCache
from repro.mapping.store import MappingStore
from repro.serve.dispatch import ResponseCache


def test_default_root_is_relative_repro_cache(monkeypatch):
    monkeypatch.delenv(cas.CACHE_DIR_ENV, raising=False)
    assert cas.cache_root() == Path(cas.DEFAULT_CACHE_DIR)


def test_env_var_overrides_default(monkeypatch, tmp_path):
    monkeypatch.setenv(cas.CACHE_DIR_ENV, str(tmp_path))
    assert cas.cache_root() == tmp_path


def test_explicit_override_beats_env(monkeypatch, tmp_path):
    monkeypatch.setenv(cas.CACHE_DIR_ENV, str(tmp_path / "env"))
    assert cas.cache_root(tmp_path / "arg") == tmp_path / "arg"


def test_layer_subdirectories_share_one_root(monkeypatch, tmp_path):
    monkeypatch.setenv(cas.CACHE_DIR_ENV, str(tmp_path))
    assert ResultCache().entries.directory == tmp_path / "results"
    assert MappingStore().entries.directory == tmp_path / "mappings"
    assert ResponseCache().entries.directory == tmp_path / "serve"
    assert cas.Store("dcn").directory == tmp_path / "dcn"
