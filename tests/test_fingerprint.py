"""Source fingerprints: the layout resolver against ``find_spec``, and
the guarantees a cache key rests on (sound closures, no imports)."""

import ast
import hashlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from functools import lru_cache
from pathlib import Path

import repro
from repro import fingerprint
from repro.experiments.base import EXPERIMENT_IDS
from repro.fingerprint import source_fingerprint, transitive_modules

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every root a cache key is computed from.
KEY_ROOTS = (
    "repro.api",
    "repro.mapping.exchange",
    "repro.mapping.store",
    "repro.dcn.flow",
    *(f"repro.experiments.{experiment_id}" for experiment_id in EXPERIMENT_IDS),
)


# The reference walk is the resolver the layout walk replaced: modules
# resolved by ``importlib.util.find_spec`` (which imports a name's
# parents), imports found by ``ast.walk`` over the whole tree, and no
# package edges. Memoised only so that walking every module stays quick.
@lru_cache(maxsize=None)
def _spec_path(name):
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, AttributeError, ValueError):
        return None
    if spec is None or not spec.origin or not spec.origin.endswith(".py"):
        return None
    return Path(spec.origin)


@lru_cache(maxsize=None)
def _spec_imports(name):
    names = []
    for node in ast.walk(ast.parse(_spec_path(name).read_bytes())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return [n for n in names if n.split(".")[0] == "repro"]


@lru_cache(maxsize=None)
def _reference_closure(root):
    seen, frontier = set(), [root]
    while frontier:
        name = frontier.pop()
        if name in seen or _spec_path(name) is None:
            continue
        seen.add(name)
        frontier.extend(_spec_imports(name))
    return frozenset(seen)


def _reference_fingerprint(names):
    digest = hashlib.sha256()
    for name in sorted(set(names)):
        digest.update(name.encode() + b"\0" + _spec_path(name).read_bytes() + b"\0")
    return digest.hexdigest()


def _every_module():
    return ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]


def test_layout_names_every_module_the_import_system_finds():
    modules = _every_module()
    assert len(modules) > 100
    for name in modules:
        assert fingerprint.module_source_path(name) == _spec_path(name), name


def _packages(names):
    """Every package enclosing one of ``names`` (``repro.a.b`` ->
    ``repro.a``, ``repro``)."""
    return {
        name.rsplit(".", depth)[0]
        for name in names
        for depth in range(1, name.count(".") + 1)
    }


def test_closures_extend_the_find_spec_walk_only_through_packages():
    """The layout walk adds one rule to the ``find_spec`` walk: a
    module's enclosing package is one of its edges, because importing
    ``repro.a.b`` runs ``repro/a/__init__.py``. So the old closure is a
    subset of the new one, and every extra module is reached from a
    package ``__init__`` in the new closure. Fingerprints over a closure
    equal the reference hash."""
    modules = _every_module()
    assert set(KEY_ROOTS) <= set(modules)
    widened = 0
    for name in modules:
        closure = set(transitive_modules(name))
        old = _reference_closure(name)
        assert old <= closure, name
        through_packages = set().union(*map(_reference_closure, _packages(closure)))
        assert closure == old | through_packages, name
        assert source_fingerprint(closure) == _reference_fingerprint(closure), name
        widened += closure != old
    assert widened  # the rule is exercised, not vacuous


def test_imports_in_every_kind_of_block_are_found():
    source = textwrap.dedent("""
        import repro.a, numpy
        def f():
            from repro.b import x
        class C:
            if x:
                import repro.c
            else:
                import repro.d
        try:
            import repro.e
        except ImportError:
            import repro.f
        else:
            import repro.g
        finally:
            import repro.h
        for _ in ():
            pass
        else:
            import repro.i
        while x:
            import repro.j
        with x:
            import repro.k
        async def g():
            async with x:
                import repro.l
        from . import relative
    """)
    expected = {"repro.b", "repro.b.x"} | {f"repro.{c}" for c in "acdefghijkl"}
    if sys.version_info >= (3, 10):
        source += "match x:\n    case 1:\n        import repro.m\n"
        expected.add("repro.m")
    assert set(fingerprint._direct_imports(source.encode())) == expected


def test_non_module_candidates_resolve_to_nothing():
    assert fingerprint.module_source_path("repro.api.query_key") is None
    assert fingerprint.module_source_path("repro.nope") is None
    assert transitive_modules("repro.nope") == ()


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(KEY_ROOTS)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


_NO_IMPORT_SCRIPT = """
import json, sys
from repro.fingerprint import source_fingerprint, transitive_modules

before = set(sys.modules)
for root in json.loads(sys.argv[1]):
    source_fingerprint(transitive_modules(root))
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_computing_keys_imports_nothing():
    """The scan is static: closures and fingerprints of every key root
    add no module to ``sys.modules`` (no numpy, no ``repro.dcn.sim``)."""
    assert _run(_NO_IMPORT_SCRIPT) == []


_SOUNDNESS_SCRIPT = """
import importlib, json, sys
from repro.fingerprint import transitive_modules

def loaded():
    return {n for n in sys.modules if n == "repro" or n.startswith("repro.")}

roots = json.loads(sys.argv[1])
closures = {root: set(transitive_modules(root)) for root in roots}
missing = {}
for root in roots:
    for name in loaded():
        del sys.modules[name]
    importlib.import_module(root)
    if loaded() - closures[root]:
        missing[root] = sorted(loaded() - closures[root])
print(json.dumps(missing))
"""


def test_importing_a_root_loads_only_its_closure():
    """Every ``repro`` module that importing a key root executes, package
    ``__init__`` files included, is in that root's closure."""
    assert _run(_SOUNDNESS_SCRIPT) == {}


#: The only package ``__init__`` that may import: the benchmark harness
#: imports these three names from ``repro.dcn``.
_DCN_REEXPORTS = {"DCNConfig", "DCNShape", "run_dcn"}


def test_package_inits_import_nothing():
    """Whatever a package ``__init__`` imports joins the key of every
    module under that package, so no ``__init__`` re-exports names."""
    for path in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(path.parent.relative_to(SRC).parts)
        imported = set()
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {alias.name for alias in node.names}
        expected = _DCN_REEXPORTS if package == "repro.dcn" else set()
        assert imported == expected, package


def test_closed_form_tables_exclude_the_mapping_layer():
    """The use-case and cost tables are arithmetic: their keys cover no
    mapping module and no compiled kernel."""
    for experiment_id in ("tab03", "tab06", "tab07", "tab08"):
        closure = transitive_modules(f"repro.experiments.{experiment_id}")
        assert "repro.ckernel" not in closure, experiment_id
        assert not [m for m in closure if m.startswith("repro.mapping")], experiment_id
