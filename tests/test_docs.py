"""Documentation stays honest: relative links resolve, doctests pass.

Part of the fast tier so docs can't rot silently: a renamed file breaks
the link check and a stale docstring example breaks the doctest pass.
"""

import ast
import doctest
import importlib
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

MARKDOWN_FILES = sorted(REPO_ROOT.glob("*.md")) + sorted(
    (REPO_ROOT / "docs").glob("*.md")
)

#: ``[text](target)`` — target without spaces (excludes footnote syntax).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCED_CODE = re.compile(r"```.*?```", re.DOTALL)


def _relative_link_targets(markdown: str):
    text = _FENCED_CODE.sub("", markdown)
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target


@pytest.mark.parametrize(
    "md_file", MARKDOWN_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_markdown_links_resolve(md_file):
    broken = []
    for target in _relative_link_targets(md_file.read_text()):
        path = target.split("#", 1)[0]
        if path and not (md_file.parent / path).exists():
            broken.append(target)
    assert not broken, f"{md_file.name}: broken relative link(s): {broken}"


def _modules_with_doctests():
    """Every repro module whose source contains a ``>>>`` example."""
    for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
        if ">>>" in path.read_text():
            relative = path.relative_to(SRC_ROOT).with_suffix("")
            yield ".".join(relative.parts)


DOCTEST_MODULES = list(_modules_with_doctests())


def test_some_modules_carry_doctests():
    """The doctest pass must actually cover something."""
    assert "repro.experiments.base" in DOCTEST_MODULES
    assert "repro.experiments.cache" in DOCTEST_MODULES


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_docstring_examples_run(module_name):
    module = importlib.import_module(module_name)
    outcome = doctest.testmod(module, verbose=False)
    assert outcome.attempted > 0, f"{module_name}: '>>>' present but no doctests collected"
    assert outcome.failed == 0, f"{module_name}: {outcome.failed} doctest failure(s)"


_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)

SNIPPET_FILES = [p for p in MARKDOWN_FILES if _PYTHON_BLOCK.search(p.read_text())]


def test_snippet_check_covers_the_readme():
    assert REPO_ROOT / "README.md" in SNIPPET_FILES


@pytest.mark.parametrize(
    "md_file", SNIPPET_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_snippet_imports_resolve(md_file):
    """Every name a ``python`` block imports from ``repro`` exists in
    the module it names."""
    missing = []
    for block in _PYTHON_BLOCK.findall(md_file.read_text()):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("repro"):
                module = importlib.import_module(node.module)
                missing += [
                    f"{node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
    assert not missing, f"{md_file.name}: unresolved snippet import(s): {missing}"
