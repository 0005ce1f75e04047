"""Every name that a module, test or demo imports is used in that file,
every private definition in the package is used somewhere in it, and the
test extra installs every package the tests import."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(tree: ast.AST) -> list[str]:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_no_unused_imports():
    # the package __init__ imports names to re-export them
    files = [p for d in ("src/cartancr", "tests", "demos")
             for p in sorted((ROOT / d).glob("*.py"))
             if p != ROOT / "src/cartancr/__init__.py"]
    unused = {}
    for path in files:
        names = _unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert len(files) > 20
    assert unused == {}


def _dead_private_definitions(sources: list[str]) -> list[str]:
    """Private (_name) functions, methods and module constants defined in
    the sources that no source reads as a name, an attribute or an import."""
    defined, read = set(), set()
    for text in sources:
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(n for n in defined - read
                  if n.startswith("_") and not n.endswith("__"))


def test_dead_private_definition_guard_sees_leftovers():
    src = ("_USED = 1\n_STRAY = 2\n"
           "def _helper(): return _USED\n"
           "def _stray(terms): return terms\n"
           "class A:\n"
           "    def __init__(self): self._go()\n"
           "    def _go(self): return _helper()\n"
           "    def _gone(self): pass\n")
    assert _dead_private_definitions([src]) == ["_STRAY", "_gone", "_stray"]


def test_no_dead_private_definitions():
    files = sorted((ROOT / "src/cartancr").glob("*.py"))
    assert len(files) > 5
    assert _dead_private_definitions([p.read_text() for p in files]) == []


def test_test_extra_lists_every_third_party_test_import():
    # the sympy oracle tests skip when sympy is missing, so a test extra
    # without it would drop them silently
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", req).group()
              for req in project["optional-dependencies"]["test"]}
    imported = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"cartancr"}
    assert "sympy" in third_party and third_party <= listed
