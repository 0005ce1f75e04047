"""Every name that a module, test or demo imports is used in that file,
every private definition in the package is used somewhere in it, every
public one, public methods included, by the package, a demo, the
benchmark or the contract tests, no module of the package reads another
module's private name or holds a float, and the test extra installs every
package the tests import."""

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
    files = [p for d in ("src/cartancr", "tests", "demos")
             for p in sorted((ROOT / d).glob("*.py"))]
    unused = {}
    for path in files:
        names = _unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert len(files) > 20
    assert unused == {}


def _module_level_definitions(tree: ast.Module) -> set[str]:
    """Functions, classes and constants a module defines at its top level."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return defined


def _names_read(tree: ast.AST) -> set[str]:
    """Names a source reads: as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _dead_private_definitions(sources: list[str]) -> list[str]:
    """Private (_name) functions, methods, classes and module constants
    defined in the sources that no source reads."""
    trees = [ast.parse(text) for text in sources]
    defined = set().union(*map(_module_level_definitions, trees))
    defined.update(node.name for tree in trees for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    read = set().union(*map(_names_read, trees))
    return sorted(n for n in defined - read if _private(n))


def _dead_public_definitions(defining: list[str], reading: list[str]) -> list[str]:
    """Public module-level functions, classes and constants of the defining
    sources, and public methods of their public classes, that no reading
    source (the defining ones among them) reads."""
    defined = set()
    for tree in map(ast.parse, defining):
        defined |= _module_level_definitions(tree)
        defined.update(node.name for cls in tree.body
                       if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                       for node in cls.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    read = set().union(*(_names_read(ast.parse(t)) for t in reading))
    return sorted(n for n in defined - read if not n.startswith("_"))


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


def test_dead_public_definition_guard_sees_leftovers():
    lib = ("USED = 1\nSTRAY = 2\n"
           "def helper(): return USED\n"
           "def stray(): return helper()\n"
           "class Kept:\n"
           "    def used(self): pass\n"
           "    def unused(self): pass\n"
           "    def _own(self): pass\n"
           "class Gone: pass\n"
           "class _Hidden:\n"
           "    def method(self): pass\n"
           "def _private(): pass\n")
    user = ('"""Gone, stray, STRAY and unused are only mentioned here."""\n'
            "import lib\nlib.Kept().used()\n")
    assert _dead_public_definitions([lib], [lib, user]) == ["Gone", "STRAY", "stray", "unused"]


def test_no_dead_public_definitions():
    # every public name of a module is used by the package, a demo, the
    # benchmark or the contract tests: a name only other tests read belongs
    # in those tests; the package __init__ defines no public name
    package = sorted(p for p in (ROOT / "src/cartancr").glob("*.py")
                     if p.name != "__init__.py")
    readers = [p for d in ("src", "demos", "bench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    readers.append(ROOT / "tests/test_acceptance.py")
    assert len(package) > 5 and len(readers) > 15
    assert _dead_public_definitions([p.read_text() for p in package],
                                    [p.read_text() for p in readers]) == []


def _floats(source: str) -> list[str]:
    """Float and complex literals, and float( and complex( calls, of a source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            found.append((node.lineno, f"{node.func.id}("))
    return [f"{line}: {text}" for line, text in sorted(found)]


def test_float_guard_sees_leftovers():
    src = ("x = 2 ** 0.5\ny = 1j\nz = float('1')\nw = complex(1, 2)\n"
           "n = 3 // 2\ns = 'float(1.0)'\nt = isinstance(n, float)\n")
    assert _floats(src) == ["1: 0.5", "2: 1j", "3: float(", "4: complex("]


def test_the_package_holds_no_float():
    # every number stays an exact field element; floats are a test oracle
    files = sorted((ROOT / "src/cartancr").glob("*.py"))
    assert len(files) > 5
    found = {p.name: _floats(p.read_text()) for p in files}
    assert {name: f for name, f in found.items() if f} == {}


def _foreign_private_reads(source: str) -> list[str]:
    """Private names of another package module that a package source
    reads: module._name after `from . import module`, and
    `from .module import _name`."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                modules.update(a.asname or a.name for a in node.names)
            else:
                found += [f"{node.module}.{a.name}" for a in node.names if _private(a.name)]
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)]
    return sorted(found)


def test_foreign_private_read_guard_sees_leftovers():
    src = ("import os\n"
           "from . import liealg, model as m\n"
           "from .numfield import ZERO, _coerce\n"
           "def f(x):\n"
           "    from . import cohomology\n"
           "    return (liealg._entries(x), m._H, cohomology._pairing_rows(),\n"
           "            liealg.DIM, liealg.__name__, os._exit, x._n, _coerce, ZERO)\n")
    assert _foreign_private_reads(src) == ["cohomology._pairing_rows", "liealg._entries",
                                           "m._H", "numfield._coerce"]


def test_no_module_reads_another_modules_private_name():
    files = sorted((ROOT / "src/cartancr").glob("*.py"))
    assert len(files) > 5
    reads = {p.name: _foreign_private_reads(p.read_text()) for p in files}
    assert {name: r for name, r in reads.items() if r} == {}


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
