"""A cold process loads only what it runs: `import cartancr` loads no
submodule, each public name is imported from its home on first use, an
--emit process loads neither cohomology nor model, a bases or killing-matrix
emit neither structeq nor forms, `import cartancr.forms` none of the
modules above it, and the killing suite no cohomology.  Every test starts a
fresh interpreter, since this process has long since loaded the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc


def _report(code: str):
    """Run `code` in a fresh interpreter; it prints one JSON value."""
    return json.loads(_python("-c", code).stdout)


_LOADED = "sorted(m for m in sys.modules if m.startswith('cartancr.'))"


def test_import_loads_no_submodule():
    assert _report(f"import sys, json, cartancr; print(json.dumps({_LOADED}))") == []


def test_readme_import_loads_only_what_it_needs():
    loaded = _report("import sys, json\n"
                     "from cartancr import build_basis, codifferential_kernel, killing_matrix\n"
                     f"print(json.dumps({_LOADED}))")
    assert loaded == ["cartancr.cohomology", "cartancr.liealg", "cartancr.linalg",
                      "cartancr.numfield"]


def _cli_modules(*argv: str) -> set[str]:
    """cartancr modules that running cartancr.cli as `python -m` does with
    `argv` leaves loaded.  A RuntimeWarning is an error here, so runpy's
    warning that the package root already imported cartancr.cli fails."""
    proc = _python("-W", "error::RuntimeWarning", "-c",
                   "import json, runpy, sys\n"
                   f"sys.argv = ['cartancr', *{list(argv)!r}]\n"
                   "try:\n"
                   "    runpy.run_module('cartancr.cli', run_name='__main__', alter_sys=True)\n"
                   "except SystemExit as exc:\n"
                   "    assert exc.code == 0, exc.code\n"
                   f"print(json.dumps({_LOADED}), file=sys.stderr)")
    return set(json.loads(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize("kind", ["structure-equations", "constraints", "bases",
                                  "killing-matrix"])
def test_emit_loads_neither_cohomology_nor_model(kind):
    loaded = _cli_modules("--emit", kind, "--format", "json")
    assert "cartancr.liealg" in loaded
    assert not loaded & {"cartancr.cohomology", "cartancr.model"}


@pytest.mark.parametrize("fmt", ["latex", "json"])
@pytest.mark.parametrize("kind", ["bases", "killing-matrix"])
def test_matrix_emits_load_no_structeq(kind, fmt):
    # a matrix entry is printed by numfield alone
    loaded = _cli_modules("--emit", kind, "--format", fmt)
    assert "cartancr.numfield" in loaded
    assert not loaded & {"cartancr.structeq", "cartancr.forms"}


def test_forms_loads_none_of_the_modules_built_on_it():
    loaded = _report(f"import sys, json, cartancr.forms; print(json.dumps({_LOADED}))")
    assert loaded == ["cartancr.forms", "cartancr.liealg", "cartancr.linalg",
                      "cartancr.numfield"]


def test_killing_suite_loads_no_cohomology():
    # the signed permutation (SIGMA, EPS) is liealg's
    loaded = _cli_modules("--suite", "killing")
    assert "cartancr.liealg" in loaded
    assert "cartancr.cohomology" not in loaded


def test_suite_all_loads_cohomology_and_model():
    assert {"cartancr.cohomology", "cartancr.model"} <= _cli_modules("--suite", "all")


def test_every_public_name_resolves_to_its_home_object():
    homes = _report(
        "import json, sys, types, cartancr\n"
        "out = {}\n"
        "for name in cartancr.__all__:\n"
        "    obj = getattr(cartancr, name)\n"
        "    if isinstance(obj, types.ModuleType):\n"
        "        out[name] = [obj.__name__, obj is sys.modules[obj.__name__]]\n"
        "    else:\n"
        "        out[name] = [obj.__module__, getattr(sys.modules[obj.__module__], name) is obj]\n"
        "print(json.dumps(out))")
    assert len(homes) == 15
    assert all(home.startswith("cartancr.") and ok for home, ok in homes.values()), homes
    assert {n for n, (home, _) in homes.items() if home == f"cartancr.{n}"} == {
        "cohomology", "forms", "liealg", "linalg", "model", "structeq"}


def test_star_import_binds_all_of_all():
    missing = _report("import json, cartancr\n"
                      "from cartancr import *\n"
                      "print(json.dumps([n for n in cartancr.__all__\n"
                      "                  if globals().get(n) is not getattr(cartancr, n)]))")
    assert missing == []


def test_dir_lists_all_without_loading_it():
    names, public, loaded = _report(
        "import sys, json, cartancr\n"
        f"print(json.dumps([dir(cartancr), cartancr.__all__, {_LOADED}]))")
    assert names == sorted(names)
    assert set(public) | {"__version__"} <= set(names)
    assert loaded == []


def test_unknown_name_raises_attribute_error():
    assert _report(
        "import json, cartancr\n"
        "try:\n"
        "    cartancr.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps([str(exc), hasattr(cartancr, 'cli_main')]))") == [
        "module 'cartancr' has no attribute 'no_such_name'", False]
