"""CLI report determinism, exit codes, artifact emission."""

import ast
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cartancr import cli, cohomology, liealg, linalg, structeq
from cartancr.numfield import AlgNum

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

# the benchmark's golden digests of the report and of every emitted artifact
_spec = importlib.util.spec_from_file_location("golden", ROOT / "bench" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def report():
    return cli.run_suite("all", FIXTURES)


def test_all_suites_pass(report):
    failed = [c["id"] for c in report["checks"] if not c["passed"]]
    assert report["passed"], failed
    assert report["schema"] == cli.SCHEMA
    assert report["counts"]["failed"] == 0
    assert report["counts"]["total"] == len(report["checks"]) == 30


def test_checks_are_sorted_by_id(report):
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_single_suite_subsets_all(report):
    full = {c["id"] for c in report["checks"]}
    for name in cli.SUITES:
        if name == "all":
            continue
        sub = {c["id"] for c in cli.run_suite(name, FIXTURES)["checks"]}
        assert sub and sub <= full


def test_report_and_artifacts_match_goldens(report):
    assert golden.suite_ok(report)
    for kind, fmt in golden.EMITS:
        text = cli.emit_artifacts(kind, fmt, FIXTURES)
        assert golden.emit_ok(kind, fmt, text), (kind, fmt)


def _bench_constant(name: str, file: str = "layers.py") -> ast.expr:
    """The value of a module-level assignment in a bench/ file, read from
    the source, not imported."""
    tree = ast.parse((ROOT / "bench" / file).read_text())
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == [name])


def test_benchmark_span_targets_resolve():
    # bench/layers.py wraps each (owner, attribute) of its SPANNED tuple by
    # name, reading the attribute from the owner's own __dict__
    spanned = _bench_constant("SPANNED")
    assert len(spanned.elts) >= 20
    for entry in spanned.elts:
        _, owner, attr = entry.elts
        module, *path = ast.unparse(owner).split(".")
        obj = importlib.import_module(f"cartancr.{module}")
        for part in path:
            obj = getattr(obj, part)
        assert callable(vars(obj).get(attr.value)), ast.unparse(entry)


def test_benchmark_calls_resolve_and_hold(monkeypatch):
    # one seeded library round runs the public calls the benchmark makes and
    # checks each result; the suite functions and the AlgNum operations its
    # traced run wraps by name are read from the source of bench/layers.py
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    inputs = importlib.import_module("inputs")
    library = importlib.import_module("library")
    session = library.Session(ROOT, inputs.generate(1))
    results, _ = library.run_round(session)
    ok = library.check_round(session, results)
    assert ok and all(ok.values()), sorted(k for k, v in ok.items() if not v)
    names = ast.literal_eval(_bench_constant("SUITE_FUNCS").args[0].args[1])
    assert len(names) == 7
    for name in names:
        assert callable(getattr(cli, name, None)), name
    # the counters replace AlgNum.__dict__[attr], so each must be the
    # class's own attribute, not an inherited one
    counted = ast.literal_eval(_bench_constant("COUNTED"))
    assert {attr for _, attr in counted} >= {"__add__", "__radd__", "__mul__", "__rmul__", "inv"}
    for _, attr in counted:
        assert callable(vars(AlgNum).get(attr)), attr


# the hook whose calls each count of bench/test_bench.py's COUNTS reads
_COUNT_HOOKS = {
    "numfield.mul_count": (AlgNum, "__mul__"),
    "numfield.add_count": (AlgNum, "__add__"),
    "numfield.inv_count": (AlgNum, "inv"),
    "linalg.rref_calls": (linalg, "rref"),
    "liealg.expand_calls": (liealg.Basis, "expand"),
    "cohomology.kernel_calls": (cohomology, "codifferential_kernel"),
    "cohomology.bracket_coords_calls": (cohomology, "bracket_coords"),
    "structeq.generate_calls": (structeq, "generate_structure_equations"),
}


def test_benchmark_counts_stay_positive(monkeypatch):
    # bench/test_bench.py requires every count to be > 0, so a change that
    # removes calls must not zero one; the work is bench/layers.py run_work's:
    # the full suite, the eight emits and one seeded library round
    counts = ast.literal_eval(_bench_constant("COUNTS", "test_bench.py"))
    assert sorted(counts) == sorted(_COUNT_HOOKS)
    seen = dict.fromkeys(counts, 0)
    for name, (owner, attr) in _COUNT_HOOKS.items():
        def counted(*args, _fn=vars(owner)[attr], _name=name, **kwargs):
            seen[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    inputs = importlib.import_module("inputs")
    library = importlib.import_module("library")
    cli.run_suite("all", FIXTURES)
    for kind, fmt in golden.EMITS:
        cli.emit_artifacts(kind, fmt, FIXTURES)
    library.run_round(library.Session(ROOT, inputs.generate(1)))
    assert all(seen.values()), seen


def test_json_report_is_byte_identical(capsys):
    assert cli.main(["--suite", "killing", "--json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["--suite", "killing", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["suite"] == "killing"
    assert "timestamp" not in first


def test_text_report_lines(capsys):
    assert cli.main(["--suite", "model"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("suite: model")
    assert "[pass]" in out and "FAIL" not in out
    assert out.rstrip().endswith("checks passed")


def test_exit_code_tracks_failures(monkeypatch, capsys):
    # corrupt one check to confirm the exit code reflects it
    real = cli.run_suite

    def broken(name, fixtures):
        report = real(name, fixtures)
        report["checks"][0]["passed"] = False
        report["passed"] = False
        return report

    monkeypatch.setattr(cli, "run_suite", broken)
    assert cli.main(["--suite", "model"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        cli.main(["--suite", "nonsense"])


def test_suite_and_emit_are_exclusive(capsys):
    # one run either checks a suite or emits an artifact, never both
    with pytest.raises(SystemExit):
        cli.main(["--suite", "kernels", "--emit", "bases"])
    assert "not allowed with argument" in capsys.readouterr().err


def test_emit_structure_equations_latex(capsys):
    assert cli.main(["--emit", "structure-equations", "--format", "latex"]) == 0
    out = capsys.readouterr().out
    assert r"\vartheta^{-2}" in out
    assert r"\frac{i}{2}" in out


def test_emit_structure_equations_json(capsys):
    assert cli.main(["--emit", "structure-equations", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [e["generator"] for e in data["equations"]] == list(range(10))


def test_emit_killing_matrix_json(capsys):
    assert cli.main(["--emit", "killing-matrix", "--format", "json"]) == 0
    m = json.loads(capsys.readouterr().out)
    assert len(m) == 10 and all(len(row) == 10 for row in m)
    assert m[0][9] == "1" and m[6][6] == "-1" and m[0][0] == "0"


def test_emit_bases_json(capsys):
    assert cli.main(["--emit", "bases", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"standard", "cr", "f"}
    assert all(len(v) == 10 for v in data.values())


def test_emit_constraints_both_formats(capsys):
    assert cli.main(["--emit", "constraints", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["slots"]) == 44
    assert cli.main(["--emit", "constraints", "--format", "latex"]) == 0
    tex = capsys.readouterr().out
    assert "= 0" in tex and "graded-component-a" in tex


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    assert cli.main(["--suite", "torsion", "--json", "--out", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert payload["passed"]


@pytest.mark.parametrize("argv, target", [
    (["--emit", "bases", "--format", "json"], "missing/dir/x.json"),
    (["--suite", "torsion"], "."),
], ids=["missing-directory", "a-directory"])
def test_main_reports_an_unwritable_out_cleanly(tmp_path, capsys, argv, target):
    # exit 1 is kept for "a check failed"
    out = tmp_path / target
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cartancr: cannot write {out}")
    assert captured.err.count("\n") == 1


def test_fixtures_override(tmp_path):
    # a bad fixture directory must surface as an error, not a silent pass
    with pytest.raises(FileNotFoundError):
        cli.run_suite("structure-equations", tmp_path)


def test_main_reports_missing_fixtures_cleanly(tmp_path, capsys):
    code = cli.main(["--suite", "structure-equations",
                     "--fixtures", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cartancr: cannot read fixture {tmp_path / 'constraints.json'}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("case", ["file-as-directory", "directory-as-file"])
def test_main_reports_unreadable_fixtures_cleanly(tmp_path, capsys, case):
    # exit 1 is kept for "a check failed"
    if case == "file-as-directory":
        fixtures = tmp_path / "README.md"
        fixtures.write_text("not a directory\n")
    else:
        fixtures = tmp_path
        (tmp_path / "constraints.json").mkdir()
    assert cli.main(["--suite", "structure-equations", "--fixtures", str(fixtures)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cartancr: cannot read fixture {fixtures}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--emit", "killing-matrix", "--json"],
    ["--suite", "torsion", "--format", "json"],
    ["--format", "latex"],
], ids=["json-with-emit", "format-with-suite", "format-with-default-suite"])
def test_flags_the_action_ignores_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--json goes with a suite, --format with --emit" in captured.err


def test_the_package_carries_its_fixtures(tmp_path):
    # a copy of the package alone, run away from the checkout and without
    # --fixtures, reads the fixtures it ships
    package = ROOT / "src" / "cartancr"
    assert FIXTURES.resolve() == (package / "fixtures").resolve()
    lib = tmp_path / "lib"
    shutil.copytree(package, lib / "cartancr",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "-m", "cartancr.cli", "--suite", "all", "--json"],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(lib)})
    assert proc.returncode == 0, proc.stderr
    assert golden.suite_ok(json.loads(proc.stdout))


@pytest.mark.parametrize("text", [
    json.dumps({"groups": [{"name": "bad", "zero_slots": [[1, 3, 0]]}]}),
    '{"groups": [',
    "{}",
], ids=["slot-1,3,0", "not-json", "empty-object"])
@pytest.mark.parametrize("argv", [["--emit", "structure-equations"],
                                  ["--suite", "structure-equations"]],
                         ids=["emit", "suite"])
def test_main_reports_malformed_fixture_cleanly(tmp_path, capsys, argv, text):
    (tmp_path / "constraints.json").write_text(text)
    assert cli.main([*argv, "--fixtures", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cartancr: malformed fixture")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name", ["constraints.json", "structure_equations.json"])
def test_a_malformed_fixture_is_named_by_its_file(tmp_path, capsys, name):
    # the suite reads both files, so naming the directory alone does not
    # say which of them is at fault
    for fixture in ("constraints.json", "structure_equations.json"):
        shutil.copy(FIXTURES / fixture, tmp_path / fixture)
    text = (FIXTURES / name).read_text()
    (tmp_path / name).write_text(text[:len(text) // 2])
    assert cli.main(["--suite", "structure-equations", "--fixtures", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cartancr: malformed fixture {tmp_path / name}: ")
    assert captured.err.count("\n") == 1


def test_a_check_side_value_error_is_not_a_malformed_fixture(tmp_path, monkeypatch):
    # a library caller still sees a malformed fixture as a ValueError
    (tmp_path / "constraints.json").write_text("{}")
    with pytest.raises(ValueError, match="constraints.json"):
        cli.emit_artifacts("constraints", "json", tmp_path)

    # --suite kernels reads no fixture: a ValueError raised by one of its
    # checks is a fault of the program, and must not read as a bad fixture
    def fault():
        raise ValueError("a check-side fault")

    monkeypatch.setattr(cohomology, "degree1_columns_check", fault)
    with pytest.raises(ValueError, match="a check-side fault"):
        cli.main(["--suite", "kernels"])


def test_emit_rejects_unknown_kind():
    with pytest.raises(ValueError):
        cli.emit_artifacts("spectra", "json", FIXTURES)


@pytest.mark.parametrize("name", ["nonsense", "", "ALL", None])
def test_run_suite_rejects_an_unknown_suite(name):
    with pytest.raises(ValueError, match="unknown suite"):
        cli.run_suite(name, FIXTURES)


@pytest.mark.parametrize("fmt", ["yaml", "LaTeX", None])
@pytest.mark.parametrize("kind", cli.EMITS)
def test_emit_rejects_an_unknown_format(kind, fmt):
    # no kind falls back to one of the two formats
    with pytest.raises(ValueError, match="unknown format"):
        cli.emit_artifacts(kind, fmt, FIXTURES)
