"""Tests of the benchmark itself: python3 -m pytest -q bench

The count test starts two full traced child processes and takes a few
minutes; the others are quick.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from cartancr import model  # noqa: E402

COUNTS = ("numfield.mul_count", "numfield.add_count", "numfield.inv_count",
          "linalg.rref_calls", "liealg.expand_calls", "cohomology.kernel_calls",
          "cohomology.bracket_coords_calls", "structeq.generate_calls")


def _serialized(inp):
    return ([[c.serialize() for c in v] for v in inp.coeffs], inp.triples,
            [[c.serialize() for c in p] for p in inp.points])


def test_inputs_repeat_per_seed_and_hold_by_construction():
    a, b, c = inputs.generate(7), inputs.generate(7), inputs.generate(8)
    assert _serialized(a) == _serialized(b)
    assert _serialized(a) != _serialized(c)
    for vec in a.coeffs:
        assert all(x != 0 for c in vec for x in c.re + c.im)
    for x1, x2, x3 in a.triples:
        assert x1 * x1 + x2 * x2 == x3 * x3 and x3 > 0
    for p in a.points:
        assert model.membership_model(p)["member"]


def test_suite_digest_ignores_new_fields_but_not_verdicts():
    report = {"checks": [{"id": "a.b", "passed": True, "detail": "ok"}],
              "counts": {"total": 1, "failed": 0}}
    base = golden.suite_digest(report)
    report["checks"][0]["witness"] = {"dims": [0, 1, 6]}
    assert golden.suite_digest(report) == base
    report["checks"][0]["passed"] = False
    assert golden.suite_digest(report) != base


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(20))) == (50.0, 9)


def test_counts_repeat_and_self_times_cover_the_traced_wall():
    results = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "layers.py"), "--seed", "3", "--traced", "1"],
            cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    for res in results:
        assert res["failed"] == []
        m = res["metrics"]
        assert m["trace.self_sum_s"] <= m["trace.work_s"]
        assert m["trace.self_sum_s"] >= 0.99 * m["trace.work_s"]
    first, second = (r["metrics"] for r in results)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert all(first[k] > 0 for k in COUNTS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
