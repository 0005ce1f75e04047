"""Committed benchmark records: every BENCH_*.json at the root of the
checkout parses and names only workloads and metrics that BENCHMARK.json
declares, so a record cannot cite a number the harness does not measure.

A record holds the final JSON line of `bench/run.py` for each run:
`pairs` maps a workload to its parent/change pairs of `--trace 0` runs,
and `trace` lists parent/change pairs of `--trace 1` runs.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _undeclared(record: dict, spec: dict) -> list[str]:
    """What a record names that the benchmark spec does not declare."""
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    runs = [(f"{workload} pair {k} {side}", pair[side], end_to_end)
            for workload, pairs in record["pairs"].items()
            for k, pair in enumerate(pairs) for side in SIDES]
    runs += [(f"trace pair {k} {side}", pair[side], per_layer)
             for k, pair in enumerate(record["trace"]) for side in SIDES]
    out = [f"workload {w}" for w in record["pairs"] if w not in workloads]
    for where, line, declared in runs:
        out += [f"{where}: metric {name}" for name, m in line["metrics"].items()
                if declared.get(name) != m["unit"]]
        if not isinstance(line["correct"], bool):
            out.append(f"{where}: no verdict")
    return out


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _line(metrics: dict) -> dict:
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": 1.0, "unit": unit} for name, unit in metrics.items()}}


def test_record_guard_sees_undeclared_names():
    good = _line({"wall_s": "s"})
    record = {"pairs": {"library-warm": [{"parent": good, "change": _line({"wall_ms": "ms"})}],
                        "cold-start": [{"parent": good, "change": good}]},
              "trace": [{"parent": _line({"numfield.mul_count": "count"}),
                         "change": _line({"numfield.mul_count": "s"})}]}
    assert _undeclared(record, _spec()) == [
        "workload cold-start", "library-warm pair 0 change: metric wall_ms",
        "trace pair 0 change: metric numfield.mul_count"]


def test_committed_records_name_only_declared_workloads_and_metrics():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    spec = _spec()
    for path in records:
        record = json.loads(path.read_text())
        assert all(record["pairs"].values()) and record["trace"], path.name
        assert _undeclared(record, spec) == [], path.name
