"""cartancr benchmark: three workloads, cold and warm, and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md for why each
was chosen and which layer should move which metric):

  suite-all     one cold `cartancr --suite all --json` process per unit
  emit-all      the 8 cold `cartancr --emit KIND --format FMT` processes
                per unit, each checked byte for byte against a golden
  library-warm  one process builds all bases during set-up, then runs
                seeded rounds of public library calls
  all           the three above in turn, each in its own process

`--trace 0` measures the end-to-end metrics of BENCHMARK.json with
tracing off.  `--trace 1` runs the in-process work of all three workloads
twice in fresh child processes, once bare and once with span recorders,
and reports the per-layer metrics; it is the same for every workload.

Every output is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Child
processes are started one at a time and waited for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import golden

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("suite-all", "emit-all", "library-warm")
# cold imports timed before and after the measured units, so set-up time
# samples the machine at both ends of the run
IMPORTS_EACH_SIDE = 4
CHILD_TIMEOUT_S = 150


@dataclass
class Sample:
    wall: float
    cpu: float
    attempted: int
    failed: int


def child_env() -> dict:
    # fixed hash seed: set iteration order, and so the exact counts, repeat
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def run_child(args: list) -> tuple[float, float, int | None, str]:
    """Run one child python process to completion.

    Returns (wall seconds, cpu seconds, exit code or None on timeout, stdout)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"timeout: {' '.join(args)}", file=sys.stderr)
        return time.perf_counter() - t0, 0.0, None, ""
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if proc.returncode:
        print(f"exit {proc.returncode}: {' '.join(args)}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
    return wall, cpu, proc.returncode, proc.stdout


def import_times() -> list:
    """Wall times of fresh processes until `import cartancr` returns."""
    return [run_child(["-c", "import cartancr"])[0] for _ in range(IMPORTS_EACH_SIDE)]


def suite_all_unit() -> Sample:
    wall, cpu, code, out = run_child(["-m", "cartancr.cli", "--suite", "all", "--json"])
    try:
        ok = code == 0 and golden.suite_ok(json.loads(out))
    except (json.JSONDecodeError, KeyError, TypeError):
        ok = False
    return Sample(wall, cpu, 1, int(not ok))


def emit_all_unit() -> Sample:
    total = Sample(0.0, 0.0, 0, 0)
    for kind, fmt in golden.EMITS:
        wall, cpu, code, out = run_child(
            ["-m", "cartancr.cli", "--emit", kind, "--format", fmt])
        ok = code == 0 and golden.emit_ok(kind, fmt, out)
        total = Sample(total.wall + wall, total.cpu + cpu,
                       total.attempted + 1, total.failed + int(not ok))
    return total


def measure(unit, seconds: float) -> list:
    """Run units until the next one would end past `seconds`; at least one."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(unit())
        if time.perf_counter() - start + samples[-1].wall > seconds:
            return samples


def cold_workload(unit, seconds: float):
    imports = import_times()
    samples = measure(unit, seconds)
    imports += import_times()
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return statistics.median(imports), samples, rss_mb


def library_warm(seed: int, seconds: float):
    """Set up a session in this process, then measure library rounds."""
    imports = import_times()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cartancr
    if Path(cartancr.__file__).resolve().parent != SRC / "cartancr":
        raise SystemExit(f"imported {cartancr.__file__}, not the checkout's copy")
    import inputs
    import library
    session = library.Session(ROOT, inputs.generate(seed))

    def unit() -> Sample:
        c0, w0 = time.process_time(), time.perf_counter()
        results, _ = library.run_round(session)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        ok = library.check_round(session, results)
        return Sample(wall, cpu, len(ok), sum(not v for v in ok.values()))

    warm = unit()
    build = time.perf_counter() - t0
    samples = measure(unit, seconds)
    imports += import_times()
    # the warm-up round's checks count as operations too
    samples[0] = Sample(samples[0].wall, samples[0].cpu,
                        samples[0].attempted + warm.attempted,
                        samples[0].failed + warm.failed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return statistics.median(imports) + build, samples, rss_mb


def tail(values: list):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def end_to_end(workload: str, seed: int, seconds: float):
    if workload == "suite-all":
        setup, samples, rss = cold_workload(suite_all_unit, seconds)
    elif workload == "emit-all":
        setup, samples, rss = cold_workload(emit_all_unit, seconds)
    else:
        setup, samples, rss = library_warm(seed, seconds)
    walls = [s.wall for s in samples]
    n = len(samples)
    metrics = {
        "setup_s": (setup, 2 * IMPORTS_EACH_SIDE),
        "wall_s": (statistics.median(walls), n),
        "cpu_s": (statistics.median(s.cpu for s in samples), n),
        "peak_rss_mb": (rss, n),
    }
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    t = tail(walls)
    note = (f"wall_s.tail p{t[0]:.1f} = {t[1]:.4f} s (n={n})" if t
            else f"wall_s.tail not reported: n={n}, fewer than 11 samples")
    return metrics, attempted, failed, [note]


def trace_run(seed: int):
    """Per-layer metrics from an untraced and a traced child process."""
    spans = BENCH / "out" / f"spans-seed{seed}.json"
    children = {}
    attempted, failed = 0, 0
    for traced in (0, 1):
        args = [str(BENCH / "layers.py"), "--seed", str(seed), "--traced", str(traced)]
        if traced:
            args += ["--spans", str(spans)]
        _, _, code, out = run_child(args)
        if code != 0:
            raise SystemExit(f"traced={traced} child failed")
        child = json.loads(out.splitlines()[-1])
        children[traced] = child
        attempted += child["attempted"]
        failed += len(child["failed"])
        for label in child["failed"]:
            print(f"FAILED (traced={traced}): {label}", file=sys.stderr)
    bare, traced = children[0]["metrics"], children[1]["metrics"]
    work, traced_work = bare.pop("trace.work_s"), traced.pop("trace.work_s")
    self_sum = traced.pop("trace.self_sum_s")
    metrics = {**bare, **traced}
    metrics["trace.wall_s"] = traced_work
    metrics["trace.overhead_s"] = traced_work - work
    metrics["trace.unaccounted_s"] = traced_work - self_sum
    notes = [f"self times account for {100 * self_sum / traced_work:.2f}% "
             f"of the traced wall time {traced_work:.3f} s; spans in {spans.relative_to(ROOT)}"]
    return {k: (v, 1) for k, v in metrics.items()}, attempted, failed, notes


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cartancr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        revision = proc.stdout.strip() if proc.returncode == 0 else None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_revision": revision, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cartancr benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "cartancr" / "__init__.py", ROOT / "fixtures",
                           ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print(f"not a cartancr checkout, missing: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.workload == "all" and not args.trace:
        # each workload in its own process, so peak memory is its own
        return max(subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds)], cwd=ROOT).returncode for w in WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    print("env: " + json.dumps(environment()))
    if args.trace:
        label, (values, attempted, failed, notes) = "trace", trace_run(args.seed)
    else:
        label = args.workload
        values, attempted, failed, notes = end_to_end(label, args.seed, args.seconds)
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json")
    for name, (value, n) in values.items():
        print(f"{label} {name} = {value:.6g} {units[name]} (n={n})")
    for note in notes:
        print(f"{label} {note}")
    print(f"{label} fail_ratio = {failed}/{attempted} = {failed / attempted:g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, (value, _) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
