"""In-process work of the traced run, with and without span recorders.

Run as a child of `run.py --trace 1`:

    python3 bench/layers.py --seed N --traced 0|1

The work is the in-process counterpart of all three workloads:
`run_suite("all")`, the eight `emit_artifacts`, one library round.
With `--traced 1` the public layer functions are wrapped by span
recorders and the `AlgNum` ring operations by counters, all from this
file; the program itself is not modified.  With `--traced 0` the same
work runs bare and is followed by the per-layer microbenchmarks.  Both
modes check every output and print one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cartancr import cli, cohomology, liealg, linalg, model, structeq  # noqa: E402
from cartancr.numfield import AlgNum  # noqa: E402

import golden  # noqa: E402
import inputs  # noqa: E402
import library  # noqa: E402

LAYERS = ("linalg", "liealg", "cohomology", "structeq", "model", "cli")
SUITES = ("algebra", "killing", "kernels", "torsion",
          "structure-equations", "iz-comparison", "model")
SUITE_FUNCS = dict(zip(SUITES, (
    "_suite_algebra", "_suite_killing", "_suite_kernels", "_suite_torsion",
    "_suite_structure_equations", "_suite_iz_comparison", "_suite_model")))

# (span name, owner, attribute): the layer boundaries that get spans
SPANNED = (
    ("linalg.rref", linalg, "rref"),
    ("liealg.Basis.expand", liealg.Basis, "expand"),
    ("liealg.Basis.structure_constants", liealg.Basis, "structure_constants"),
    ("liealg.commutator", liealg, "commutator"),
    ("liealg.killing_matrix", liealg, "killing_matrix"),
    ("liealg.killing_form", liealg, "killing_form"),
    ("cohomology.codifferential_kernel", cohomology, "codifferential_kernel"),
    ("cohomology.bracket_coords", cohomology, "bracket_coords"),
    ("cohomology.torsion_complement", cohomology, "torsion_complement"),
    ("structeq.load_constraints", structeq, "load_constraints"),
    ("structeq.generate_structure_equations", structeq, "generate_structure_equations"),
    ("structeq.equations_diff", structeq, "equations_diff"),
    ("structeq.verify_iz_change_of_frame", structeq, "verify_iz_change_of_frame"),
    ("structeq.equations_to_json", structeq, "equations_to_json"),
    ("structeq.equations_from_json", structeq, "equations_from_json"),
    ("structeq.equations_to_latex", structeq, "equations_to_latex"),
    ("structeq.constraints_to_json", structeq, "constraints_to_json"),
    ("structeq.constraints_to_latex", structeq, "constraints_to_latex"),
    ("model.membership_model", model, "membership_model"),
    ("model.levi_kernel_distribution_check", model, "levi_kernel_distribution_check"),
    ("model.tangency_defects", model, "tangency_defects"),
)
# AlgNum ring operations get counters only: a span per field operation
# would cost more than the operation
COUNTED = (("add", "__add__"), ("add", "__radd__"), ("mul", "__mul__"),
           ("mul", "__rmul__"), ("inv", "inv"))


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, child seconds]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])

    def _close(self):
        span = self.spans[self.stack.pop()]
        span[2] = time.perf_counter()
        if span[3] is not None:
            self.spans[span[3]][4] += span[2] - span[1]

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def generator_span(self, name, fn):
        # a suite is a generator: its span runs from the first check to the last
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for name, owner, attr in SPANNED:
            patch(owner, attr, self.span(name, owner.__dict__[attr]))
        for suite, attr in SUITE_FUNCS.items():
            patch(cli, attr, self.generator_span(f"cli.suite.{suite}", cli.__dict__[attr]))
        patch(cli, "emit_artifacts", self.span("cli.emit", cli.emit_artifacts))
        for key, attr in COUNTED:
            patch(AlgNum, attr, self.counter(key, AlgNum.__dict__[attr]))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def self_seconds(self) -> dict:
        out = Counter()
        for name, start, end, _, child in self.spans:
            out[name.split(".")[0]] += end - start - child
        return out

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def durations(self, name) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]


def run_work(inp: inputs.LibraryInputs):
    """The in-process counterpart of the three workloads, in the order a
    cold process meets them: structure constants are built by the suites.

    Returns (session, outputs, seconds): seconds holds the wall time of
    the whole block and of each library call, outputs everything the
    checks need."""
    fixtures = ROOT / "fixtures"
    t0 = time.perf_counter()
    report = cli.run_suite("all", fixtures)
    emits = {(kind, fmt): cli.emit_artifacts(kind, fmt, fixtures)
             for kind, fmt in golden.EMITS}
    session = library.Session(ROOT, inp)
    results, seconds = library.run_round(session)
    seconds["work"] = time.perf_counter() - t0
    return session, {"report": report, "emits": emits, "round": results}, seconds


def check_work(session: library.Session, outputs: dict) -> dict:
    ok = {"suite-all": golden.suite_ok(outputs["report"])}
    for (kind, fmt), text in outputs["emits"].items():
        ok[f"emit.{kind}.{fmt}"] = golden.emit_ok(kind, fmt, text)
    ok.update(library.check_round(session, outputs["round"]))
    return ok


def per_call(fn, args_list, min_batch=0.02, batches=5) -> float:
    """Median seconds per call over `batches` batches of at least
    `min_batch` seconds, cycling through args_list."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for i in range(reps):
            fn(*args_list[i % len(args_list)])
        if time.perf_counter() - t0 >= min_batch:
            break
        reps *= 2
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for i in range(reps):
            fn(*args_list[i % len(args_list)])
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def microbench(session: library.Session, seed: int, results: dict, seconds: dict) -> dict:
    """Per-layer timings on seeded inputs, with tracing off."""
    rng = random.Random(seed)
    us = 1e6
    dense = [(inputs.dense_algnum(rng), inputs.dense_algnum(rng)) for _ in range(32)]
    sparse = [(inputs.sparse_algnum(rng), inputs.sparse_algnum(rng)) for _ in range(32)]
    m = {
        "numfield.mul_us.sparse": us * per_call(lambda a, b: a * b, sparse),
        "numfield.mul_us.dense": us * per_call(lambda a, b: a * b, dense),
        "numfield.add_us.sparse": us * per_call(lambda a, b: a + b, sparse),
        "numfield.add_us.dense": us * per_call(lambda a, b: a + b, dense),
        "numfield.inv_us.dense": us * per_call(lambda a, b: a.inv(), dense),
        "numfield.serialize_us": us * per_call(lambda a, b: a.serialize(), dense),
    }
    f = session.bases["f"]
    x = session.inputs.elements[0]
    columns = [[e[i][j] for i in range(5) for j in range(5)] for e in f.elements]
    target = [x[i][j] for i in range(5) for j in range(5)]
    augmented = [[col[r] for col in columns] + [target[r]] for r in range(25)]
    m["linalg.rref_us.25x11"] = us * per_call(linalg.rref, [(augmented,)])
    for d, width in ((1, 4), (2, 8), (3, 10)):
        matrix = results[f"kernel.d{d}"]["matrix"]
        m[f"linalg.rref_us.50x{width}"] = us * per_call(linalg.rref, [(matrix,)])
    for kind, basis in session.bases.items():
        fresh = liealg.Basis(kind, basis.names, basis.elements)
        t0 = time.perf_counter()
        fresh.structure_constants()
        m[f"liealg.structure_constants_s.{kind}"] = time.perf_counter() - t0
    elements = session.inputs.elements
    pairs = list(zip(elements[0::2], elements[1::2]))
    m["liealg.expand_us"] = us * per_call(f.expand, [(e,) for e in elements])
    m["liealg.commutator_us"] = us * per_call(liealg.commutator, pairs)
    m["liealg.killing_matrix_s.f"] = seconds["killing_matrix.f"]
    for d in (1, 2, 3):
        m[f"cohomology.kernel_s.d{d}"] = seconds[f"kernel.d{d}"]
    m["cohomology.torsion_complement_s"] = seconds["torsion_complement"]
    m["structeq.generate_s"] = seconds["generate"]
    m["structeq.negative_control_s"] = seconds["negative_control"]
    m["structeq.iz_s"] = seconds["iz.torsion"] + seconds["iz.control"]
    eqs = results["generate"]
    m["structeq.latex_s"] = per_call(structeq.equations_to_latex, [(eqs,)])
    m["structeq.json_roundtrip_s"] = per_call(
        lambda e: structeq.equations_from_json(structeq.equations_to_json(e)), [(eqs,)])
    m["model.levi_check_s"] = seconds["levi"]
    m["model.tangency_s"] = seconds["tangency"]
    m["model.membership_us"] = us * per_call(
        model.membership_model, [(p,) for p in session.inputs.points])
    return m


def traced_metrics(tracer: Tracer) -> dict:
    m = {f"numfield.{k}_count": tracer.counts[k] for k in ("mul", "add", "inv")}
    m["linalg.rref_calls"] = tracer.calls("linalg.rref")
    m["liealg.expand_calls"] = tracer.calls("liealg.Basis.expand")
    m["cohomology.kernel_calls"] = tracer.calls("cohomology.codifferential_kernel")
    m["cohomology.bracket_coords_calls"] = tracer.calls("cohomology.bracket_coords")
    m["structeq.generate_calls"] = tracer.calls("structeq.generate_structure_equations")
    self_s = tracer.self_seconds()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    for suite in SUITES:
        m[f"cli.suite_s.{suite}"] = sum(tracer.durations(f"cli.suite.{suite}"))
    for (kind, fmt), seconds in zip(golden.EMITS, tracer.durations("cli.emit")):
        m[f"cli.emit_s.{kind}.{fmt}"] = seconds
    m["trace.self_sum_s"] = sum(self_s.values())
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, help="write the spans here as JSON")
    args = parser.parse_args(argv)

    inp = inputs.generate(args.seed)
    tracer = Tracer()
    if args.traced:
        with tracer.installed():
            session, outputs, seconds = run_work(inp)
    else:
        session, outputs, seconds = run_work(inp)
    ok = check_work(session, outputs)
    if args.traced:
        metrics = traced_metrics(tracer)
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(tracer.spans))
    else:
        metrics = microbench(session, args.seed, outputs["round"], seconds)
    metrics["trace.work_s"] = seconds["work"]
    failed = sorted(k for k, v in ok.items() if not v)
    print(json.dumps({"attempted": len(ok), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
