"""Command line interface: verification suites and artifact emission.

Every check is exact; the report is deterministic (no timestamps, sorted
check ids) so repeated runs are byte identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from . import liealg, linalg
from .numfield import AlgNum, ZERO, ONE, I, HALF, algnum_latex

SCHEMA = 1

SUITES = ("algebra", "killing", "kernels", "torsion",
          "structure-equations", "iz-comparison", "model", "all")
EMITS = ("structure-equations", "constraints", "bases", "killing-matrix")
_FORMATS = ("latex", "json")

# closed-form values of the tracked boundary components
TORSION_WITNESSES = {"c1_of_B3": -ONE, "c1_of_B4": -I,
                     "c2_of_B1": -HALF * I, "c3_of_B2": -HALF}


# the fixtures ship inside the package; --fixtures overrides them
_FIXTURES = Path(__file__).with_name("fixtures")


# ---------------------------------------------------------------------------
# suites: each yields (check id, passed, detail); cohomology, structeq and
# model are imported where they are used, so an --emit process loads neither
# cohomology nor model, and a bases or killing-matrix emit no structeq

def _suite_algebra():
    for kind in ("standard", "cr", "f"):
        basis = liealg.build_basis(kind)
        ok = all(liealg.membership_so32(e) for e in basis.elements)
        yield (f"algebra.membership.{kind}", ok, "all 10 matrices satisfy the form identity")
    grading = liealg.grading_decomposition()
    yield ("algebra.grading.dims", grading["dims"] == {-2: 1, -1: 2, 0: 4, 1: 2, 2: 1},
           f"dims {grading['dims']}")
    f = liealg.build_basis("f")
    deg = liealg.DEGREES
    # sc[(p, q)] holds the nonzero coordinates (e, t) of [f_p, f_q]
    sc = f.structure_constants()
    ok = all(deg[k] == deg[i] + deg[j]
             for (i, j), terms in sc.items() for k, _ in terms)
    yield ("algebra.grading.pairs", ok, "brackets respect the degree grading")

    def jacobiator(a, b, c):
        # [[f_a, f_b], f_c] + cyclic, from the nonzero constants alone
        acc = [ZERO] * 10
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            for e, t in sc.get((p, q), ()):
                for k, y in sc.get((e, r), ()):
                    acc[k] = acc[k] + t * y
        return acc
    ok = all(x.is_zero() for a, b, c in itertools.combinations(range(10), 3)
             for x in jacobiator(a, b, c))
    yield ("algebra.jacobi", ok, "Jacobi identity over all 120 basis triples")
    cr = liealg.build_basis("cr")
    ok = all(linalg.mat_conj(cr.elements[i]) == cr.elements[liealg.CR_CONJ[i]]
             for i in range(10))
    yield ("algebra.reality", ok, "conjugation permutes the cr basis as expected")
    ok = all(k >= 5 for (i, j), terms in cr.structure_constants().items()
             if i >= 5 and j >= 5 for k, _ in terms)
    yield ("algebra.subalgebra", ok, "the non-negative part closes under brackets")


def _suite_killing():
    f = liealg.build_basis("f")
    km = liealg.killing_matrix(f)
    ok = True
    for i in range(10):
        for j in range(10):
            if km[i][j] != AlgNum.of(liealg.EPS[i] if j == liealg.SIGMA[i] else 0):
                ok = False
    yield ("killing.matrix", ok, "all 100 entries match the signed permutation form")
    ok = True
    for i in range(10):
        for j in range(i, 10):
            prod = linalg.mat_mul(f.elements[i], f.elements[j])
            tr = sum((prod[k][k] for k in range(5)), ZERO)
            if km[i][j] != AlgNum.of(3) * tr:
                ok = False
    yield ("killing.trace-identity", ok, "K(x, y) = 3 tr(xy) on all basis pairs")
    ok = True
    for a in range(10):
        for b in range(10):
            want = AlgNum.of(1 if a == b else 0)
            if AlgNum.of(liealg.EPS[a]) * km[liealg.SIGMA[a]][b] != want:
                ok = False
    yield ("killing.hat-pairing", ok, "eps_a K(hat f_a, f_b) = delta_ab")


def _suite_kernels():
    from . import cohomology
    kernels = {d: cohomology.codifferential_kernel(d) for d in (1, 2, 3)}
    dims = {d: k["dim"] for d, k in kernels.items()}
    yield ("kernels.dims", dims == {1: 0, 2: 1, 3: 6},
           f"computed kernel dimensions by shifting degree: {dims}")
    yield ("kernels.degree1.columns", cohomology.degree1_columns_check(),
           "pairing columns match the displayed closed forms")
    chk = cohomology.degree2_system_check()
    yield ("kernels.degree2.printed-system", chk["match"],
           "assembled rows reproduce the displayed 8x8 system exactly")
    ok = all(all(r.is_zero() for r in cohomology.degree3_reduced_residuals(v))
             for v in kernels[3]["kernel"])
    yield ("kernels.degree3.reduced-relations", ok,
           "all kernel vectors satisfy the four reduced relations")
    ok = all(cohomology.kernel_to_cr_components(v).relations_hold()
             for v in kernels[3]["kernel"])
    yield ("kernels.degree3.component-relations", ok,
           "converted components satisfy both linear relations and conjugates")


def _suite_torsion():
    from . import cohomology
    tc = cohomology.torsion_complement()
    yield ("torsion.rank", tc["rank"] == 4,
           f"boundary images span rank {tc['rank']} of 4")
    yield ("torsion.complement", tc["complement_dim"] == 0,
           "orthogonal complement of the image is zero")
    w = tc["witnesses"]
    ok = all(w[k] == v for k, v in TORSION_WITNESSES.items())
    yield ("torsion.witnesses", ok,
           "tracked boundary components take their closed-form values")


class _FixtureError(ValueError):
    """The one ValueError that main reports as a malformed fixture."""


def _fixture(fixtures: Path, name: str, parse):
    """parse(text) of the fixture file `name`; a fixture that does not
    decode or parse raises a ValueError naming the file."""
    path = fixtures / name
    try:
        return parse(path.read_text())
    except ValueError as exc:
        raise _FixtureError(f"{path}: {exc}") from exc


def _suite_structure_equations(fixtures: Path):
    from . import structeq
    table = _fixture(fixtures, "constraints.json", structeq.load_constraints)
    want = _fixture(fixtures, "structure_equations.json",
                    lambda text: structeq.equations_from_json(text, derive_conjugates=True))
    got = structeq.generate_structure_equations(table)
    diff = structeq.equations_diff(got, want)
    yield ("structeq.fixture-match", not diff,
           "empty symbolic diff against the stored system" if not diff
           else "; ".join(diff[:4]))
    counts = [len(e.rhs) for e in sorted(got, key=lambda e: e.generator)]
    yield ("structeq.term-counts", counts == [0, 2, 2, 6, 6, 7, 7, 10, 10, 10],
           f"curvature terms per equation: {counts}")
    undetected = []
    for slot in table.primal_slots():
        weak = table.without(slot)
        if not structeq.equations_diff(structeq.generate_structure_equations(weak), want):
            undetected.append(slot)
    yield ("structeq.negative-control", not undetected,
           f"removal of any of the {len(table.primal_slots())} primal constraints "
           "changes the system" if not undetected else "removal leaves the system "
           "unchanged for " + ", ".join(map(structeq.symbol_name, undetected)))
    by_gen = {e.generator: e for e in got}
    ok = all(not structeq.equations_diff([by_gen[g].conjugate()],
                                         [by_gen[structeq.CONJ_GEN[g]]])
             for g in range(10))
    yield ("structeq.reality-involution", ok,
           "conjugating any equation yields the equation of the conjugate generator")
    back = structeq.equations_from_json(structeq.equations_to_json(got))
    yield ("structeq.json-roundtrip", not structeq.equations_diff(back, got),
           "serialization round trip is exact")


def _suite_iz_comparison():
    from . import structeq
    res = structeq.verify_iz_change_of_frame(include_torsion=True)
    yield ("iz.residual-11", res["residual_11"].is_zero(),
           "first identity residual vanishes")
    yield ("iz.residual-12", res["residual_12"].is_zero(),
           "second identity residual vanishes")
    ctrl = structeq.verify_iz_change_of_frame(include_torsion=False)
    expected = {(0, 3): -structeq.PolyCoeff.symbol(structeq.T_SYMBOL),
                (0, 4): -structeq.PolyCoeff.symbol(structeq.S_SYMBOL)}
    ok = (not ctrl["residual_12"].is_zero()
          and ctrl["residual_12"].terms == expected
          and ctrl["residual_11"].is_zero())
    yield ("iz.negative-control", ok,
           "dropping the torsion terms leaves exactly those terms as residual")


def _suite_model():
    from . import model
    verdicts = [
        ((ONE, I, ZERO, ONE, -I), True),
        ((ONE, ZERO, ZERO, ZERO, ZERO), False),
        ((ONE, I, ZERO, ONE, I), False),
    ]
    ok = all(model.membership_model(p)["member"] is v for p, v in verdicts)
    yield ("model.membership", ok, "three projective verdicts are exact")
    chk = model.levi_kernel_distribution_check()
    ok = all(r["kernel_dim"] == 1 and r["kernel_is_radial"] for r in chk.values())
    yield ("model.levi-kernel", ok,
           "Levi kernel is the radial complex line at every sample point")
    std = liealg.build_basis("standard")
    members = [(ONE, I, ZERO, ONE, -I), (ONE, -I, ZERO, ONE, -I),
               (ZERO, ONE, I, ONE, -I)]
    zeros = 0
    for x in std.elements:
        for p in members:
            d1, d2 = model.tangency_defects(x, p)
            if d1.is_zero() and d2.is_zero():
                zeros += 2
    yield ("model.tangency", zeros == 60,
           f"{zeros} of 60 flow derivatives vanish exactly")


def run_suite(name: str, fixtures: Path) -> dict:
    """The report of one suite of SUITES, else ValueError."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    gens = {
        "algebra": _suite_algebra,
        "killing": _suite_killing,
        "kernels": _suite_kernels,
        "torsion": _suite_torsion,
        "structure-equations": lambda: _suite_structure_equations(fixtures),
        "iz-comparison": _suite_iz_comparison,
        "model": _suite_model,
    }
    names = list(gens) if name == "all" else [name]
    checks = []
    for n in names:
        for cid, passed, detail in gens[n]():
            checks.append({"id": cid, "passed": bool(passed), "detail": detail})
    checks.sort(key=lambda c: c["id"])
    return {
        "schema": SCHEMA,
        "suite": name,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "counts": {
            "total": len(checks),
            "failed": sum(1 for c in checks if not c["passed"]),
        },
    }


# ---------------------------------------------------------------------------
# emission

def _matrix_latex(m) -> str:
    rows = [" & ".join(algnum_latex(x) for x in row) for row in m]
    return "\\begin{pmatrix}\n" + " \\\\\n".join(rows) + "\n\\end{pmatrix}\n"


def _matrix_json(m):
    return [[x.serialize() for x in row] for row in m]


def emit_artifacts(kind: str, fmt: str, fixtures: Path) -> str:
    """The artifact `kind` of EMITS in a format of _FORMATS, else ValueError."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if kind in ("structure-equations", "constraints"):
        from . import structeq
        table = _fixture(fixtures, "constraints.json", structeq.load_constraints)
        if kind == "constraints":
            return (structeq.constraints_to_latex(table) if fmt == "latex"
                    else structeq.constraints_to_json(table))
        eqs = structeq.generate_structure_equations(table)
        return (structeq.equations_to_latex(eqs) if fmt == "latex"
                else structeq.equations_to_json(eqs))
    if kind == "bases":
        if fmt == "json":
            data = {kind_: [_matrix_json(e) for e in liealg.build_basis(kind_).elements]
                    for kind_ in ("standard", "cr", "f")}
            return json.dumps(data, indent=2)
        blocks = []
        for kind_ in ("standard", "cr", "f"):
            basis = liealg.build_basis(kind_)
            for name, el in zip(basis.names, basis.elements):
                blocks.append(f"% {kind_}: {name}\n" + _matrix_latex(el))
        return "\n".join(blocks)
    if kind == "killing-matrix":
        km = liealg.killing_matrix(liealg.build_basis("f"))
        return (_matrix_latex(km) if fmt == "latex"
                else json.dumps(_matrix_json(km), indent=2))
    raise ValueError(f"unknown emit kind {kind!r}")


def _report_text(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, indent=2, sort_keys=True)
    lines = [f"suite: {report['suite']}"]
    for c in report["checks"]:
        mark = "pass" if c["passed"] else "FAIL"
        lines.append(f"  [{mark}] {c['id']}: {c['detail']}")
    lines.append(f"{report['counts']['total'] - report['counts']['failed']}"
                 f"/{report['counts']['total']} checks passed")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cartancr",
        description="exact verification suites for the girdled CR model algebra")
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--suite", choices=SUITES,
                        help="run a verification suite (default: all)")
    action.add_argument("--emit", choices=EMITS, help="emit an artifact instead")
    parser.add_argument("--format", choices=_FORMATS,
                        help="artifact format for --emit (default: latex)")
    parser.add_argument("--out", type=Path, help="write output to a file")
    parser.add_argument("--json", action="store_true",
                        help="machine readable report")
    parser.add_argument("--fixtures", type=Path, default=None,
                        help="fixture directory (default: the packaged fixtures)")
    args = parser.parse_args(argv)
    # a format flag the chosen action would ignore is a usage error
    if args.json if args.emit else args.format:
        parser.error("--json goes with a suite, --format with --emit")

    fixtures = args.fixtures or _FIXTURES

    try:
        if args.emit:
            out, passed = emit_artifacts(args.emit, args.format or "latex", fixtures), True
        else:
            report = run_suite(args.suite or "all", fixtures)
            out, passed = _report_text(report, args.json), report["passed"]
    except OSError as exc:
        # a missing fixture, a file given as the --fixtures directory or a
        # directory where a fixture file should be
        print(f"cartancr: cannot read fixture {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except _FixtureError as exc:
        # a fixture that is not JSON or names a slot outside the algebra,
        # named by _fixture; exit 1 is kept for "a check failed"
        print(f"cartancr: malformed fixture {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            args.out.write_text(out)
        except OSError as exc:
            # a missing directory or a directory given as the file
            print(f"cartancr: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
