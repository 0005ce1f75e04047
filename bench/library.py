"""The library-warm round: public calls made from a session whose bases
are already built.

A round first makes every call, timing each, and only then checks the
results, so the checks never count in a round's time.  Every check is an
identity independent of the call it checks.  Functions are looked up on
their modules at call time, so span wrappers installed by `layers.py`
see these calls.
"""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path

from cartancr import cohomology, liealg, linalg, model, structeq
from cartancr.numfield import AlgNum, ZERO, I

import inputs

KINDS = ("standard", "cr", "f")
# kernel dims computed by this program (criterion 3 deviation included)
KERNEL_DIMS = {1: 0, 2: 1, 3: 6}
NEGATIVE_CONTROL_SLOTS = 41
TORSION_WITNESSES = {
    "c1_of_B3": AlgNum.of(-1),
    "c1_of_B4": -I,
    "c2_of_B1": AlgNum.i(Fraction(-1, 2)),
    "c3_of_B2": AlgNum.of(Fraction(-1, 2)),
}


class Session:
    """Bases with their structure constants, the fixtures and the seeded
    inputs: everything a round needs before it starts."""

    def __init__(self, root: Path, inp: inputs.LibraryInputs):
        self.bases = {k: liealg.build_basis(k) for k in KINDS}
        for basis in self.bases.values():
            basis.structure_constants()
        fixtures = root / "fixtures"
        self.table = structeq.load_constraints((fixtures / "constraints.json").read_text())
        self.want = structeq.equations_from_json(
            (fixtures / "structure_equations.json").read_text(), derive_conjugates=True)
        self.inputs = inp


def negative_control(table, want) -> list:
    """Primal constraints whose removal leaves the system unchanged."""
    return [slot for slot in table.primal_slots()
            if not structeq.equations_diff(
                structeq.generate_structure_equations(table.without(slot)), want)]


def run_round(s: Session) -> tuple[dict, dict]:
    """Make every call of one round; return (results, seconds) by label."""
    results, seconds = {}, {}

    def call(label, fn, *args):
        t0 = time.perf_counter()
        results[label] = fn(*args)
        seconds[label] = time.perf_counter() - t0

    inp = s.inputs
    for d in (1, 2, 3):
        call(f"kernel.d{d}", cohomology.codifferential_kernel, d)
    call("torsion_complement", cohomology.torsion_complement)
    for k in KINDS:
        call(f"killing_matrix.{k}", liealg.killing_matrix, s.bases[k])
    for p in range(inputs.KILLING_PAIRS):
        call(f"killing_form.{p}", liealg.killing_form,
             inp.elements[2 * p], inp.elements[2 * p + 1])
    for e in range(inputs.EXPANDS):
        call(f"expand.{e}", s.bases["f"].expand, inp.elements[2 * inputs.KILLING_PAIRS + e])
    call("generate", structeq.generate_structure_equations, s.table)
    call("negative_control", negative_control, s.table, s.want)
    call("iz.torsion", structeq.verify_iz_change_of_frame, True)
    call("iz.control", structeq.verify_iz_change_of_frame, False)
    call("levi", model.levi_kernel_distribution_check, inp.triples)
    for p, point in enumerate(inp.points):
        call(f"membership.{p}", model.membership_model, point)
    t0 = time.perf_counter()
    results["tangency"] = [model.tangency_defects(x, p)
                           for x in s.bases["standard"].elements for p in inp.points]
    seconds["tangency"] = time.perf_counter() - t0
    return results, seconds


def _trace3(x, y) -> AlgNum:
    prod = linalg.mat_mul(x, y)
    return AlgNum.of(3) * sum((prod[k][k] for k in range(5)), ZERO)


def _zero(v) -> bool:
    return all(c.is_zero() for c in v)


def _iz_control_ok(res) -> bool:
    expected = {(0, 3): -structeq.PolyCoeff.symbol(structeq.T_SYMBOL),
                (0, 4): -structeq.PolyCoeff.symbol(structeq.S_SYMBOL)}
    return res["residual_11"].is_zero() and res["residual_12"].terms == expected


def check_round(s: Session, results: dict) -> dict:
    """label -> bool, one entry per checked operation of the round."""
    inp = s.inputs
    ok = {}
    for d in (1, 2, 3):
        r = results[f"kernel.d{d}"]
        ok[f"kernel.d{d}"] = (r["dim"] == KERNEL_DIMS[d] == len(r["kernel_raw"])
                              and all(_zero(linalg.mat_vec(r["matrix"], v))
                                      for v in r["kernel_raw"]))
    tc = results["torsion_complement"]
    ok["torsion_complement"] = (tc["rank"] == 4 and tc["complement_dim"] == 0
                                and all(tc["witnesses"][k] == v
                                        for k, v in TORSION_WITNESSES.items()))
    for k in KINDS:
        km, els = results[f"killing_matrix.{k}"], s.bases[k].elements
        ok[f"killing_matrix.{k}"] = all(
            km[i][j] == km[j][i] == _trace3(els[i], els[j])
            for i in range(liealg.DIM) for j in range(i, liealg.DIM))
    for p in range(inputs.KILLING_PAIRS):
        x, y = inp.elements[2 * p], inp.elements[2 * p + 1]
        ok[f"killing_form.{p}"] = results[f"killing_form.{p}"] == _trace3(x, y)
    for e in range(inputs.EXPANDS):
        ok[f"expand.{e}"] = (results[f"expand.{e}"]
                             == inp.coeffs[2 * inputs.KILLING_PAIRS + e])
    ok["generate"] = not structeq.equations_diff(results["generate"], s.want)
    ok["negative_control"] = (not results["negative_control"]
                              and len(s.table.primal_slots()) == NEGATIVE_CONTROL_SLOTS)
    iz = results["iz.torsion"]
    ok["iz.torsion"] = iz["residual_11"].is_zero() and iz["residual_12"].is_zero()
    ok["iz.control"] = _iz_control_ok(results["iz.control"])
    levi = results["levi"]
    ok["levi"] = (set(levi) == set(inp.triples)
                  and all(r["kernel_dim"] == 1 and r["kernel_is_radial"]
                          for r in levi.values()))
    for p in range(len(inp.points)):
        ok[f"membership.{p}"] = results[f"membership.{p}"]["member"] is True
    ok["tangency"] = all(a.is_zero() and b.is_zero() for a, b in results["tangency"])
    return ok
