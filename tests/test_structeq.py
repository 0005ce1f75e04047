"""Symbolic forms, structure equations, constraints, serialization, frame change."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cartancr import cli
from cartancr.forms import CONJ_GEN, Form, PolyCoeff, conj_slot
from cartancr.structeq import (GENERATOR_LATEX, GENERATOR_NAMES,
                               S_SYMBOL, T_SYMBOL, THETA_PAIRS, ConstraintTable,
                               Equation, _term_latex,
                               constraints_to_json, constraints_to_latex,
                               equations_diff, equations_from_json,
                               equations_to_json, equations_to_latex,
                               generate_structure_equations, load_constraints,
                               maurer_cartan_forms, verify_iz_change_of_frame)
from cartancr.numfield import AlgNum, ZERO, ONE, I, HALF, SQRT2, algnum_latex

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

MI2 = AlgNum.i(Fraction(-1, 2))
PI2 = AlgNum.i(Fraction(1, 2))

# the full Maurer-Cartan table, {pair: coefficient} per generator
MC_TABLE = {
    0: {(0, 5): -ONE, (0, 6): -ONE, (1, 2): MI2},
    1: {(0, 7): I, (1, 5): -ONE, (2, 3): -ONE},
    2: {(0, 8): -I, (1, 4): -ONE, (2, 6): -ONE},
    3: {(1, 7): HALF, (3, 5): -ONE, (3, 6): ONE},
    4: {(2, 8): HALF, (4, 5): ONE, (4, 6): -ONE},
    5: {(0, 9): ONE, (1, 8): HALF, (3, 4): ONE},
    6: {(0, 9): ONE, (2, 7): HALF, (3, 4): -ONE},
    7: {(1, 9): I, (3, 8): -ONE, (6, 7): -ONE},
    8: {(2, 9): -I, (4, 7): -ONE, (5, 8): -ONE},
    9: {(5, 9): -ONE, (6, 9): -ONE, (7, 8): PI2},
}


def _load_table() -> ConstraintTable:
    return load_constraints((FIXTURES / "constraints.json").read_text())


def _state(table, slot):
    # None if the slot is free, else its kind: "zero" or "relation"
    e = table.entries.get(slot)
    return None if e is None else e["kind"]


def _load_reference():
    return equations_from_json(
        (FIXTURES / "structure_equations.json").read_text(),
        derive_conjugates=True)


def test_maurer_cartan_forms_frozen():
    rules = maurer_cartan_forms()
    for a in range(10):
        want = {pair: PolyCoeff.const(c) for pair, c in MC_TABLE[a].items()}
        assert rules[a].terms == want, GENERATOR_NAMES[a]


def _mc_table_holds(rules) -> bool:
    return all(rules[a].terms == {pair: PolyCoeff.const(c) for pair, c in MC_TABLE[a].items()}
               for a in range(10))


def test_shared_maurer_cartan_forms_survive_every_caller():
    # the forms are built once and shared; every caller in the package
    # must leave them as they were
    shared = maurer_cartan_forms()
    cli.run_suite("all", FIXTURES)
    for kind in cli.EMITS:
        for fmt in ("latex", "json"):
            cli.emit_artifacts(kind, fmt, FIXTURES)
    verify_iz_change_of_frame(True)
    verify_iz_change_of_frame(False)
    rules = maurer_cartan_forms()
    assert _mc_table_holds(rules)
    assert all(rules[a] is shared[a] for a in range(10))


def test_maurer_cartan_forms_returns_a_fresh_dict():
    rules = maurer_cartan_forms()
    rules[1] = rules[1] + Form({(0, 3): PolyCoeff.symbol(T_SYMBOL)})
    rules[17] = Form()
    del rules[9]
    again = maurer_cartan_forms()
    assert again is not rules
    assert sorted(again) == list(range(10))
    assert _mc_table_holds(again)


def test_wedge_antisymmetry():
    t = PolyCoeff.symbol(T_SYMBOL)
    a = Form({(0,): PolyCoeff.const(ONE), (3,): t})
    b = Form({(1,): PolyCoeff.const(I), (4,): t * AlgNum.of(2)})
    assert (a.wedge(b) + b.wedge(a)).is_zero()
    assert a.wedge(a).is_zero()
    # th^3 ^ th^1 is stored as -th^1 ^ th^3; a 2-form commutes with a 1-form
    ab = a.wedge(b)
    assert ab.terms[(1, 3)] == -(t * I)
    c = Form({(2,): PolyCoeff.const(HALF), (5,): t})
    assert ab.wedge(c) == c.wedge(ab) and not ab.wedge(c).is_zero()
    assert ab.wedge(b).is_zero()


def test_constructors_put_every_key_in_canonical_order():
    c = PolyCoeff.symbol(T_SYMBOL, I)
    # th^3 ^ th^0 = -th^0 ^ th^3, and th^1 ^ th^1 = 0
    assert Form({(3, 0): c}) == Form({(0, 3): -c})
    assert Form({(1, 1): c}).is_zero()
    assert Form({(4, 2, 0): c}).terms == {(0, 2, 4): -c}
    # symbols commute: two spellings of one monomial add up
    two = PolyCoeff({(T_SYMBOL, S_SYMBOL): ONE, (S_SYMBOL, T_SYMBOL): ONE})
    assert two == PolyCoeff.symbol(T_SYMBOL) * PolyCoeff.symbol(S_SYMBOL, AlgNum.of(2))
    assert PolyCoeff({(T_SYMBOL, S_SYMBOL): ONE, (S_SYMBOL, T_SYMBOL): -ONE}).is_zero()


def test_polycoeff_and_form_share_one_sparse_sum_implementation():
    shared = {"__init__", "add", "is_zero", "__eq__", "__add__", "__neg__",
              "__sub__", "__mul__", "conj"}
    for cls in (PolyCoeff, Form):
        assert not shared & set(vars(cls)), cls.__name__
        assert all(callable(getattr(cls, name)) for name in shared)


def test_curvature_symbol_conjugation():
    assert conj_slot(T_SYMBOL) == (1, (2, (0, 4)))
    # conjugating legs (1, 2) swaps them, picking up a sign
    sign, key = conj_slot((5, (1, 2)))
    assert sign == -1 and key == (6, (1, 2))
    assert conj_slot(key) == (-1, (5, (1, 2)))


def test_polycoeff_conjugation_involution():
    t = PolyCoeff.symbol(T_SYMBOL, I * HALF)
    p = t * t + PolyCoeff.const(AlgNum.sqrt2()) * PolyCoeff.symbol(S_SYMBOL)
    assert p.conj().conj() == p


def test_constraint_table_loads():
    table = _load_table()
    assert len(table.entries) == 44
    kinds = [e["kind"] for e in table.entries.values()]
    assert kinds.count("zero") == 40
    assert kinds.count("relation") == 4
    assert len(table.primal_slots()) == 41


def test_constraint_conjugation_closure():
    table = ConstraintTable()
    table.add_zero((1, (0, 3)), "test")
    # the conjugate slot appears automatically, marked derived
    assert _state(table, (2, (0, 4))) == "zero"
    assert table.entries[(2, (0, 4))]["primal"] == (1, (0, 3))
    # listing the mate explicitly promotes it to primal
    table.add_zero((2, (0, 4)), "test")
    assert table.entries[(2, (0, 4))]["primal"] is None


def test_constraint_conflicts_raise():
    table = ConstraintTable()
    table.add_zero((1, (0, 3)), "test")
    with pytest.raises(ValueError):
        table.add_relation((1, (0, 3)), PolyCoeff.const(ONE), "test")
    table2 = ConstraintTable()
    table2.add_relation((5, (0, 1)), PolyCoeff.const(ONE), "test")
    with pytest.raises(ValueError):
        table2.add_relation((5, (0, 1)), PolyCoeff.const(ONE), "again")


def test_without_drops_derived_copies():
    table = ConstraintTable()
    table.add_zero((1, (0, 3)), "test")
    reduced = table.without((1, (0, 3)))
    assert _state(reduced, (1, (0, 3))) is None
    assert _state(reduced, (2, (0, 4))) is None


def test_without_refuses_a_slot_that_is_not_primal():
    # dropping a derived slot alone would keep its primal mate and leave the
    # copy not closed under conjugation; dropping a free slot would be a no-op
    table = _load_table()
    derived, free = (2, (1, 2)), (0, (0, 5))
    assert _state(table, derived) == "zero" and derived not in table.primal_slots()
    assert _state(table, free) is None
    for slot in (derived, free):
        with pytest.raises(ValueError, match="not a primal constraint"):
            table.without(slot)


def test_without_copy_and_original_stay_independent():
    # the copy shares entries with the original, so adding to either one
    # (a new provenance tag, a derived entry promoted to primal) must leave
    # the other as it was
    table = ConstraintTable()
    table.add_zero((1, (0, 3)), "a")
    table.add_zero((5, (0, 1)), "b")
    original = constraints_to_json(table)
    weak = table.without((5, (0, 1)))
    weak.add_zero((1, (0, 3)), "c")
    weak.add_zero((2, (0, 4)), "d")
    assert constraints_to_json(table) == original
    copy = constraints_to_json(weak)
    assert '"c"' in copy and '"d"' in copy and "derived_from" not in copy
    table.add_zero((1, (0, 3)), "e")
    table.add_zero((2, (0, 4)), "f")
    assert constraints_to_json(weak) == copy
    assert table.entries[(1, (0, 3))]["provenance"] == ["a", "e"]
    assert table.primal_slots() == [(1, (0, 3)), (2, (0, 4)), (5, (0, 1))]
    # a promoted mate is primal, so removing its partner keeps it
    assert _state(table.without((1, (0, 3))), (2, (0, 4))) == "zero"


def test_curvature_term_counts():
    got = generate_structure_equations(_load_table())
    counts = [len(e.rhs) for e in sorted(got, key=lambda e: e.generator)]
    assert counts == [0, 2, 2, 6, 6, 7, 7, 10, 10, 10]


def _generated_slot_by_slot(table):
    # the reference: every (generator, theta pair) slot looked up in turn
    rules = maurer_cartan_forms()
    out = []
    for a in range(10):
        rhs = {}
        for pair in THETA_PAIRS:
            state = _state(table, (a, pair))
            if state != "zero":
                rhs[pair] = state is not None
        out.append(Equation(a, rules[a], rhs))
    return out


def test_generation_matches_the_slot_by_slot_reference():
    # one pass over the table entries gives the same equations, pair order
    # included, on the fixture table, each of its 41 weaker tables and the
    # empty table
    table = _load_table()
    tables = [table, ConstraintTable()] + [table.without(s) for s in table.primal_slots()]
    assert len(tables) == 43
    for t in tables:
        got, want = generate_structure_equations(t), _generated_slot_by_slot(t)
        assert [(e.generator, list(e.rhs.items())) for e in got] == \
            [(e.generator, list(e.rhs.items())) for e in want]
        assert all(g.mc is w.mc for g, w in zip(got, want))
        assert equations_to_json(got) == equations_to_json(want)


def test_unconstrained_system_differs():
    got = generate_structure_equations(ConstraintTable())
    assert all(len(e.rhs) == len(THETA_PAIRS) for e in got)
    assert equations_diff(got, _load_reference())


def _with(eqs, g, mc=None, rhs=None):
    """A copy of the system with equation g's mc or rhs replaced."""
    return [Equation(e.generator, mc if e.generator == g and mc is not None else e.mc,
                     dict(rhs if e.generator == g and rhs is not None else e.rhs))
            for e in eqs]


def test_equations_diff_reports_each_kind_of_difference():
    got = generate_structure_equations(_load_table())
    assert equations_diff(got, _with(got, 0)) == []
    # rhs equal, mc different: only the mc term is reported
    mc = got[3].mc + Form({(1, 7): PolyCoeff.const(ONE)})
    assert equations_diff(got, _with(got, 3, mc=mc)) == [
        "gen 3: mc term (1, 7) differs by (-1)"]
    # one flag different
    rhs = dict(got[5].rhs)
    pair = sorted(rhs)[2]
    rhs[pair] = not rhs[pair]
    assert equations_diff(got, _with(got, 5, rhs=rhs)) == [
        f"gen 5: flag mismatch at {pair}"]
    # one pair missing from got, then present only in got
    rhs = dict(got[7].rhs)
    pair = sorted(rhs)[0]
    del rhs[pair]
    short = _with(got, 7, rhs=rhs)
    assert equations_diff(short, got) == [f"gen 7: missing term at {pair}"]
    assert equations_diff(got, short) == [f"gen 7: extra term at {pair}"]


def test_parsed_maurer_cartan_parts_are_the_shared_forms():
    shared = maurer_cartan_forms()
    # the fixture stores six equations; the four derived conjugates share too
    assert all(eq.mc is shared[eq.generator] for eq in _load_reference())
    got = generate_structure_equations(_load_table())
    back = equations_from_json(equations_to_json(got))
    assert all(eq.mc is shared[eq.generator] for eq in back)
    # a perturbed mc part stays its own form, and the diff reports it as before
    mc = got[3].mc + Form({(1, 7): PolyCoeff.const(ONE)})
    back = equations_from_json(equations_to_json(_with(got, 3, mc=mc)))
    assert back[3].mc is not shared[3] and back[3].mc == mc
    assert all(eq.mc is shared[eq.generator] for eq in back if eq.generator != 3)
    assert equations_diff(got, back) == ["gen 3: mc term (1, 7) differs by (-1)"]


def test_equations_diff_reports_an_unexpected_and_a_missing_generator():
    got = generate_structure_equations(_load_table())
    assert equations_diff(got, got[:9]) == ["unexpected equation for generator 9"]
    assert equations_diff(got[1:], got) == ["missing equation for generator 0"]


def test_a_form_times_zero_is_empty():
    f = Form({(0,): PolyCoeff.const(ONE), (1, 2): PolyCoeff.symbol(T_SYMBOL)})
    assert (f * ZERO).terms == {} and (f * ZERO).is_zero()


def test_a_two_term_coefficient_is_bracketed():
    assert _term_latex(ONE + I, "x") == r" + \left(1+i\right)x"
    assert _term_latex(-ONE - I, "x") == r" + \left(-1-i\right)x"
    assert _term_latex(-I, "x") == " - ix"


def test_reality_involution():
    got = {e.generator: e for e in generate_structure_equations(_load_table())}
    for g in range(10):
        conj = got[g].conjugate()
        assert equations_diff([conj], [got[CONJ_GEN[g]]]) == []
    # generators 0 and 9 are self conjugate
    assert CONJ_GEN[0] == 0 and CONJ_GEN[9] == 9


def test_json_roundtrip():
    got = generate_structure_equations(_load_table())
    back = equations_from_json(equations_to_json(got))
    assert equations_diff(back, got) == []


def test_reference_file_stores_only_independent_equations():
    data = json.loads((FIXTURES / "structure_equations.json").read_text())
    gens = [e["generator"] for e in data["equations"]]
    assert gens == [0, 1, 3, 5, 7, 9]
    assert data["generators"] == list(GENERATOR_NAMES)
    # conjugation closure recovers all ten
    assert len(_load_reference()) == 10


def test_constraints_json_dump_reflects_table():
    # the emitted dump is flat (one item per slot), unlike the grouped
    # fixture format it was loaded from
    table = _load_table()
    data = json.loads(constraints_to_json(table))
    items = {tuple(it["slot"]): it for it in data["slots"]}
    assert len(items) == len(table.entries)
    for slot, e in table.entries.items():
        it = items[(slot[0], slot[1][0], slot[1][1])]
        assert it["kind"] == e["kind"]
        if e["primal"] is not None:
            p = e["primal"]
            assert it["derived_from"] == [p[0], p[1][0], p[1][1]]
        if e["rhs"] is not None:
            rhs = PolyCoeff()
            for term in it["rhs"]:
                mono = tuple((s[0], (s[1], s[2])) for s in term["symbols"])
                rhs = rhs + PolyCoeff({mono: AlgNum.deserialize(term["coeff"])})
            assert rhs == e["rhs"]


def test_algnum_latex():
    assert algnum_latex(I * HALF) == r"\frac{i}{2}"
    assert algnum_latex(-ONE) == "-1"
    assert algnum_latex(AlgNum.sqrt2(Fraction(1, 2))) == r"\frac{1}{2}\sqrt{2}"
    assert algnum_latex(AlgNum.i(-2)) == "-2i"
    assert algnum_latex(AlgNum.of(Fraction(3, 4))) == r"\frac{3}{4}"
    assert algnum_latex(ZERO) == "0"
    # an imaginary part over two radicals is bracketed after the i
    assert algnum_latex(I * (AlgNum.sqrt2(2) + AlgNum.sqrt3(Fraction(-1, 2)))) == \
        r"i\left(2\sqrt{2}-\frac{1}{2}\sqrt{3}\right)"
    assert algnum_latex(ONE + I * (AlgNum.sqrt2(3) + AlgNum.sqrt6(-2))) == \
        r"1+i\left(3\sqrt{2}-2\sqrt{6}\right)"
    # a unit coefficient before a radical is not printed
    assert algnum_latex(SQRT2) == r"\sqrt{2}"
    assert algnum_latex(-SQRT2) == r"-\sqrt{2}"
    assert algnum_latex(I * (SQRT2 + AlgNum.sqrt3())) == r"i\left(\sqrt{2}+\sqrt{3}\right)"
    assert algnum_latex(ONE - AlgNum.sqrt6()) == r"1-\sqrt{6}"
    # an imaginary part of one radical term is i before the radical, unbracketed
    assert algnum_latex(I * SQRT2) == r"i\sqrt{2}"
    assert algnum_latex(I * AlgNum.sqrt3(Fraction(-1, 6))) == r"-\frac{1}{6}i\sqrt{3}"
    assert algnum_latex(ONE + I * SQRT2) == r"1+i\sqrt{2}"
    assert algnum_latex(SQRT2 + I * AlgNum.sqrt6(2)) == r"\sqrt{2}+2i\sqrt{6}"


def test_equations_latex_fragments():
    tex = equations_to_latex(generate_structure_equations(_load_table()))
    assert r"\vartheta^{-2}" in tex
    assert r"\frac{i}{2}" in tex
    assert r"^{\sharp}" in tex
    for name in GENERATOR_LATEX:
        assert name in tex


def test_constraints_latex_mentions_every_provenance():
    table = _load_table()
    tex = constraints_to_latex(table)
    tags = {p for e in table.entries.values() for p in e["provenance"]}
    for tag in tags:
        assert tag in tex


def test_frame_change_identities():
    res = verify_iz_change_of_frame(include_torsion=True)
    assert res["ok"]
    assert res["residual_11"].is_zero() and res["residual_12"].is_zero()


def test_frame_change_negative_control():
    ctrl = verify_iz_change_of_frame(include_torsion=False)
    assert ctrl["residual_11"].is_zero()
    expected = {(0, 3): -PolyCoeff.symbol(T_SYMBOL),
                (0, 4): -PolyCoeff.symbol(S_SYMBOL)}
    assert ctrl["residual_12"].terms == expected


_TBAR = conj_slot(T_SYMBOL)[1]
# polynomials in the conjugate torsion symbol with small complex coefficients
_TBAR_POLYS = st.lists(st.builds(AlgNum.from_complex_rat, st.integers(-3, 3),
                                 st.integers(-3, 3)), max_size=3).map(
    lambda cs: PolyCoeff({(_TBAR,) * k: c for k, c in enumerate(cs)}))


@given(st.dictionaries(st.integers(0, 11), _TBAR_POLYS, max_size=4))
def test_d_squared_is_zero_on_symbolic_one_forms(coeffs):
    # the frame-change setting, widened: the conjugate torsion symbol has
    # the differential gen^10 + 2i gen^11, both closed formal generators
    rules = {**maurer_cartan_forms(), 10: Form(), 11: Form(),
             _TBAR: Form({(10,): PolyCoeff.const(ONE), (11,): PolyCoeff.const(AlgNum.i(2))})}
    d_form = Form({(g,): p for g, p in coeffs.items()}).d(rules)
    assert d_form.d(rules).is_zero()


def test_form_d_of_a_symbol_coefficient():
    # d(S th^{-2}) = dS ^ th^{-2} + S d th^{-2} with dS = a om^{0(10)} + b th^{0(10)}
    a, b = AlgNum.of(3), I * HALF
    s = PolyCoeff.symbol(T_SYMBOL)
    rules = {**maurer_cartan_forms(),
             T_SYMBOL: Form({(5,): PolyCoeff.const(a), (3,): PolyCoeff.const(b)})}
    got = Form({(0,): s}).d(rules)
    # d th^{-2} = -th^{-2}^om^{0(10)} - th^{-2}^om^{0(01)} - i/2 th^{-1(10)}^th^{-1(01)}
    assert got == Form({(0, 5): PolyCoeff.const(-a) - s, (0, 3): PolyCoeff.const(-b),
                        (0, 6): -s, (1, 2): s * MI2})


def test_form_d_requires_rules():
    rules = maurer_cartan_forms()
    with pytest.raises(KeyError):
        Form({(17,): PolyCoeff.const(ONE)}).d(rules)


# 1-forms over the coframe with constant and curvature-symbol coefficients
_SLOTS = [(a, pair) for a in range(10) for pair in THETA_PAIRS]
_COEFFS = st.builds(AlgNum.from_complex_rat, st.integers(-3, 3), st.integers(-3, 3))
_POLYS = st.lists(st.tuples(st.lists(st.sampled_from(_SLOTS), max_size=2), _COEFFS),
                  max_size=3).map(lambda ts: sum((PolyCoeff({tuple(m): c}) for m, c in ts),
                                                 PolyCoeff()))
_ONE_FORMS = st.dictionaries(st.integers(0, 9), _POLYS, max_size=4).map(
    lambda cs: Form({(g,): p for g, p in cs.items()}))


@given(_ONE_FORMS)
def test_form_conj_is_an_involution(a):
    assert a.conj().conj() == a


@given(_ONE_FORMS, _ONE_FORMS)
def test_form_conj_commutes_with_wedge(a, b):
    assert a.wedge(b).conj() == a.conj().wedge(b.conj())


@given(_ONE_FORMS)
def test_form_conj_commutes_with_d(a):
    # the Maurer-Cartan coframe is real: conj(d gen^A) = d gen^{conj A}
    rules = maurer_cartan_forms()
    assert a.d(rules).conj() == a.conj().d(rules)


def _zero_slot_fixture(slot):
    return json.dumps({"groups": [{"name": "bad", "zero_slots": [slot]}]})


def _relation_fixture(slot, symbol):
    return json.dumps({"groups": [], "relations": [
        {"name": "bad", "slot": slot, "rhs": [{"coeff": "1", "symbols": [symbol]}]}]})


def _equation_fixture(generator, pair):
    return json.dumps({"equations": [{"generator": generator, "mc": [],
                                      "rhs": [{"pair": pair, "constrained": False}]}]})


def _relation_rhs_fixture(*coeffs):
    return json.dumps({"groups": [], "relations": [
        {"name": "vanishing", "slot": [5, 0, 1],
         "rhs": [{"coeff": c, "symbols": [[1, 0, 3]]} for c in coeffs]}]})


# a term that vanishes is never written, so the loaders refuse it and name
# where it sits: (id, loader, text, the generator or relation named)
_VANISHING = [
    ("mc-coeff-zero", equations_from_json, json.dumps({"equations": [
        {"generator": 4, "mc": [{"pair": [0, 5], "coeff": "0"}], "rhs": []}]}), "generator 4"),
    ("relation-rhs-coeff-zero", load_constraints, _relation_rhs_fixture("1", "0"),
     "relation 'vanishing'"),
    ("relation-rhs-cancels", load_constraints, _relation_rhs_fixture("1", "-1"),
     "relation 'vanishing'"),
    ("relation-rhs-empty", load_constraints, _relation_rhs_fixture(), "relation 'vanishing'"),
]


_MALFORMED = [
    *[case[:3] for case in _VANISHING],
    *[("zero-slot-" + ",".join(map(str, slot)), load_constraints, _zero_slot_fixture(slot))
      for slot in ([1, 3, 0], [-1, 0, 1], [1, 2, 2], [12, 0, 1], [1, 0, 7])],
    ("relation-slot", load_constraints, _relation_fixture([1, 3, 0], [5, 0, 1])),
    ("relation-symbol", load_constraints, _relation_fixture([5, 0, 1], [-1, 0, 1])),
    *[(f"equation-{gen}-pair-{b},{c}", equations_from_json, _equation_fixture(gen, [b, c]))
      for gen, (b, c) in ((-1, (0, 1)), (12, (0, 1)), (1, (1, 0)), (1, (0, 7)))],
    ("equation-no-rhs", equations_from_json,
     json.dumps({"equations": [{"generator": 12, "mc": [], "rhs": []}]})),
    *[(f"mc-pair-{i!r},{j!r}", equations_from_json, json.dumps({"equations": [
        {"generator": 1, "mc": [{"pair": [i, j], "coeff": "1"}], "rhs": []}]}))
      for i, j in ((-1, 3), (3, 10), (2, 2), ("1", 3), (5, 0))],
    # a repeat would let the last entry win, and a reversed pair would be
    # read with the opposite sign; neither is written by equations_to_json
    # a pair of the wrong length is named with its field and generator
    *[(f"{field}-pair-{','.join(map(str, pair)) or 'empty'}", equations_from_json,
       json.dumps({"equations": [{"generator": 1, "mc": [], "rhs": [],
                                  field: [{"pair": pair, "coeff": "1", "constrained": False}]}]}))
      for field in ("mc", "rhs") for pair in ([0, 5, 6], [0], [0, 1, 2], [])],
    ("mc-pair-repeated", equations_from_json, json.dumps({"equations": [
        {"generator": 0, "mc": [{"pair": [0, 5], "coeff": "-1"},
                                {"pair": [0, 5], "coeff": "-1"}], "rhs": []}]})),
    ("generator-repeated", equations_from_json, json.dumps({"equations": [
        {"generator": 0, "mc": [{"pair": [0, 5], "coeff": "-1"}], "rhs": []},
        {"generator": 0, "mc": [], "rhs": []}]})),
    ("rhs-pair-repeated", equations_from_json, json.dumps({"equations": [
        {"generator": 1, "mc": [], "rhs": [{"pair": [0, 1], "constrained": False},
                                           {"pair": [0, 1], "constrained": True}]}]})),
    *[(f"constrained-{flag!r}", equations_from_json, json.dumps({"equations": [
        {"generator": 1, "mc": [], "rhs": [{"pair": [0, 1], "constrained": flag}]}]}))
      for flag in ("yes", 1, None)],
    # valid JSON of the wrong shape
    ("constraints-empty-object", load_constraints, "{}"),
    ("constraints-list", load_constraints, "[]"),
    ("zero-slot-int", load_constraints, _zero_slot_fixture(5)),
    ("group-no-zero-slots", load_constraints, json.dumps({"groups": [{"name": "bad"}]})),
    ("relation-no-rhs", load_constraints, json.dumps({"groups": [], "relations": [
        {"name": "bad", "slot": [5, 0, 1]}]})),
    # a provenance name that is not a string would reach the latex emitter
    *[(f"{kind}-name-{name!r}", load_constraints, text)
      for name in (5, None, ["g"])
      for kind, text in (
          ("group", json.dumps({"groups": [{"name": name, "zero_slots": [[1, 0, 3]]}]})),
          ("relation", json.dumps({"groups": [], "relations": [
              {"name": name, "slot": [5, 0, 1], "rhs": []}]})))],
    # slots of the wrong length are reported with the group or relation
    *[(f"zero-slot-{len(slot)}-entries", load_constraints, _zero_slot_fixture(slot))
      for slot in ([1, 0], [1, 0, 3, 4], [])],
    ("relation-slot-2-entries", load_constraints, _relation_fixture([5, 0], [5, 0, 1])),
    ("relation-symbol-2-entries", load_constraints, _relation_fixture([5, 0, 1], [5, 0])),
    ("equations-empty-object", equations_from_json, "{}"),
    ("equation-no-mc", equations_from_json,
     json.dumps({"equations": [{"generator": 1, "rhs": []}]})),
    ("mc-no-coeff", equations_from_json, json.dumps({"equations": [
        {"generator": 1, "mc": [{"pair": [0, 5]}], "rhs": []}]})),
    ("rhs-no-constrained", equations_from_json, json.dumps({"equations": [
        {"generator": 1, "mc": [], "rhs": [{"pair": [0, 1]}]}]})),
    ("mc-coeff-int", equations_from_json, json.dumps({"equations": [
        {"generator": 1, "mc": [{"pair": [0, 5], "coeff": 3}], "rhs": []}]})),
]


@pytest.mark.parametrize("load, text", [case[1:] for case in _MALFORMED],
                         ids=[case[0] for case in _MALFORMED])
def test_malformed_slots_raise_value_error(load, text):
    # a slot outside 0..9 x {b < c in 0..4} names no curvature symbol; it
    # must not be stored, nor reach a table lookup through a negative index
    with pytest.raises(ValueError, match="bad"):
        load(text)


@pytest.mark.parametrize("load, text, where", [case[1:] for case in _VANISHING],
                         ids=[case[0] for case in _VANISHING])
def test_vanishing_terms_name_their_generator_or_relation(load, text, where):
    with pytest.raises(ValueError, match=re.escape(where)):
        load(text)


@pytest.mark.parametrize("field", ["mc", "rhs"])
def test_pair_of_wrong_length_names_its_field_and_generator(field):
    text = json.dumps({"equations": [{"generator": 3, "mc": [], "rhs": [],
                                      field: [{"pair": [0, 5, 6], "coeff": "1",
                                               "constrained": False}]}]})
    with pytest.raises(ValueError, match=rf"bad {field} pair in generator 3: \[0, 5, 6\]"):
        equations_from_json(text)
