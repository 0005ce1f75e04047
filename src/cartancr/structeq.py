"""Coframe structure equations with exact symbolic curvature coefficients.

The coframe has ten generators dual to the cr basis, labeled

    0..4   theta^{-2}, theta^{-1(10)}, theta^{-1(01)}, theta^{0(10)}, theta^{0(01)}
    5..9   omega^{0(10)}, omega^{0(01)}, omega^{1(10)}, omega^{1(01)}, omega^{2}

Each structure equation reads  d gen^A = (Maurer-Cartan part) + sum of
curvature terms S^A_{BC} gen^B ^ gen^C over pairs B < C of the five theta
generators, S = T for theta equations and S = R for omega equations.
A ConstraintTable kills or constrains individual (A, (B,C)) slots; the
table is closed under the reality involution.  The forms and their
polynomial coefficients come from `forms`; this module adds the table,
the equations, their JSON and LaTeX, and the IZ frame change.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache

from . import liealg
from .forms import CONJ_GEN, UPPER_LABELS, Form, PolyCoeff, conj_slot, symbol_name
from .numfield import AlgNum, I, HALF, algnum_latex

GENERATOR_NAMES = tuple(("th_" if k < 5 else "om_") + label
                        for k, label in enumerate(UPPER_LABELS))
GENERATOR_LATEX = tuple((r"\vartheta^{" if k < 5 else r"\omega^{") + label + "}"
                        for k, label in enumerate(UPPER_LABELS))

THETA_PAIRS = tuple((b, c) for b in range(5) for c in range(b + 1, 5))


def _is_index(x, n: int) -> bool:
    return type(x) is int and 0 <= x < n


def symbol_key(upper, pair):
    """The key (A, (B, C)) of the curvature symbol S^A_{BC}: the equation
    generator A (0..9) and a theta pair B < C; anything else raises ValueError."""
    b, c = pair
    if not (_is_index(upper, liealg.DIM) and _is_index(b, 5)
            and _is_index(c, 5) and b < c):
        raise ValueError(f"bad curvature slot ({upper!r}, {pair!r})")
    return upper, (b, c)


def maurer_cartan_forms() -> dict[int, Form]:
    """d gen^A = -1/2 c^A_{BC} gen^B ^ gen^C = sum over B < C of
    c^A_{CB} gen^B ^ gen^C, from the nonzero cr structure constants.
    A fresh dict on every call, of forms built once and shared by every
    caller, equations included: replace an entry, never change a form in place."""
    return dict(_maurer_cartan_forms())


@cache
def _maurer_cartan_forms() -> dict[int, Form]:
    sc = liealg.build_basis("cr").structure_constants()
    terms = {a: {} for a in range(liealg.DIM)}
    for pair in sc:
        b, c = pair
        if b < c:
            # each (A, B < C) occurs once, so no sum or sign rule is needed
            for a, x in sc[(c, b)]:
                terms[a][pair] = PolyCoeff.const(x)
    return {a: Form._of(t) for a, t in terms.items()}


def exterior_derivative_two_form(tf: Form, rules: dict) -> dict:
    """d of a symbolic 2-form as {(i, j, k) sorted: PolyCoeff}."""
    return tf.d(rules).terms


class ConstraintTable:
    """Normalization constraints on curvature slots, closed under conjugation.

    Each primal entry either kills a slot or constrains its symbol by a
    relation (the symbol stays in the equations, flagged).  Entries derived
    by the reality involution point back at their primal slot.  A slot that
    names no curvature symbol raises ValueError.
    """

    def __init__(self):
        self.entries = {}   # slot -> {"kind", "provenance", "primal", "rhs"}

    def add_zero(self, slot, provenance: str):
        self._enter(slot, "zero", None, provenance)

    def add_relation(self, slot, rhs: PolyCoeff, provenance: str):
        self._enter(slot, "relation", rhs, provenance)

    def _enter(self, slot, kind: str, rhs, provenance: str):
        """Enter a primal constraint; derive its mate with rhs sign * conj(rhs)."""
        slot = symbol_key(*slot)
        tags = [provenance]
        cur = self.entries.get(slot)
        if cur is not None:
            if kind != "zero" or cur["kind"] != "zero":
                raise ValueError(f"slot {slot} already constrained ({cur['kind']})")
            # a zero slot listed again gains the tag and becomes primal; the
            # entry is replaced, not mutated, since copies made by `without`
            # share it
            tags = cur["provenance"]
            if provenance not in tags:
                tags = tags + [provenance]
        self.entries[slot] = {"kind": kind, "provenance": tags, "primal": None, "rhs": rhs}
        sign, mate = conj_slot(slot)
        if mate != slot and mate not in self.entries:
            if rhs is not None:
                rhs = rhs.conj() if sign > 0 else -rhs.conj()
            self.entries[mate] = {"kind": kind, "provenance": [provenance],
                                  "primal": slot, "rhs": rhs}

    def primal_slots(self) -> list:
        return [s for s, e in self.entries.items() if e["primal"] is None]

    def without(self, primal_slot) -> "ConstraintTable":
        """Copy minus one primal constraint and its conjugate mate, if the
        mate was derived from it; any other slot raises ValueError.

        The copy shares the entry dicts, which the tables only ever replace."""
        e = self.entries.get(primal_slot)
        if e is None or e["primal"] is not None:
            raise ValueError(f"slot {primal_slot} is not a primal constraint")
        out = ConstraintTable()
        out.entries = dict(self.entries)
        del out.entries[primal_slot]
        mate = conj_slot(symbol_key(*primal_slot))[1]
        if mate in out.entries and out.entries[mate]["primal"] == primal_slot:
            del out.entries[mate]
        return out


class Equation:
    """d gen^A = mc + sum of curvature terms over surviving theta pairs.
    A generated or parsed mc part equal to gen^A's Maurer-Cartan form is
    the shared form from maurer_cartan_forms."""

    __slots__ = ("generator", "mc", "rhs")

    def __init__(self, generator: int, mc: Form, rhs: dict):
        self.generator = generator
        self.mc = mc          # 2-form with constant PolyCoeffs
        self.rhs = rhs        # {(b, c): constrained flag}

    def conjugate(self) -> "Equation":
        rhs = {conj_slot((self.generator, p))[1][1]: flag for p, flag in self.rhs.items()}
        return Equation(CONJ_GEN[self.generator], self.mc.conj(), rhs)


def generate_structure_equations(table: ConstraintTable) -> list[Equation]:
    """One equation per generator: every theta pair starts free, then one
    pass over the table drops each zero slot and flags each relation."""
    rules = maurer_cartan_forms()
    rhs = [dict.fromkeys(THETA_PAIRS, False) for _ in range(liealg.DIM)]
    for (a, pair), entry in table.entries.items():
        if entry["kind"] == "zero":
            del rhs[a][pair]
        else:
            rhs[a][pair] = True
    return [Equation(a, rules[a], r) for a, r in enumerate(rhs)]


def equations_diff(got: list[Equation], want: list[Equation]) -> list[str]:
    """Symbolic difference: Maurer-Cartan coefficients, slot sets and
    constrained flags all must agree.  Empty list means identical."""
    diffs = []
    by_gen = {e.generator: e for e in want}
    for eq in got:
        ref = by_gen.get(eq.generator)
        if ref is None:
            diffs.append(f"unexpected equation for generator {eq.generator}")
            continue
        if eq.mc is not ref.mc and eq.mc != ref.mc:
            diffs += [f"gen {eq.generator}: mc term {pair} differs by {poly.name()}"
                      for pair, poly in sorted((eq.mc - ref.mc).terms.items())]
        if eq.rhs == ref.rhs:
            continue
        for pair in sorted(set(eq.rhs) | set(ref.rhs)):
            a, b = eq.rhs.get(pair), ref.rhs.get(pair)
            if a is None:
                diffs.append(f"gen {eq.generator}: missing term at {pair}")
            elif b is None:
                diffs.append(f"gen {eq.generator}: extra term at {pair}")
            elif a != b:
                diffs.append(f"gen {eq.generator}: flag mismatch at {pair}")
    for g in sorted(set(by_gen) - {e.generator for e in got}):
        diffs.append(f"missing equation for generator {g}")
    return diffs


# ---------------------------------------------------------------------------
# serialization

def equations_to_json(eqs: list[Equation]) -> str:
    payload = []
    for eq in sorted(eqs, key=lambda e: e.generator):
        payload.append({
            "generator": eq.generator,
            "mc": [{"pair": list(p), "coeff": poly.terms[()].serialize()}
                   for p, poly in sorted(eq.mc.terms.items())],
            "rhs": [{"pair": list(p), "constrained": flag}
                    for p, flag in sorted(eq.rhs.items())],
        })
    return json.dumps({"generators": list(GENERATOR_NAMES),
                       "equations": payload}, indent=2)


def equations_from_json(text: str, derive_conjugates: bool = False) -> list[Equation]:
    """Inverse of equations_to_json; a bad or repeated generator, a pair
    that is not two entries long, an mc pair that is not i < j in 0..9 or
    is repeated or has coefficient zero, a bad or repeated rhs pair, a bad
    constrained flag, a missing field or a value of the wrong JSON type
    raises ValueError."""
    data = json.loads(text)
    eqs = []
    try:
        for item in data["equations"]:
            gen = item["generator"]
            if not _is_index(gen, liealg.DIM) or any(e.generator == gen for e in eqs):
                raise ValueError(f"bad generator {gen!r}: out of range or repeated")
            mc = {}
            for term in item["mc"]:
                i, j = pair = _json_entries(term["pair"], 2, f"mc pair in generator {gen}")
                if not (_is_index(i, liealg.DIM) and _is_index(j, liealg.DIM)
                        and i < j and pair not in mc):
                    raise ValueError(f"bad mc pair {term['pair']!r} of generator {gen}: "
                                     "not i < j in 0..9, or repeated")
                mc[pair] = PolyCoeff.const(_json_coeff(
                    term["coeff"], f"mc term {term['pair']!r} of generator {gen}"))
            rhs = {}
            for t in item["rhs"]:
                if type(t["constrained"]) is not bool:
                    raise ValueError(f"bad constrained flag {t['constrained']!r}")
                pair = symbol_key(gen, _json_entries(t["pair"], 2,
                                                     f"rhs pair in generator {gen}"))[1]
                if pair in rhs:
                    raise ValueError(f"bad rhs pair {t['pair']!r}: repeated in generator {gen}")
                rhs[pair] = t["constrained"]
            eqs.append(Equation(gen, Form(mc), rhs))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad structure equations: missing or mistyped field ({exc!r})") from exc
    if derive_conjugates:
        # generators are unique and CONJ_GEN is a bijection, so no mate
        # is derived twice
        have = {e.generator for e in eqs}
        eqs += [eq.conjugate() for eq in eqs if CONJ_GEN[eq.generator] not in have]
    # an mc part equal to the generator's Maurer-Cartan form becomes that
    # shared form, which equations_diff then compares by identity
    forms = _maurer_cartan_forms()
    for eq in eqs:
        if eq.mc == forms[eq.generator]:
            eq.mc = forms[eq.generator]
    return sorted(eqs, key=lambda e: e.generator)


def constraints_to_json(table: ConstraintTable) -> str:
    slots = []
    for slot in sorted(table.entries):
        e = table.entries[slot]
        item = {
            "slot": [slot[0], slot[1][0], slot[1][1]],
            "symbol": symbol_name(slot),
            "kind": e["kind"],
            "provenance": list(e["provenance"]),
        }
        if e["primal"] is not None:
            item["derived_from"] = [e["primal"][0], e["primal"][1][0], e["primal"][1][1]]
        if e["rhs"] is not None:
            item["rhs"] = [
                {"coeff": coeff.serialize(),
                 "symbols": [[k[0], k[1][0], k[1][1]] for k in mono]}
                for mono, coeff in sorted(e["rhs"].terms.items())
            ]
        slots.append(item)
    return json.dumps({"slots": slots}, indent=2)


def _entry_name(entry: dict, kind: str) -> str:
    """The provenance name of a constraints group or relation; it must be a str."""
    name = entry["name"]
    if not isinstance(name, str):
        raise ValueError(f"bad constraints: {kind} name {name!r} is not a string")
    return name


def _json_entries(value, n: int, what: str) -> tuple:
    """A JSON list of n entries, such as a slot [upper, b, c] or a pair
    [b, c], as a tuple; any other value raises ValueError naming `what`."""
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"bad {what}: {value!r} is not {n} entries long")
    return tuple(value)


def _json_coeff(text, what: str) -> AlgNum:
    """A serialized coefficient, which must be nonzero: the writers never
    emit a zero term, so one marks a malformed file.  Zero raises
    ValueError naming `what`."""
    coeff = AlgNum.deserialize(text)
    if coeff.is_zero():
        raise ValueError(f"bad {what}: coefficient {text!r} is zero")
    return coeff


def load_constraints(text: str) -> ConstraintTable:
    """Build the table from its JSON description: groups of zero slots plus
    relation entries with PolyCoeff right-hand sides.  A slot or symbol that
    names no curvature symbol or is not three entries long, a name that is
    not a string, an rhs term with coefficient zero, an rhs that is empty or
    sums to zero, a missing field or a value of the wrong JSON type raises
    ValueError."""
    data = json.loads(text)
    table = ConstraintTable()
    try:
        for group in data["groups"]:
            name = _entry_name(group, "group")
            for slot in group["zero_slots"]:
                upper, *pair = _json_entries(slot, 3, f"slot in group {name!r}")
                table.add_zero((upper, pair), name)
        for rel in data.get("relations", []):
            name = _entry_name(rel, "relation")
            rhs = PolyCoeff()
            for term in rel["rhs"]:
                syms = [_json_entries(sym, 3, f"symbol in relation {name!r}")
                        for sym in term["symbols"]]
                rhs.add(tuple(symbol_key(u, pair) for u, *pair in syms),
                        _json_coeff(term["coeff"], f"rhs term in relation {name!r}"))
            if rhs.is_zero():
                raise ValueError(f"bad relation {name!r}: its rhs is empty or sums to zero")
            upper, *pair = _json_entries(rel["slot"], 3, f"slot in relation {name!r}")
            table.add_relation((upper, pair), rhs, name)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad constraints: missing or mistyped field ({exc!r})") from exc
    return table


# ---------------------------------------------------------------------------
# latex emission

def _term_latex(coeff: AlgNum, body: str) -> str:
    s = algnum_latex(coeff)
    if s == "1":
        s = ""
    elif s == "-1":
        s = "-"
    bare = s.lstrip("+-")
    if "+" in bare or "-" in bare[1:]:
        s = f"\\left({s}\\right)"
    if s.startswith("-"):
        return f" - {s[1:]}{body}"
    return f" + {s.lstrip('+')}{body}"


def equations_to_latex(eqs: list[Equation]) -> str:
    lines = []
    for eq in sorted(eqs, key=lambda e: e.generator):
        lhs = f"d{GENERATOR_LATEX[eq.generator]}"
        # printed convention: Maurer-Cartan terms moved to the left
        for (i, j), poly in sorted(eq.mc.terms.items()):
            coeff = -poly.terms[()]
            body = f"{GENERATOR_LATEX[i]}\\wedge {GENERATOR_LATEX[j]}"
            lhs += _term_latex(coeff, body)
        if not eq.rhs:
            rhs = "0"
        else:
            bits = []
            for (b, c), constrained in sorted(eq.rhs.items()):
                sym = symbol_name((eq.generator, (b, c)), latex=True)
                mark = "^{\\sharp}" if constrained else ""
                bits.append(f"{sym}{mark}\\,"
                            f"{GENERATOR_LATEX[b]}\\wedge {GENERATOR_LATEX[c]}")
            rhs = " + ".join(bits)
        lines.append(f"{lhs} = {rhs}")
    return "\\begin{aligned}\n" + " \\\\\n".join(lines) + "\n\\end{aligned}\n"


def constraints_to_latex(table: ConstraintTable) -> str:
    lines = []
    for slot in sorted(table.entries):
        e = table.entries[slot]
        sym = symbol_name(slot, latex=True)
        prov = ", ".join(e["provenance"])
        if e["kind"] == "zero":
            lines.append(f"{sym} = 0 \\quad\\text{{[{prov}]}}")
        else:
            lines.append(f"{sym} \\;\\text{{constrained}} "
                         f"\\quad\\text{{[{prov}]}}")
    return "\\begin{gathered}\n" + " \\\\\n".join(lines) + "\n\\end{gathered}\n"


# ---------------------------------------------------------------------------
# adapted coframe change: the distinguished sub-coframe satisfies the
# displayed pair of identities once the two surviving degree-one torsion
# symbols are carried along.  Generator 10 is the formal differential of
# the conjugated torsion symbol.

T_SYMBOL = (1, (0, 3))     # T^{-1(10)}_{-2,0(10)}
S_SYMBOL = (1, (0, 4))     # T^{-1(10)}_{-2,0(01)}
DT_BAR_GENERATOR = 10


def verify_iz_change_of_frame(include_torsion: bool = True) -> dict:
    """Check the two coframe-change identities exactly.

    With the torsion terms of the theta^{-1(10)} equation included, both
    residual 2-forms vanish identically.  With include_torsion=False the
    same computation is run against the torsion-free rules: the second
    residual then picks up exactly the dropped terms, which is the
    negative control.
    """
    t = PolyCoeff.symbol(T_SYMBOL)
    s = PolyCoeff.symbol(S_SYMBOL)
    _, tbar_key = conj_slot(T_SYMBOL)
    tbar = PolyCoeff.symbol(tbar_key)

    rules = maurer_cartan_forms()
    if include_torsion:
        torsion = Form({(0, 3): t, (0, 4): s})
        rules[1] = rules[1] + torsion
        rules[2] = rules[2] + torsion.conj()
    rules[DT_BAR_GENERATOR] = Form()
    rules[tbar_key] = Form({(DT_BAR_GENERATOR,): PolyCoeff.const(1)})

    c = PolyCoeff.const
    om = Form({(0,): c(AlgNum.i(-2))})                         # -2i th^{-2}
    om1 = Form({(1,): c(1), (0,): -tbar})
    phi2 = Form({(5,): c(1), (2,): I * HALF * tbar})
    theta2 = Form({(3,): c(1), (1,): I * tbar, (0,): -I * (tbar * tbar)})
    phi1 = Form({
        (7,): c(Fraction(1, 2)),
        (4,): c(AlgNum.i(Fraction(-1, 2))) * s,
        (1,): c(Fraction(-1, 2)) * (tbar * t),
        (2,): c(Fraction(1, 4)) * (tbar * tbar),
        (6,): c(AlgNum.i(Fraction(-1, 2))) * tbar,
        (DT_BAR_GENERATOR,): c(AlgNum.i(Fraction(-1, 2))),
    })
    om1bar = om1.conj()

    residual_11 = (om.d(rules) + om1.wedge(om1bar) + om.wedge(phi2)
                   + om.wedge(phi2.conj()))
    residual_12 = (om1.d(rules) - theta2.wedge(om1bar) + om1.wedge(phi2)
                   + om.wedge(phi1))
    return {
        "residual_11": residual_11,
        "residual_12": residual_12,
        "ok": residual_11.is_zero() and residual_12.is_zero(),
    }
