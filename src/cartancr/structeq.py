"""Coframe structure equations with exact symbolic curvature coefficients.

The coframe has ten generators dual to the cr basis, labeled

    0..4   theta^{-2}, theta^{-1(10)}, theta^{-1(01)}, theta^{0(10)}, theta^{0(01)}
    5..9   omega^{0(10)}, omega^{0(01)}, omega^{1(10)}, omega^{1(01)}, omega^{2}

Each structure equation reads  d gen^A = (Maurer-Cartan part) + sum of
curvature terms S^A_{BC} gen^B ^ gen^C over pairs B < C of the five theta
generators, S = T for theta equations and S = R for omega equations.
A ConstraintTable kills or constrains individual (A, (B,C)) slots; the
table is closed under the reality involution.  Coefficients are
polynomials in the surviving curvature symbols over the exact field.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache

from . import liealg
from .numfield import AlgNum, ONE, I, HALF, algnum_latex

# the coframe is dual to the cr basis, so gen^k carries the label of the
# k-th cr vector; the five theta labels double as the lower-index labels
UPPER_LABELS = tuple(name[2:] for name in liealg.CR_NAMES)
GENERATOR_NAMES = tuple(("th_" if k < 5 else "om_") + label
                        for k, label in enumerate(UPPER_LABELS))
GENERATOR_LATEX = tuple((r"\vartheta^{" if k < 5 else r"\omega^{") + label + "}"
                        for k, label in enumerate(UPPER_LABELS))

# the reality involution on generators
CONJ_GEN = liealg.CR_CONJ

THETA_PAIRS = tuple((b, c) for b in range(5) for c in range(b + 1, 5))


def _wedge_sign(gens: tuple):
    """gen^{g_0} ^ gen^{g_1} ^ ... = sign * (the same wedge in sorted order),
    as (sign, sorted index tuple); sign is 0 when a generator repeats."""
    sign = 1
    for k, a in enumerate(gens):
        for b in gens[k + 1:]:
            if a == b:
                return 0, tuple(sorted(gens))
            if a > b:
                sign = -sign
    return sign, tuple(sorted(gens))


def _conj_pair(i: int, j: int):
    """conj(gen^i ^ gen^j) = sign * gen^b ^ gen^c with b < c, as (sign, (b, c))."""
    return _wedge_sign((CONJ_GEN[i], CONJ_GEN[j]))


def _conj_slot(slot):
    """conj(S^A_{BC}) = sign * S^{A~}_{B~C~} on slot keys (A, (B, C)),
    as (sign, conjugate slot)."""
    upper, pair = slot
    sign, pair = _conj_pair(*pair)
    return sign, (CONJ_GEN[upper], pair)


def _accumulate(terms: dict, key, value):
    """terms[key] += value in a sparse sum: a key whose sum is zero is dropped."""
    s = terms[key] + value if key in terms else value
    if s.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = s


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


def symbol_name(key, latex: bool = False) -> str:
    """T^{A}_{B,C} for a theta equation A, R^{A}_{B,C} for an omega one; the
    LaTeX form separates the legs with a thin space instead of a comma."""
    upper, (b, c) = key
    kind = "T" if upper <= 4 else "R"
    sep = r"\," if latex else ","
    return (f"{kind}^{{{UPPER_LABELS[upper]}}}"
            f"_{{{UPPER_LABELS[b]}{sep}{UPPER_LABELS[c]}}}")


class _Sum:
    """A sparse sum {canonical key tuple: nonzero coefficient}: the arithmetic
    PolyCoeff and Form share.  A subclass gives _order(key) -> (sign,
    canonical key), sign 0 when the term vanishes, and _conj_atom(entry) ->
    (sign, conjugate entry).  add, which the constructor calls on every
    term, is the one place a key is put in order."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for key, coeff in (terms or {}).items():
            self.add(key, coeff)

    @classmethod
    def _of(cls, terms: dict):
        """Trusted constructor: keys already canonical, coefficients nonzero."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    def add(self, key: tuple, coeff, sign: int = 1):
        """self += sign * coeff * (the product of the entries of key)."""
        s, key = self._order(key)
        if s and not coeff.is_zero():
            _accumulate(self.terms, key, coeff if s == sign else -coeff)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.terms == other.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            _accumulate(terms, key, coeff)
        return self._of(terms)

    def __neg__(self):
        return self._of({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product of two sums, or every coefficient times an AlgNum."""
        if isinstance(other, AlgNum):
            if other.is_zero():
                return type(self)()
            return self._of({key: coeff * other for key, coeff in self.terms.items()})
        out = type(self)()
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                out.add(k1 + k2, c1 * c2)
        return out

    def conj(self):
        """The reality involution: entries by _conj_atom, coefficients by conj."""
        out = type(self)()
        for key, coeff in self.terms.items():
            sign, atoms = 1, []
            for atom in key:
                s, atom = self._conj_atom(atom)
                sign *= s
                atoms.append(atom)
            out.add(tuple(atoms), coeff.conj(), sign)
        return out


class PolyCoeff(_Sum):
    """Polynomial in curvature symbols with AlgNum coefficients.

    terms: {tuple of symbol keys (sorted): AlgNum}; the empty tuple holds
    the constant part.  Symbols commute.
    """

    __slots__ = ()

    @staticmethod
    def _order(mono: tuple):
        return 1, tuple(sorted(mono))

    _conj_atom = staticmethod(_conj_slot)

    @staticmethod
    def const(value) -> "PolyCoeff":
        v = value if isinstance(value, AlgNum) else AlgNum.of(value)
        return PolyCoeff._of({} if v.is_zero() else {(): v})

    @staticmethod
    def symbol(key, coeff=ONE) -> "PolyCoeff":
        return PolyCoeff({(key,): coeff})

    __rmul__ = _Sum.__mul__

    def name(self) -> str:
        return " + ".join(f"({c.serialize()})" + "".join("*" + symbol_name(k) for k in mono)
                          for mono, c in sorted(self.terms.items())) or "0"

    def __repr__(self):
        return f"PolyCoeff({self.name()})"


class Form(_Sum):
    """Exact symbolic exterior form of any degree: {sorted generator tuple:
    PolyCoeff} over coframe indices plus any formal extra generators.
    A repeated generator makes a term vanish."""

    __slots__ = ()

    _order = staticmethod(_wedge_sign)

    @staticmethod
    def _conj_atom(gen: int):
        return 1, CONJ_GEN[gen]

    wedge = _Sum.__mul__

    def d(self, rules: dict) -> "Form":
        """d(f gen^{g_0} ^ ... ^ gen^{g_k}) = df ^ gen^{g_0} ^ ... ^ gen^{g_k}
            + f * sum_m (-1)^m gen^{g_0} ^ ... ^ d gen^{g_m} ^ ... ^ gen^{g_k}.

        rules[g] is d gen^g as a 2-form for every generator used; a missing
        rule raises KeyError.  rules[S] is dS as a 1-form for a curvature
        symbol key S; a symbol with no entry is closed.
        """
        out = Form()
        for gens, poly in self.terms.items():
            for mono, coeff in poly.terms.items():
                for pos, key in enumerate(mono):
                    if key in rules:
                        rest = PolyCoeff._of({mono[:pos] + mono[pos + 1:]: coeff})
                        for g, q in rules[key].terms.items():
                            out.add(g + gens, rest * q)
            for m, g in enumerate(gens):
                for pair, q in rules[g].terms.items():
                    out.add(gens[:m] + pair + gens[m + 1:], poly * q, (-1) ** m)
        return out

    def name(self) -> str:
        return " + ".join(f"[{poly.name()}] " + "^".join(f"g{g}" for g in gens)
                          for gens, poly in sorted(self.terms.items())) or "0"


def maurer_cartan_forms() -> dict[int, Form]:
    """d gen^A = -1/2 c^A_{BC} gen^B ^ gen^C = sum over B < C of
    c^A_{CB} gen^B ^ gen^C, from the nonzero cr structure constants.
    A fresh dict on every call, of forms built once and shared by every
    caller: replace an entry, never change a form in place."""
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
        sign, mate = _conj_slot(slot)
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
        mate = _conj_slot(symbol_key(*primal_slot))[1]
        if mate in out.entries and out.entries[mate]["primal"] == primal_slot:
            del out.entries[mate]
        return out

    def state(self, slot):
        """None if the slot is free, else its kind: 'zero' or 'relation'."""
        e = self.entries.get(slot)
        return None if e is None else e["kind"]


class Equation:
    """d gen^A = mc + sum of curvature terms over surviving theta pairs."""

    __slots__ = ("generator", "mc", "rhs")

    def __init__(self, generator: int, mc: Form, rhs: dict):
        self.generator = generator
        self.mc = mc          # 2-form with constant PolyCoeffs
        self.rhs = rhs        # {(b, c): constrained flag}

    def conjugate(self) -> "Equation":
        rhs = {_conj_pair(*pair)[1]: flag for pair, flag in self.rhs.items()}
        return Equation(CONJ_GEN[self.generator], self.mc.conj(), rhs)


def generate_structure_equations(table: ConstraintTable) -> list[Equation]:
    rules = maurer_cartan_forms()
    out = []
    for a in range(liealg.DIM):
        rhs = {}
        for pair in THETA_PAIRS:
            state = table.state((a, pair))
            if state != "zero":
                rhs[pair] = state is not None
        out.append(Equation(a, rules[a], rhs))
    return out


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
        if eq.mc != ref.mc:
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
    _, tbar_key = _conj_slot(T_SYMBOL)
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
