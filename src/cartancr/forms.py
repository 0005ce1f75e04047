"""The exterior algebra of the coframe over polynomials in curvature symbols.

A Form is an exact exterior form of any degree in the coframe generators
gen^0..gen^9 (dual to the cr basis) with PolyCoeff coefficients: polynomials
over the exact field in the curvature symbols S^A_{BC}, keyed (A, (B, C)).
Both are sparse sums with canonical keys, so equal values have equal terms,
and both conjugate under the reality involution CONJ_GEN.
"""

from __future__ import annotations

from . import liealg
from .numfield import AlgNum, ONE

# the coframe is dual to the cr basis, so gen^k carries the label of the
# k-th cr vector; the five theta labels double as the lower-index labels
UPPER_LABELS = tuple(name[2:] for name in liealg.CR_NAMES)

# the reality involution on generators
CONJ_GEN = liealg.CR_CONJ


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


def conj_slot(slot):
    """conj(S^A_{BC}) = sign * S^{A~}_{B~C~} on slot keys (A, (B, C)),
    as (sign, conjugate slot); the sign is that of conj(gen^B ^ gen^C)."""
    upper, (b, c) = slot
    sign, pair = _wedge_sign((CONJ_GEN[b], CONJ_GEN[c]))
    return sign, (CONJ_GEN[upper], pair)


def _accumulate(terms: dict, key, value):
    """terms[key] += value in a sparse sum: a key whose sum is zero is dropped."""
    s = terms[key] + value if key in terms else value
    if s.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = s


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
        """The product of two sums; an AlgNum or a constant sum (one term
        under the empty key) scales the coefficients and keeps the keys."""
        if not isinstance(other, AlgNum):
            if self.terms.keys() == {()}:
                self, other = other, self       # a constant commutes with every sum
            if other.terms.keys() != {()}:
                out = type(self)()
                for k1, c1 in self.terms.items():
                    for k2, c2 in other.terms.items():
                        out.add(k1 + k2, c1 * c2)
                return out
            other = other.terms[()]
        elif other.is_zero():
            return type(self)()
        return self._of({key: coeff * other for key, coeff in self.terms.items()})

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

    _conj_atom = staticmethod(conj_slot)

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
