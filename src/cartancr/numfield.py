"""Exact arithmetic in the degree-8 number field Q(i, sqrt2, sqrt3).

Every coefficient that occurs anywhere in this package (1/sqrt6,
1/sqrt12 = sqrt3/6, i/2, sqrt2, ...) lives in this one field, so no
general number-field machinery is needed.  An element is stored as eight
integers over one positive common denominator: the real and imaginary
parts each expand over the radical basis (1, sqrt2, sqrt3, sqrt6), which
no other module spells: serialize and algnum_latex write it out.  The
stored form is canonical: eight ints over one positive denominator, in
lowest terms, so each element has exactly one.

The ring operations work on the integers alone and do only the work their
operands need; since the form is unique, every path stores the same
result.  They dispatch in this order:
  1. an operand that is not an AlgNum is NotImplemented, so `x + 1`
     raises TypeError: ints and Fractions enter the field only through
     AlgNum.of and the named constructors (i, sqrt2, sqrt3, sqrt6,
     from_complex_rat), and a sum() over elements needs start=ZERO;
  2. a zero operand costs no arithmetic: the result is an operand or its
     negative;
  3. two monomials (one nonzero coordinate each) multiply by the table
     _MONO, and add in their one coordinate when it is the same: two
     integer products and one two-argument gcd (in two coordinates
     otherwise, with no pass over all eight);
  4. a product with a rational factor scales the other factor's eight
     numerators (8 integer products, not 64), then one gcd reduction;
  5. a sum or difference over one denominator adds the numerators, then
     one gcd reduction, or none when that denominator is 1;
  6. anything else is the full formula (64 products, or a cross-multiplied
     sum), then one gcd reduction.

Equality alone reads an int or a Fraction by value, as Decimal
does: AlgNum.of(1) == 1, and the two hash alike.

Everything is exact: no float occurs; a float oracle reads `re` and `im`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, neg, sub

# one term of a serialized part: a sign, then q, q*rK or rK, with q digits
# or digits/digits; the first term has no sign or "-", every later one a sign
_TERM = re.compile(r"([+-]?)(?:([0-9]+(?:/[0-9]+)?)(?:\*r([236]))?|r([236]))")
# the radicand of a term -> its coordinate over (1, sqrt2, sqrt3, sqrt6)
_TERM_INDEX = {None: 0, "2": 1, "3": 2, "6": 3}

Rat = int | Fraction

# the numerators of zero: `n == _ZEROS` is the zero test of the ring operations
_ZEROS = (0,) * 8
# the product of the coordinates' basis elements 1, sqrt2, sqrt3, sqrt6, i,
# ..., i*sqrt6: _MONO[j][k] = (m, f) when e_j e_k = f e_m, from
# sqrt(p) sqrt(q) = gcd(p, q) sqrt(pq / gcd(p, q)^2) and i^2 = -1
_RADICANDS = (1, 2, 3, 6)
_MONO = tuple(tuple((_RADICANDS.index(p * q // gcd(p, q) ** 2) + 4 * ((j > 3) != (k > 3)),
                     -gcd(p, q) if j > 3 and k > 3 else gcd(p, q))
                    for k, q in enumerate(_RADICANDS * 2))
              for j, p in enumerate(_RADICANDS * 2))


class AlgNum:
    """An element of Q(i, sqrt2, sqrt3).

    Immutable.  Stored as eight integers over one positive common
    denominator: `_n` holds the real coordinates over (1, sqrt2, sqrt3,
    sqrt6), then the imaginary ones, and `_d` > 0 is the denominator, with
    gcd(_d, *_n) == 1 (zero is eight zeros over 1).  The form is unique,
    so equality and zero tests compare integers.  `re` and `im` give the
    coordinates as 4-tuples of Fractions.  Coordinates passed in must be
    exact rationals (int or Fraction); anything else raises TypeError.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, re=(0, 0, 0, 0), im=(0, 0, 0, 0)):
        re, im = tuple(re), tuple(im)
        if len(re) != 4 or len(im) != 4:
            raise ValueError("AlgNum needs 4 real and 4 imaginary coordinates")
        coords = re + im
        for x in coords:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"AlgNum coordinates must be int or Fraction, "
                                f"not {type(x).__name__}")
        # reduced Fractions over their lcm already have gcd(d, *n) == 1
        d = lcm(*(x.denominator for x in coords))
        _set_n(self, tuple([x.numerator * (d // x.denominator) for x in coords]))
        _set_d(self, d)

    @staticmethod
    def _make(n: tuple, d: int) -> "AlgNum":
        """Trusted constructor for the ring operations: `n` must be an
        8-tuple of int and `d` > 0 with gcd(d, *n) == 1; both are stored
        as they are."""
        x = _new(AlgNum)
        _set_n(x, n)
        _set_d(x, d)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("AlgNum is immutable")

    def __delattr__(self, name):
        raise AttributeError("AlgNum is immutable")

    @property
    def re(self) -> tuple:
        """Re x as four Fractions over (1, sqrt2, sqrt3, sqrt6); real_part() is an AlgNum."""
        return tuple(Fraction(c, self._d) for c in self._n[:4])

    @property
    def im(self) -> tuple:
        """Im x as four Fractions over (1, sqrt2, sqrt3, sqrt6); imag_part() is an AlgNum."""
        return tuple(Fraction(c, self._d) for c in self._n[4:])

    # -- constructors ------------------------------------------------
    @staticmethod
    def of(q: Rat) -> "AlgNum":
        # the numerator of a bool is the int 0 or 1
        if isinstance(q, (int, Fraction)):
            return AlgNum._make((q.numerator, 0, 0, 0, 0, 0, 0, 0), q.denominator)
        return AlgNum((q, 0, 0, 0))     # raises the constructor's TypeError

    @staticmethod
    def i(q: Rat = 1) -> "AlgNum":
        return AlgNum((0, 0, 0, 0), (q, 0, 0, 0))

    @staticmethod
    def sqrt2(q: Rat = 1) -> "AlgNum":
        return AlgNum((0, q, 0, 0))

    @staticmethod
    def sqrt3(q: Rat = 1) -> "AlgNum":
        return AlgNum((0, 0, q, 0))

    @staticmethod
    def sqrt6(q: Rat = 1) -> "AlgNum":
        return AlgNum((0, 0, 0, q))

    @staticmethod
    def from_complex_rat(re: Rat, im: Rat) -> "AlgNum":
        return AlgNum((re, 0, 0, 0), (im, 0, 0, 0))

    # -- predicates --------------------------------------------------
    def is_zero(self) -> bool:
        return self._n == _ZEROS

    def is_rational(self) -> bool:
        return not any(self._n[1:])

    def is_real(self) -> bool:
        return not any(self._n[4:])

    # -- ring ops ----------------------------------------------------
    def __add__(self, other) -> "AlgNum":
        if type(other) is not AlgNum:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "AlgNum":
        return AlgNum._make(tuple(map(neg, self._n)), self._d)

    def __sub__(self, other) -> "AlgNum":
        if type(other) is not AlgNum:
            return NotImplemented
        return _combine(self, other, -1)

    def __mul__(self, other) -> "AlgNum":
        if type(other) is not AlgNum:
            return NotImplemented
        a, b = self._n, other._n
        # a zero factor is the product: zero has one stored form
        if a == _ZEROS:
            return self
        if b == _ZEROS:
            return other
        p0, p1, p2, p3, q0, q1, q2, q3 = a
        r0, r1, r2, r3, s0, s1, s2, s3 = b
        # two monomials, each with its one nonzero numerator as its sum; a
        # monomial has a zero among any two coordinates, so dense operands
        # skip the counts
        if not (p0 and p1 or r0 and r1) and a.count(0) == 7 and b.count(0) == 7:
            x, y = sum(a), sum(b)
            m, f = _MONO[a.index(x)][b.index(y)]
            return _monomial(m, x * y * f, self._d * other._d)
        # a rational factor scales the other factor's numerators
        if not (r1 or r2 or r3 or s0 or s1 or s2 or s3):
            return _reduced([r0 * c for c in a], self._d * other._d)
        if not (p1 or p2 or p3 or q0 or q1 or q2 or q3):
            return _reduced([p0 * c for c in b], self._d * other._d)
        # (p + i q)(r + i s) over (1, sqrt2, sqrt3, sqrt6), with
        # sqrt2 sqrt3 = sqrt6, sqrt2 sqrt6 = 2 sqrt3, sqrt3 sqrt6 = 3 sqrt2
        return _reduced((
            p0 * r0 - q0 * s0 + 2 * (p1 * r1 - q1 * s1)
            + 3 * (p2 * r2 - q2 * s2) + 6 * (p3 * r3 - q3 * s3),
            p0 * r1 + p1 * r0 - q0 * s1 - q1 * s0
            + 3 * (p2 * r3 + p3 * r2 - q2 * s3 - q3 * s2),
            p0 * r2 + p2 * r0 - q0 * s2 - q2 * s0
            + 2 * (p1 * r3 + p3 * r1 - q1 * s3 - q3 * s1),
            p0 * r3 + p3 * r0 + p1 * r2 + p2 * r1
            - q0 * s3 - q3 * s0 - q1 * s2 - q2 * s1,
            p0 * s0 + q0 * r0 + 2 * (p1 * s1 + q1 * r1)
            + 3 * (p2 * s2 + q2 * r2) + 6 * (p3 * s3 + q3 * r3),
            p0 * s1 + p1 * s0 + q0 * r1 + q1 * r0
            + 3 * (p2 * s3 + p3 * s2 + q2 * r3 + q3 * r2),
            p0 * s2 + p2 * s0 + q0 * r2 + q2 * r0
            + 2 * (p1 * s3 + p3 * s1 + q1 * r3 + q3 * r1),
            p0 * s3 + p3 * s0 + p1 * s2 + p2 * s1
            + q0 * r3 + q3 * r0 + q1 * r2 + q2 * r1,
        ), self._d * other._d)

    __rmul__ = __mul__

    def conj(self) -> "AlgNum":
        """Complex conjugation (negates the imaginary coordinates)."""
        n = self._n
        return AlgNum._make(n[:4] + tuple(map(neg, n[4:])), self._d)

    def real_part(self) -> "AlgNum":
        """Re x = (x + conj x)/2 as an AlgNum; `re` gives its four Fractions."""
        return (self + self.conj()) * HALF

    def imag_part(self) -> "AlgNum":
        """Im x = (x - conj x)(-i/2) as an AlgNum; `im` gives its four Fractions."""
        return (self - self.conj()) * _MINUS_HALF_I

    def inv(self) -> "AlgNum":
        """Multiplicative inverse.

        A monomial c*r, r one of 1, sqrt2, sqrt3, sqrt6 or i times one of
        them, has the inverse r / (c r^2) with r^2 in {+-1, +-2, +-3, +-6}.
        Any other element goes by iterated conjugation over the tower:
        multiplying by the seven Galois conjugates (sign flips of i, sqrt2,
        sqrt3) turns the denominator into the rational field norm.
        """
        n = self._n
        if n == _ZEROS:
            raise ZeroDivisionError("AlgNum inverse of zero")
        if n.count(0) == 7:
            c = sum(n)
            k = n.index(c)
            # c/d r has the inverse d r / (c r^2): coordinate k stays the
            # only one, and r^2 is the factor of e_k e_k = r^2 e_0
            den = c * _MONO[k][k][1]
            return _monomial(k, self._d if den > 0 else -self._d, abs(den))
        num = AlgNum.of(1)
        cur = self
        # after each step cur is invariant under the flips applied so far,
        # so three steps land it in Q (the field norm up to that subtower)
        for flip in (AlgNum.conj, _flip_r2, _flip_r3):
            other = flip(cur)
            num = num * other
            cur = cur * other
        if not cur.is_rational():
            raise ArithmeticError("norm fell outside Q")  # unreachable
        # the first step makes cur = x * conj(x), positive under every
        # embedding, so the norm p/q is positive and 1/(p/q) = q/p is in
        # lowest terms with a positive denominator
        p, q = cur._n[0], cur._d
        return num * AlgNum._make((q, 0, 0, 0, 0, 0, 0, 0), p)

    def __truediv__(self, other) -> "AlgNum":
        if type(other) is not AlgNum:
            return NotImplemented
        return self * other.inv()

    # -- comparisons / hashing ---------------------------------------
    def __eq__(self, other) -> bool:
        if type(other) is not AlgNum:
            # an int or Fraction compares by value, as Decimal does
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = AlgNum.of(other)
        return self._d == other._d and self._n == other._n

    def __hash__(self):
        # a rational element equals its Fraction, so it must hash like it
        if self.is_rational():
            return hash(Fraction(self._n[0], self._d))
        return hash((self._n, self._d))

    def sign_real(self) -> int:
        """Exact sign of a real element.

        Splits off the sqrt3-part: x = u + v*sqrt3 with u = a + b*sqrt2 and
        v = c + d*sqrt2, and takes the sign of u, of v and of
        u^2 - 3 v^2 = p + q*sqrt2 by the one rule of _surd_sign.
        """
        if not self.is_real():
            raise ValueError("sign of a non-real element")
        # every quantity below is homogeneous in (a, b, c, d), so the
        # numerators over the positive denominator give the same signs
        a, b, c, d = self._n[:4]
        p = a * a + 2 * b * b - 3 * (c * c + 2 * d * d)
        q = 2 * a * b - 6 * c * d
        return _surd_sign(_surd_sign(a, b, a * a - 2 * b * b),
                          _surd_sign(c, d, c * c - 2 * d * d),
                          _surd_sign(p, q, p * p - 2 * q * q))

    # -- serialization ------------------------------------------------
    def serialize(self) -> str:
        """Canonical text form "a+b*r2+c*r3+d*r6+i*(...)" with exact rationals."""
        d = self._d

        def part(coords) -> str:
            labels = ("", "r2", "r3", "r6")
            pieces = []
            for c, lab in zip(coords, labels):
                if c == 0:
                    continue
                g = gcd(c, d)
                q = f"{c // g}/{d // g}" if d != g else str(c // g)
                body = q if not lab else (f"{q}*{lab}" if q != "1" else lab)
                if pieces and not body.startswith("-"):
                    pieces.append("+" + body)
                else:
                    pieces.append(body)
            return "".join(pieces) if pieces else "0"

        n = self._n
        re_s = part(n[:4])
        if not any(n[4:]):
            return re_s
        return f"{re_s}+i*({part(n[4:])})"

    @staticmethod
    def deserialize(text: str) -> "AlgNum":
        """Inverse of serialize: only text that serialize writes back
        unchanged is read; other text, such as "1.5", "1e3", "1_000", "2/4",
        "-0" or "1+i*(0)", raises ValueError, a value that is not a str TypeError."""
        if not isinstance(text, str):
            raise TypeError(f"AlgNum text must be a str, not {type(text).__name__}")
        re_s, sep, im_s = text.partition("+i*(")
        try:
            im = _parse_radical(im_s[:-1], text) if sep else (0, 0, 0, 0)
            x = AlgNum(_parse_radical(re_s, text), im)
        except ZeroDivisionError as exc:
            raise ValueError(f"malformed AlgNum text: {text!r}") from exc
        if x.serialize() != text:
            raise ValueError(f"malformed AlgNum text: {text!r}")
        return x

    def __repr__(self):
        return f"AlgNum({self.serialize()})"


# the slots are set through their member descriptors: AlgNum.__setattr__
# and __delattr__ raise, so an instance is immutable once built
_new = object.__new__
_set_n = AlgNum._n.__set__
_set_d = AlgNum._d.__set__


def _latex_rat(q: Fraction, lead: bool, rad: str) -> str:
    """q times the radical rad, signed unless it leads; no unit q before a radical."""
    sign = "-" if q < 0 else ("" if lead else "+")
    q = abs(q)
    if q == 1 and rad:
        return sign + rad
    body = f"\\frac{{{q.numerator}}}{{{q.denominator}}}" if q.denominator != 1 else str(q.numerator)
    return sign + body + rad


def algnum_latex(x: AlgNum) -> str:
    """Render an exact scalar; pure rationals and pure imaginary rationals
    get the compact forms used in the displayed equations."""
    if x.is_zero():
        return "0"
    parts = []
    radicals = ("", r"\sqrt{2}", r"\sqrt{3}", r"\sqrt{6}")
    for q, rad in zip(x.re, radicals):
        if q:
            parts.append(_latex_rat(q, not parts, rad))
    im = [(q, rad) for q, rad in zip(x.im, radicals) if q]
    if im:
        if len(im) == 1 and not im[0][1]:
            q = im[0][0]
            sign = "-" if q < 0 else ("" if not parts else "+")
            q = abs(q)
            if q == 1:
                parts.append(sign + "i")
            elif q.denominator == 1:
                parts.append(f"{sign}{q.numerator}i")
            else:
                num = "" if q.numerator == 1 else str(q.numerator)
                parts.append(sign + f"\\frac{{{num}i}}{{{q.denominator}}}")
        else:
            inner = "".join(_latex_rat(q, not k, rad) for k, (q, rad) in enumerate(im))
            parts.append(("+" if parts else "") + f"i\\left({inner}\\right)")
    return "".join(parts) or "0"


def _parse_radical(part: str, text: str) -> tuple:
    """The four coordinates of one part of the serialized text; a part that
    is not a sequence of _TERM terms raises ValueError naming the text."""
    coords = [Fraction(0)] * 4
    pos = 0
    while True:
        m = _TERM.match(part, pos)
        if m is None:
            raise ValueError(f"malformed AlgNum text: {text!r}")
        sign, q, label, bare = m.groups()
        coords[_TERM_INDEX[label or bare]] += Fraction(sign + (q or "1"))
        pos = m.end()
        if pos == len(part):
            return tuple(coords)


def _surd_sign(p: int, q: int, norm: int) -> int:
    """Sign of p + q*sqrt(r), r > 0 not a square, from numbers with the signs
    of p, of q and of the norm p^2 - r q^2.  When p and q have opposite
    signs the term with the larger square wins."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp == 0 or sq == 0 or sp == sq:
        return sp or sq
    return sp if norm > 0 else sq


def _combine(x: AlgNum, y: AlgNum, sign: int) -> AlgNum:
    """x + sign * y for sign +1 or -1.  A zero operand costs no arithmetic;
    two monomials add in their one or two coordinates; over one denominator
    the numerators add, with no gcd when it is 1 (the sum of integers is in
    lowest terms); anything else is one cross-multiplied sum."""
    n2 = y._n
    if n2 == _ZEROS:
        return x
    n1 = x._n
    if n1 == _ZEROS:
        return y if sign > 0 else -y
    d1, d2 = x._d, y._d
    # as in __mul__, a dense operand skips the counts
    if not (n1[0] and n1[1]) and n1.count(0) == 7 and n2.count(0) == 7:
        c1, c2 = sum(n1), sum(n2)
        j, k = n1.index(c1), n2.index(c2)
        if j == k:
            c = c1 * d2 + sign * c2 * d1
            return _monomial(k, c, d1 * d2) if c else ZERO
        n = [0] * 8
        n[j], n[k] = c1 * d2, sign * c2 * d1
        return _reduced(n, d1 * d2)
    if d1 == d2:
        n = tuple(map(add if sign > 0 else sub, n1, n2))
        return AlgNum._make(n, 1) if d1 == 1 else _reduced(n, d1)
    e = sign * d1
    return _reduced([a * d2 + b * e for a, b in zip(n1, n2)], d1 * d2)


def _monomial(k: int, c: int, d: int) -> AlgNum:
    """The element c/d e_k, c != 0 and d > 0, in lowest terms."""
    g = gcd(c, d)
    n = [0] * 8
    n[k] = c // g
    return AlgNum._make(tuple(n), d // g)


def _reduced(n, d: int) -> AlgNum:
    """The element n/d, n eight integers, in lowest terms (one gcd over
    all nine integers)."""
    g = gcd(d, *n)
    if g != 1:
        return AlgNum._make(tuple([c // g for c in n]), d // g)
    return AlgNum._make(tuple(n), d)


def _flip_r2(x: AlgNum) -> AlgNum:
    # sqrt2 -> -sqrt2 also flips sqrt6 = sqrt2*sqrt3
    n = x._n
    return AlgNum._make((n[0], -n[1], n[2], -n[3], n[4], -n[5], n[6], -n[7]), x._d)


def _flip_r3(x: AlgNum) -> AlgNum:
    n = x._n
    return AlgNum._make((n[0], n[1], -n[2], -n[3], n[4], n[5], -n[6], -n[7]), x._d)


# convenient module-level constants
ZERO = AlgNum.of(0)
ONE = AlgNum.of(1)
I = AlgNum.i()
SQRT2 = AlgNum.sqrt2()
HALF = AlgNum.of(Fraction(1, 2))
_MINUS_HALF_I = AlgNum.i(Fraction(-1, 2))
