"""Exact arithmetic in the degree-8 number field Q(i, sqrt2, sqrt3).

Every coefficient that occurs anywhere in this package (1/sqrt6,
1/sqrt12 = sqrt3/6, i/2, sqrt2, ...) lives in this one field, so no
general number-field machinery is needed.  An element is stored as eight
fully reduced rationals: the real and imaginary parts each expand over
the radical basis (1, sqrt2, sqrt3, sqrt6).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg
from typing import Union

# radical basis indices
_ONE, _R2, _R3, _R6 = 0, 1, 2, 3

# multiplication table for the radical basis: (i, j) -> (rational factor, index)
# sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2*sqrt3, sqrt3*sqrt6 = 3*sqrt2
_RADICAL_MUL = {
    (_ONE, _ONE): (1, _ONE), (_ONE, _R2): (1, _R2), (_ONE, _R3): (1, _R3), (_ONE, _R6): (1, _R6),
    (_R2, _R2): (2, _ONE), (_R2, _R3): (1, _R6), (_R2, _R6): (2, _R3),
    (_R3, _R3): (3, _ONE), (_R3, _R6): (3, _R2),
    (_R6, _R6): (6, _ONE),
}

_RADICAL_FLOAT = (1.0, 2 ** 0.5, 3 ** 0.5, 6 ** 0.5)

Rat = Union[int, Fraction]


def _rad_mul(i: int, j: int) -> tuple[int, int]:
    if i > j:
        i, j = j, i
    return _RADICAL_MUL[(i, j)]


class AlgNum:
    """An element of Q(i, sqrt2, sqrt3).

    Immutable.  `re` and `im` are 4-tuples of Fractions giving the
    coordinates over (1, sqrt2, sqrt3, sqrt6); the representation is
    unique, so equality and zero tests are coordinate-wise.  Coordinates
    must be exact rationals (int or Fraction); anything else raises
    TypeError.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=(0, 0, 0, 0), im=(0, 0, 0, 0)):
        re, im = tuple(re), tuple(im)
        if len(re) != 4 or len(im) != 4:
            raise ValueError("AlgNum needs 4 real and 4 imaginary coordinates")
        for x in re + im:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"AlgNum coordinates must be int or Fraction, "
                                f"not {type(x).__name__}")
        object.__setattr__(self, "re", tuple(map(Fraction, re)))
        object.__setattr__(self, "im", tuple(map(Fraction, im)))

    @staticmethod
    def _raw(re: tuple, im: tuple) -> "AlgNum":
        """Trusted constructor for the ring operations: `re` and `im` must
        already be 4-tuples of Fraction, and are stored as they are."""
        x = object.__new__(AlgNum)
        object.__setattr__(x, "re", re)
        object.__setattr__(x, "im", im)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("AlgNum is immutable")

    # -- constructors ------------------------------------------------
    @staticmethod
    def of(q: Rat) -> "AlgNum":
        return AlgNum((q, 0, 0, 0))

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
        return not any(self.re) and not any(self.im)

    def is_rational(self) -> bool:
        return (self.re[1:] == (0, 0, 0) and self.im == (0, 0, 0, 0))

    def is_real(self) -> bool:
        return self.im == (0, 0, 0, 0)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return self.re[0]

    # -- ring ops ----------------------------------------------------
    def __add__(self, other) -> "AlgNum":
        if not isinstance(other, (AlgNum, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return AlgNum._raw(tuple(map(add, self.re, other.re)),
                           tuple(map(add, self.im, other.im)))

    __radd__ = __add__

    def __neg__(self) -> "AlgNum":
        return AlgNum._raw(tuple(map(neg, self.re)), tuple(map(neg, self.im)))

    def __sub__(self, other) -> "AlgNum":
        if not isinstance(other, (AlgNum, int, Fraction)):
            return NotImplemented
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "AlgNum":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "AlgNum":
        if not isinstance(other, (AlgNum, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        re = [Fraction(0)] * 4
        im = [Fraction(0)] * 4
        for i in range(4):
            a_re, a_im = self.re[i], self.im[i]
            if a_re == 0 and a_im == 0:
                continue
            for j in range(4):
                b_re, b_im = other.re[j], other.im[j]
                if b_re == 0 and b_im == 0:
                    continue
                fac, k = _rad_mul(i, j)
                re[k] += fac * (a_re * b_re - a_im * b_im)
                im[k] += fac * (a_re * b_im + a_im * b_re)
        return AlgNum._raw(tuple(re), tuple(im))

    __rmul__ = __mul__

    def conj(self) -> "AlgNum":
        """Complex conjugation (negates the imaginary coordinates)."""
        return AlgNum._raw(self.re, tuple(map(neg, self.im)))

    def inv(self) -> "AlgNum":
        """Multiplicative inverse by iterated conjugation over the tower.

        Multiplying by the seven Galois conjugates (sign flips of i,
        sqrt2, sqrt3) turns the denominator into the rational field norm.
        """
        if self.is_zero():
            raise ZeroDivisionError("AlgNum inverse of zero")
        num = AlgNum.of(1)
        cur = self
        # after each step cur is invariant under the flips applied so far,
        # so three steps land it in Q (the field norm up to that subtower)
        for flip in (_flip_i, _flip_r2, _flip_r3):
            other = flip(cur)
            num = num * other
            cur = cur * other
        if not cur.is_rational():
            raise ArithmeticError("norm fell outside Q")  # unreachable
        return num * AlgNum.of(Fraction(1, 1) / cur.rational_value())

    def __truediv__(self, other) -> "AlgNum":
        return self * _coerce(other).inv()

    def __rtruediv__(self, other) -> "AlgNum":
        return _coerce(other) * self.inv()

    # -- comparisons / hashing ---------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = AlgNum.of(other)
        if not isinstance(other, AlgNum):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a rational element equals its Fraction, so it must hash like it
        if self.is_rational():
            return hash(self.re[0])
        return hash((self.re, self.im))

    # -- embeddings ---------------------------------------------------
    def to_complex(self) -> complex:
        """Floating-point image under the standard embedding (test oracle only)."""
        re = sum(float(c) * r for c, r in zip(self.re, _RADICAL_FLOAT))
        im = sum(float(c) * r for c, r in zip(self.im, _RADICAL_FLOAT))
        return complex(re, im)

    def sign_real(self) -> int:
        """Exact sign of a real element.

        Splits off the sqrt3-part: x = (a + b*sqrt2) + (c + d*sqrt2)*sqrt3,
        compares squares with exact rational arithmetic, recursing the same
        trick on Q(sqrt2).
        """
        if not self.is_real():
            raise ValueError("sign of a non-real element")
        a, b, c, d = self.re

        def sign_q_sqrt2(p: Fraction, q: Fraction) -> int:
            # sign of p + q*sqrt2
            if q == 0:
                return (p > 0) - (p < 0)
            if p == 0:
                return (q > 0) - (q < 0)
            if p > 0 and q > 0:
                return 1
            if p < 0 and q < 0:
                return -1
            # opposite signs: compare p^2 with 2 q^2; sign follows the larger
            lead = (p > 0) - (p < 0)
            return lead if p * p > 2 * q * q else -lead

        s1 = sign_q_sqrt2(a, b)          # u = a + b sqrt2
        s2 = sign_q_sqrt2(c, d)          # v = c + d sqrt2 (coefficient of sqrt3)
        if s2 == 0:
            return s1
        if s1 == 0:
            return s2
        if s1 == s2:
            return s1
        # u and v*sqrt3 have opposite signs: compare u^2 with 3 v^2
        u2p = a * a + 2 * b * b
        u2q = 2 * a * b
        v2p = 3 * (c * c + 2 * d * d)
        v2q = 6 * c * d
        return s1 if sign_q_sqrt2(u2p - v2p, u2q - v2q) > 0 else -s1

    # -- serialization ------------------------------------------------
    def serialize(self) -> str:
        """Canonical text form "a+b*r2+c*r3+d*r6+i*(...)" with exact rationals."""
        def part(coords) -> str:
            labels = ("", "r2", "r3", "r6")
            pieces = []
            for c, lab in zip(coords, labels):
                if c == 0:
                    continue
                body = str(c) if not lab else (f"{c}*{lab}" if c != 1 else lab)
                if pieces and not body.startswith("-"):
                    pieces.append("+" + body)
                else:
                    pieces.append(body)
            return "".join(pieces) if pieces else "0"

        re_s = part(self.re)
        if self.im == (0, 0, 0, 0):
            return re_s
        return f"{re_s}+i*({part(self.im)})"

    @staticmethod
    def deserialize(text: str) -> "AlgNum":
        """Inverse of serialize; malformed text raises ValueError."""
        text = text.replace(" ", "")
        re_s, sep, im_s = text.partition("+i*(")
        if sep and not im_s.endswith(")"):
            raise ValueError(f"malformed AlgNum text: {text!r}")
        try:
            im = _parse_radical(im_s[:-1]) if sep else (0, 0, 0, 0)
            return AlgNum(_parse_radical(re_s), im)
        except ZeroDivisionError as exc:
            raise ValueError(f"malformed AlgNum text: {text!r}") from exc

    def __repr__(self):
        return f"AlgNum({self.serialize()})"


def _parse_radical(text: str) -> tuple:
    coords = [Fraction(0)] * 4
    # serialize writes a zero part as "0"; an empty part is malformed
    if text == "0":
        return tuple(coords)
    # split into signed terms
    terms, cur = [], ""
    for ch in text:
        if ch in "+-" and cur and cur[-1] not in "+-*/":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    index = {"": _ONE, "r2": _R2, "r3": _R3, "r6": _R6}
    for term in terms:
        if term in ("+", "-", ""):
            raise ValueError(f"malformed AlgNum text: {text!r}")
        if "*" in term:
            coef, lab = term.split("*")
            if lab not in ("r2", "r3", "r6"):
                raise ValueError(f"malformed AlgNum text: {text!r}")
            coords[index[lab]] += Fraction(coef)
        elif term.lstrip("+-") in ("r2", "r3", "r6"):
            sign = -1 if term.startswith("-") else 1
            coords[index[term.lstrip("+-")]] += sign
        else:
            coords[_ONE] += Fraction(term)
    return tuple(coords)


def _coerce(x) -> AlgNum:
    if isinstance(x, AlgNum):
        return x
    if isinstance(x, (int, Fraction)):
        return AlgNum.of(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to AlgNum")


def _flip_i(x: AlgNum) -> AlgNum:
    return x.conj()


def _flip_r2(x: AlgNum) -> AlgNum:
    # sqrt2 -> -sqrt2 also flips sqrt6 = sqrt2*sqrt3
    return AlgNum._raw((x.re[0], -x.re[1], x.re[2], -x.re[3]),
                       (x.im[0], -x.im[1], x.im[2], -x.im[3]))


def _flip_r3(x: AlgNum) -> AlgNum:
    return AlgNum._raw((x.re[0], x.re[1], -x.re[2], -x.re[3]),
                       (x.im[0], x.im[1], -x.im[2], -x.im[3]))


# convenient module-level constants
ZERO = AlgNum.of(0)
ONE = AlgNum.of(1)
I = AlgNum.i()
SQRT2 = AlgNum.sqrt2()
SQRT3 = AlgNum.sqrt3()
SQRT6 = AlgNum.sqrt6()
HALF = AlgNum.of(Fraction(1, 2))
