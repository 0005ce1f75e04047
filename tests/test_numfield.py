"""Field arithmetic: axioms, the float embedding oracle, serialization."""

import math
import operator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cartancr.numfield import AlgNum, ZERO, ONE, I, HALF, SQRT2

SQRT3, SQRT6 = AlgNum.sqrt3(), AlgNum.sqrt6()

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _over_one_denominator(d):
    # eight numerators in [-4d, 4d] over d; with d = 60 = lcm(1..6) these
    # include every value `fractions` can draw, at a fraction of its cost
    return st.lists(st.integers(-4 * d, 4 * d), min_size=8, max_size=8).map(
        lambda n: AlgNum([Fraction(k, d) for k in n[:4]], [Fraction(k, d) for k in n[4:]]))


algnums = st.sampled_from((1, 2, 3, 4, 5, 6, 60)).flatmap(_over_one_denominator)
nonzero = algnums.filter(lambda x: not x.is_zero())


@given(algnums, algnums, algnums)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(nonzero)
def test_multiplicative_inverse(a):
    assert a * a.inv() == ONE
    assert a.inv().inv() == a


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@pytest.mark.parametrize("re, im", [((1, 2, 3), (0, 0, 0, 0)), ((0, 0, 0, 0), (1,) * 5)])
def test_constructor_needs_four_coordinates_per_part(re, im):
    with pytest.raises(ValueError, match="4 real and 4 imaginary"):
        AlgNum(re, im)


@given(algnums)
def test_real_and_imaginary_parts_are_field_elements(a):
    re, im = a.real_part(), a.imag_part()
    assert re == AlgNum(a.re) and im == AlgNum(a.im)
    assert re.is_real() and im.is_real()
    assert a == re + I * im


def _flip(y, signs):
    # y with its coordinates over (1, sqrt2, sqrt3, sqrt6) times the signs
    return AlgNum(*(tuple(c * s for c, s in zip(part, signs)) for part in (y.re, y.im)))


def _tower_inv(x):
    # the reference: multiply by the conjugate under i -> -i, then under
    # sqrt2 -> -sqrt2, then under sqrt3 -> -sqrt3, until the denominator is
    # the rational norm
    num, cur = ONE, x
    for step in (AlgNum.conj, lambda y: _flip(y, (1, -1, 1, -1)),
                 lambda y: _flip(y, (1, 1, -1, -1))):
        other = step(cur)
        num, cur = num * other, cur * other
    assert cur.is_rational()
    return num * AlgNum.of(1 / cur.re[0])


@pytest.mark.parametrize("k", range(8))
@given(q=st.fractions(min_value=0, max_value=10**6, max_denominator=10**6).filter(bool))
def test_monomial_inverse_matches_the_tower_norm(k, q):
    # q r and -q r for r = 1, sqrt2, sqrt3, sqrt6, i, ..., i sqrt6
    for x in (_one_coordinate(k, q), _one_coordinate(k, -q)):
        got = x.inv()
        assert _canonical(got)
        assert got.serialize() == _tower_inv(x).serialize()
        assert sum(1 for c in got.re + got.im if c) == 1


@given(algnums, algnums)
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


_RADICALS = (1.0, math.sqrt(2), math.sqrt(3), math.sqrt(6))


def _complex(x):
    # the float image under the standard embedding, read off the exact
    # coordinates over (1, sqrt2, sqrt3, sqrt6): the oracle of these tests
    re = sum(float(c) * r for c, r in zip(x.re, _RADICALS))
    im = sum(float(c) * r for c, r in zip(x.im, _RADICALS))
    return complex(re, im)


def _size(x):
    # sum of |coordinate| * radical: bounds the rounding error of _complex
    return sum(abs(float(c)) * r for c, r in zip(x.re + x.im, _RADICALS * 2))


@given(algnums, algnums)
@settings(max_examples=200)
def test_float_embedding(a, b):
    za, zb = _complex(a), _complex(b)
    scale = max(1.0, abs(za), abs(zb))
    assert abs(_complex(a + b) - (za + zb)) < 1e-12 * scale
    assert abs(_complex(a * b) - (za * zb)) < 1e-12 * scale * scale


def _fraction_coordinates(x):
    return (len(x.re) == len(x.im) == 4
            and all(isinstance(c, Fraction) for c in x.re + x.im))


@given(algnums, nonzero, st.one_of(fractions, st.integers(-10, 10)))
@example(ONE, I, 0)     # sparse operands leave most product coordinates untouched
def test_ring_operations_return_fraction_coordinates(a, b, q):
    # the ring operations build results with the trusted constructor, which
    # stores its tuples as given: every coordinate must already be a Fraction
    za, zb, p = _complex(a), _complex(b), AlgNum.of(q)
    tol = 1e-12 * (1.0 + _size(a)) * (1.0 + _size(b)) * (1.0 + abs(q))
    expected = {
        "a + b": (a + b, za + zb), "a - b": (a - b, za - zb), "-a": (-a, -za),
        "a * b": (a * b, za * zb), "conj a": (a.conj(), za.conjugate()),
        "a + q": (a + p, za + q), "q + a": (p + a, q + za),
        "q - a": (p - a, q - za), "q * a": (p * a, q * za),
    }
    for name, (got, want) in expected.items():
        assert _fraction_coordinates(got), name
        assert abs(_complex(got) - want) <= tol + 1e-12 * _size(got), name
    inv, quo = b.inv(), a / b
    for name, got in (("inv b", inv), ("a / b", quo)):
        assert _fraction_coordinates(got), name
    assert abs(_complex(inv) * zb - 1) <= 1e-12 * (1.0 + _size(inv) * _size(b))
    assert abs(_complex(quo) * zb - za) <= 1e-12 * (_size(a) + _size(quo) * _size(b))


# products of the radical basis (1, sqrt2, sqrt3, sqrt6), written out:
# [i][j] -> (rational factor, index of the radical); _ref_mul reads the
# product from this table, an oracle independent of the closed form
# that AlgNum.__mul__ writes out
_RADICAL_PRODUCT = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (2, 0), (1, 3), (2, 2)),
    ((1, 2), (1, 3), (3, 0), (3, 1)),
    ((1, 3), (2, 2), (3, 1), (6, 0)),
)


def _ref(x):
    """An element as 8 Fractions (real coordinates, then imaginary)."""
    return x.re + x.im


def _ref_mul(a, b):
    out = [Fraction(0)] * 8
    for i in range(4):
        for j in range(4):
            fac, k = _RADICAL_PRODUCT[i][j]
            out[k] += fac * (a[i] * b[j] - a[i + 4] * b[j + 4])
            out[k + 4] += fac * (a[i] * b[j + 4] + a[i + 4] * b[j])
    return tuple(out)


def _ref_inv(b):
    """Solve b * x = 1 as an 8x8 rational system by Gauss-Jordan elimination."""
    units = [tuple(Fraction(int(k == n)) for k in range(8)) for n in range(8)]
    columns = [_ref_mul(b, u) for u in units]          # column n is b * e_n
    rows = [[columns[n][k] for n in range(8)] + [Fraction(int(k == 0))]
            for k in range(8)]
    for col in range(8):
        pivot = next(r for r in range(col, 8) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(8):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return tuple(row[8] for row in rows)


_nonzero_coords = st.one_of(
    fractions, st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
).filter(lambda q: q != 0)
_eight = st.lists(_nonzero_coords, min_size=8, max_size=8)


def _one_coordinate(k, q):
    coords = [0] * 8
    coords[k] = q
    return AlgNum(coords[:4], coords[4:])


_integer_eight = st.lists(st.integers(-10**6, 10**6), min_size=8, max_size=8)

# the operand shapes the package multiplies: dense (seeded bench inputs),
# one coordinate (the basis normalizers), rational, purely imaginary, zero;
# integer coordinates (denominator 1) and a shared denominator 6 reach the
# sums that add numerators without cross-multiplying
shaped = st.one_of(
    _eight.map(lambda c: AlgNum(c[:4], c[4:])),
    st.builds(_one_coordinate, st.integers(0, 7), _nonzero_coords),
    _nonzero_coords.map(AlgNum.of),
    _eight.map(lambda c: AlgNum((0, 0, 0, 0), c[4:])),
    st.just(ZERO),
    _integer_eight.map(lambda c: AlgNum(c[:4], c[4:])),
    st.integers(-10**6, 10**6).map(AlgNum.of),
    _over_one_denominator(6),
)


@given(shaped, shaped)
# a rational factor whose scaled numerators must be reduced: 2/3 * 3/4 r2
@example(AlgNum.of(Fraction(2, 3)), AlgNum.sqrt2(Fraction(3, 4)))
@example(AlgNum.sqrt2(Fraction(3, 4)), AlgNum.of(Fraction(2, 3)))
# rational times rational giving an integer
@example(AlgNum.of(Fraction(2, 3)), AlgNum.of(Fraction(-3, 2)))
def test_product_matches_the_radical_table(x, y):
    got = x * y
    assert _canonical(got)
    assert _ref(got) == _ref_mul(_ref(x), _ref(y))
    tol = 1e-12 * (1.0 + _size(x)) * (1.0 + _size(y))
    assert abs(_complex(got) - _complex(x) * _complex(y)) <= tol


# monomial coefficients: units, and pairs whose products and sums need a gcd
_MONOMIAL_COEFFS = (1, -1, 6, Fraction(2, 3), Fraction(-3, 4), Fraction(1, 6))


def test_monomial_products_match_the_radical_table():
    # all 8 x 8 pairs of basis elements 1, sqrt2, sqrt3, sqrt6, i, ..., i*sqrt6
    for j in range(8):
        for k in range(8):
            for p in _MONOMIAL_COEFFS:
                for q in _MONOMIAL_COEFFS:
                    x, y = _one_coordinate(j, p), _one_coordinate(k, q)
                    got = x * y
                    assert _canonical(got) and not got.is_zero(), (j, k, p, q)
                    assert _ref(got) == _ref_mul(_ref(x), _ref(y)), (j, k, p, q)
    # with test_radical_relations (sqrt2 sqrt6 = 2 sqrt3, ..., i i = -1):
    # sqrt6/6 * sqrt6/6 = 6/36 is stored reduced, as 1/6
    got = AlgNum.sqrt6(Fraction(1, 6)) * AlgNum.sqrt6(Fraction(1, 6))
    assert (got._n, got._d) == ((1, 0, 0, 0, 0, 0, 0, 0), 6)


def test_monomial_sums_match_the_fraction_reference():
    # over the same radical, p = q cancels in x - y and p = -q in x + y, and
    # 1/6 + 1/6 = 1/3 needs a gcd; other radicals give two coordinates
    for j in range(8):
        for k in range(8):
            for p in _MONOMIAL_COEFFS:
                for q in _MONOMIAL_COEFFS + (-6, Fraction(-1, 6)):
                    x, y = _one_coordinate(j, p), _one_coordinate(k, q)
                    rx, ry = _ref(x), _ref(y)
                    for got, want in ((x + y, tuple(a + b for a, b in zip(rx, ry))),
                                      (x - y, tuple(a - b for a, b in zip(rx, ry)))):
                        assert _canonical(got) and _ref(got) == want, (j, k, p, q)
    got = AlgNum.sqrt2(Fraction(1, 6)) + AlgNum.sqrt2(Fraction(1, 6))
    assert (got._n, got._d) == ((0, 1, 0, 0, 0, 0, 0, 0), 3)
    zero = SQRT2 - SQRT2
    assert (zero._n, zero._d) == ((0,) * 8, 1)


@given(shaped, shaped)
# integer sums and differences that cancel to zero
@example(AlgNum((3, -1, 0, 2), (0, 0, 5, 0)), AlgNum((-3, 1, 0, -2), (0, 0, -5, 0)))
@example(AlgNum.of(7), AlgNum.of(-7))
# one denominator whose sum must be reduced: 1/6 + 1/6 r2 and 1/6 - 1/6 r2
@example(AlgNum((Fraction(1, 6), Fraction(1, 6), 0, 0)),
         AlgNum((Fraction(1, 6), Fraction(-1, 6), 0, 0)))
def test_sums_and_differences_match_the_fraction_reference(x, y):
    rx, ry = _ref(x), _ref(y)
    for got, want in ((x + y, tuple(a + b for a, b in zip(rx, ry))),
                      (x - y, tuple(a - b for a, b in zip(rx, ry))),
                      (y - x, tuple(b - a for a, b in zip(rx, ry)))):
        assert _canonical(got)
        assert _ref(got) == want


@given(shaped, st.one_of(st.integers(-10**6, 10**6), fractions))
@example(AlgNum.sqrt2(Fraction(3, 4)), 2)
@example(AlgNum.sqrt2(Fraction(3, 4)), Fraction(2, 3))
@example(AlgNum.of(Fraction(3, 2)), Fraction(3, 2))
@example(AlgNum.of(5), 5)
@example(AlgNum.of(Fraction(1, 2)), 0)
def test_int_and_fraction_operands_on_either_side(x, q):
    # a rational enters the field through AlgNum.of; as a bare operand of
    # + - * / it raises TypeError on either side, while == reads its value
    p, rx, rq = AlgNum.of(q), _ref(x), (Fraction(q),) + (Fraction(0),) * 7
    for got, want in ((x + p, tuple(a + b for a, b in zip(rx, rq))),
                      (p + x, tuple(a + b for a, b in zip(rx, rq))),
                      (x - p, tuple(a - b for a, b in zip(rx, rq))),
                      (p - x, tuple(b - a for a, b in zip(rx, rq))),
                      (x * p, tuple(a * q for a in rx)),
                      (p * x, tuple(a * q for a in rx))):
        assert _canonical(got)
        assert _ref(got) == want
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x, q)
        with pytest.raises(TypeError):
            op(q, x)
    assert (x == q) == (q == x) == (rx == rq)
    assert p == q and q == p and hash(p) == hash(q)


def test_elements_are_immutable():
    a = AlgNum((1, Fraction(1, 2), 0, 0), (0, 0, 3, 0))
    b = AlgNum.sqrt2(Fraction(3, 4))
    m, n = AlgNum((2, 0, -1, 0)), AlgNum((0, 5, 0, 0), (1, 0, 0, 0))
    two = AlgNum.of(2)
    values = {
        "constructed": a, "of": AlgNum.of(Fraction(2, 3)), "a + b": a + b,
        "a - b": a - b, "m + n": m + n, "m - n": m - n, "a + 1": a + ONE,
        "1 - a": ONE - a, "-a": -a, "a * b": a * b, "a * 2": a * two,
        "2 * a": two * a, "a * 0": a * ZERO, "a + 0": a + ZERO, "a - a": a - a,
        "a / b": a / b, "1 / a": ONE / a, "inv a": a.inv(), "conj a": a.conj(),
    }
    for name, x in values.items():
        text = x.serialize()
        for attr in ("_n", "_d", "extra"):
            with pytest.raises(AttributeError):
                setattr(x, attr, (0,) * 8 if attr == "_n" else 1)
        # del would empty a slot through its descriptor, leaving an element
        # that no operation can read
        with pytest.raises(AttributeError, match="immutable"):
            del x._n
        with pytest.raises(AttributeError, match="immutable"):
            del x._d
        assert x.serialize() == text and _canonical(x), name
        assert x + x == two * x and x - x == 0, name


def _canonical(x):
    # eight ints over a positive denominator, in lowest terms
    n, d = x._n, x._d
    return (len(n) == 8 and all(type(c) is int for c in n + (d,))
            and d > 0 and math.gcd(d, *n) == 1)


# mixed and large denominators, with zero coordinates common
wide = st.one_of(st.just(0), st.integers(-10**12, 10**12), fractions,
                 st.fractions(min_value=-10**6, max_value=10**6,
                              max_denominator=10**6))
wide_coords = st.tuples(wide, wide, wide, wide)
wide_algnums = st.builds(lambda re, im: AlgNum(re, im), wide_coords, wide_coords)
wide_nonzero = wide_algnums.filter(lambda x: not x.is_zero())


@given(wide_algnums, wide_nonzero)
@example(ONE, I)
@example(ZERO, AlgNum((0, Fraction(1, 999983), 0, 0), (0, 0, 0, Fraction(-7, 10**6))))
def test_ring_operations_match_fraction_reference(a, b):
    ra, rb = _ref(a), _ref(b)
    inv_b = _ref_inv(rb)
    zero = (Fraction(0),) * 8
    expected = {
        "a + b": (a + b, tuple(x + y for x, y in zip(ra, rb))),
        "a - b": (a - b, tuple(x - y for x, y in zip(ra, rb))),
        "-a": (-a, tuple(-x for x in ra)),
        "a * b": (a * b, _ref_mul(ra, rb)),
        "conj a": (a.conj(), ra[:4] + tuple(-x for x in ra[4:])),
        "inv b": (b.inv(), inv_b),
        "a / b": (a / b, _ref_mul(ra, inv_b)),
        # a zero operand skips the arithmetic: the result is an operand,
        # its negative, or zero
        "a * 0": (a * ZERO, zero),
        "0 * a": (ZERO * a, zero),
        "a - 0": (a - ZERO, ra),
        "0 - a": (ZERO - a, tuple(-x for x in ra)),
        "a - a": (a - a, zero),
        "b - b": (b - b, zero),
    }
    for name, (got, want) in expected.items():
        # lowest terms, so zero is eight zeros over 1
        assert _canonical(got), name
        assert _ref(got) == want, name
        assert hash(got) == hash(AlgNum(want[:4], want[4:])), name
    assert _ref_mul(rb, inv_b) == _ref(ONE)


@given(wide_algnums, wide_nonzero)
def test_equal_values_from_different_paths_are_equal_and_hash_alike(a, b):
    for got, want in (((a * b) / b, a), ((a + b) - b, a), (a - a, ZERO),
                      (a - a, 0), (b / b, ONE), (b / b, 1)):
        assert got == want
        assert hash(got) == hash(want)
        assert _canonical(got)


@given(wide_algnums)
def test_adding_zero_returns_the_other_operand(a):
    for got in (ZERO + a, a + ZERO, a + AlgNum.of(Fraction(0)), a - ZERO):
        assert got == a and hash(got) == hash(a)


@pytest.mark.parametrize("bad", [0.1, 0.5, 1j, "1", Decimal("0.5"), None])
def test_constructor_rejects_non_rational_coordinates(bad):
    with pytest.raises(TypeError):
        AlgNum((bad, 0, 0, 0))
    with pytest.raises(TypeError):
        AlgNum(im=(0, 0, 0, bad))
    with pytest.raises(TypeError):
        AlgNum.of(bad)


@pytest.mark.parametrize("bad", [0.5, 1j, "1", Decimal("0.5"), None])
def test_arithmetic_with_non_rationals_raises_type_error(bad):
    a = AlgNum((1, Fraction(1, 2), 0, 0), (0, 0, 3, 0))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(a, bad)
        with pytest.raises(TypeError):
            op(bad, a)
    assert a != bad and not a == bad


@given(algnums)
def test_serialization_roundtrip(a):
    assert AlgNum.deserialize(a.serialize()) == a


def test_radical_relations():
    assert SQRT2 * SQRT2 == AlgNum.of(2)
    assert SQRT3 * SQRT3 == AlgNum.of(3)
    assert SQRT6 * SQRT6 == AlgNum.of(6)
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT6 == AlgNum.of(2) * SQRT3
    assert SQRT3 * SQRT6 == AlgNum.of(3) * SQRT2
    assert I * I == AlgNum.of(-1)


def test_exact_real_sign():
    # sqrt6 - sqrt2 - sqrt3 + 1 is a small positive number (about 0.3)
    x = SQRT6 - SQRT2 - SQRT3 + ONE
    assert x.sign_real() == 1
    assert (-x).sign_real() == -1
    assert (x - x).sign_real() == 0
    val = _complex(x).real
    assert 0 < val < 0.5 and math.copysign(1, val) == 1


@given(st.tuples(*[st.integers(-100, 100)] * 4).map(AlgNum))
@example(AlgNum.of(99) - AlgNum.sqrt2(70))
@example(AlgNum.of(49) - AlgNum.sqrt6(20))
@example((SQRT2 + SQRT3) * (SQRT2 + SQRT3) - AlgNum.of(5) - AlgNum.sqrt6(2))
def test_real_sign_matches_float_sign(x):
    # a nonzero element with integer coordinates in [-100, 100] has a
    # nonzero integer norm and conjugates below 660, so its absolute value
    # is above 660**-3 > 3e-9, far beyond the rounding error of _complex
    val = _complex(x).real
    if x.is_zero():
        assert x.sign_real() == 0
    else:
        assert x.sign_real() == math.copysign(1, val) and abs(val) > 1e-9


def test_sign_rejects_nonreal():
    with pytest.raises(ValueError):
        I.sign_real()


def test_division():
    a = AlgNum.sqrt3(Fraction(1, 6)) + I
    b = SQRT2 - I * SQRT6
    assert (a / b) * b == a


@given(st.one_of(fractions, st.integers(min_value=-10**6, max_value=10**6)))
def test_rational_elements_hash_like_their_value(q):
    assert AlgNum.of(q) == q
    assert hash(AlgNum.of(q)) == hash(q)


def test_rational_element_and_int_are_one_set_member():
    assert len({AlgNum.of(1), 1}) == 1
    assert len({AlgNum.of(Fraction(1, 2)), Fraction(1, 2), HALF}) == 1


_TOKENS = ("0", "1", "2", "3", "6", "7", "10", "+", "-", "*", "/", "(", ")",
           "i", "r", "r2", "r3", "r6", "+i*(")


@given(st.one_of(st.text(alphabet="0123456789+-*/()ir"),
                 st.lists(st.sampled_from(_TOKENS)).map("".join)))
@example("1/2*r2-r6+i*(-3*r3+1/5)")
@example("1+i*(2/0*r3)")
def test_deserialize_raises_value_error_or_round_trips(text):
    # malformed text must fail with ValueError and nothing else; what
    # parses must survive serialize -> deserialize unchanged
    try:
        x = AlgNum.deserialize(text)
    except ValueError:
        return
    assert _canonical(x)
    assert AlgNum.deserialize(x.serialize()) == x


@pytest.mark.parametrize("text", ["1*r7", "i*(1)", "1+i*(2", "1*", "r5",
                                  "1/0", "1+i*(2))", "1+i*(2)+i*(3)",
                                  "", "1+i*()", "+i*(1)", "1.5", "1e3",
                                  "2.5*r3", "1_000", "+1", "1 2", "1r2",
                                  # values serialize spells another way
                                  "2/4", "007", "-0", "0/5", "1*r2", "-r2",
                                  "1+1", "r2+r2", "1-1", "1+i*(0)"])
def test_deserialize_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        AlgNum.deserialize(text)


def test_known_serializations():
    cases = {
        ONE: "1",
        -ONE: "-1",
        HALF: "1/2",
        I: "0+i*(1)",
        -I: "0+i*(-1)",
        I * HALF: "0+i*(1/2)",
        AlgNum.sqrt2(Fraction(1, 2)): "1/2*r2",
        AlgNum.i(-2): "0+i*(-2)",
    }
    for value, text in cases.items():
        assert value.serialize() == text
        assert AlgNum.deserialize(text) == value
