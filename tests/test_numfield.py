"""Field arithmetic: axioms, the float embedding oracle, serialization."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cartancr.numfield import AlgNum, ZERO, ONE, I, HALF, SQRT2, SQRT3, SQRT6

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
coords = st.tuples(fractions, fractions, fractions, fractions)
algnums = st.builds(lambda re, im: AlgNum(re, im), coords, coords)
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


@given(algnums, algnums)
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


@given(algnums, algnums)
@settings(max_examples=200)
def test_float_embedding(a, b):
    za, zb = a.to_complex(), b.to_complex()
    scale = max(1.0, abs(za), abs(zb))
    assert abs((a + b).to_complex() - (za + zb)) < 1e-12 * scale
    assert abs((a * b).to_complex() - (za * zb)) < 1e-12 * scale * scale


_RADICALS = (1.0, math.sqrt(2), math.sqrt(3), math.sqrt(6))


def _size(x):
    # sum of |coordinate| * radical: bounds the rounding error of to_complex
    return sum(abs(float(c)) * r for c, r in zip(x.re + x.im, _RADICALS * 2))


def _fraction_coordinates(x):
    return (len(x.re) == len(x.im) == 4
            and all(isinstance(c, Fraction) for c in x.re + x.im))


@given(algnums, nonzero, st.one_of(fractions, st.integers(-10, 10)))
@example(ONE, I, 0)     # sparse operands leave most product coordinates untouched
def test_ring_operations_return_fraction_coordinates(a, b, q):
    # the ring operations build results with the trusted constructor, which
    # stores its tuples as given: every coordinate must already be a Fraction
    za, zb = a.to_complex(), b.to_complex()
    tol = 1e-12 * (1.0 + _size(a)) * (1.0 + _size(b)) * (1.0 + abs(q))
    expected = {
        "a + b": (a + b, za + zb), "a - b": (a - b, za - zb), "-a": (-a, -za),
        "a * b": (a * b, za * zb), "conj a": (a.conj(), za.conjugate()),
        "a + q": (a + q, za + q), "q + a": (q + a, q + za),
        "q - a": (q - a, q - za), "q * a": (q * a, q * za),
    }
    for name, (got, want) in expected.items():
        assert _fraction_coordinates(got), name
        assert abs(got.to_complex() - want) <= tol + 1e-12 * _size(got), name
    inv, quo = b.inv(), a / b
    for name, got in (("inv b", inv), ("a / b", quo)):
        assert _fraction_coordinates(got), name
    assert abs(inv.to_complex() * zb - 1) <= 1e-12 * (1.0 + _size(inv) * _size(b))
    assert abs(quo.to_complex() * zb - za) <= 1e-12 * (_size(a) + _size(quo) * _size(b))


@pytest.mark.parametrize("bad", [0.1, 0.5, 1j, "1", Decimal("0.5"), None])
def test_constructor_rejects_non_rational_coordinates(bad):
    with pytest.raises(TypeError):
        AlgNum((bad, 0, 0, 0))
    with pytest.raises(TypeError):
        AlgNum(im=(0, 0, 0, bad))
    with pytest.raises(TypeError):
        AlgNum.of(bad)


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
    val = x.to_complex().real
    assert 0 < val < 0.5 and math.copysign(1, val) == 1


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


@pytest.mark.parametrize("text", ["1*r7", "i*(1)", "1+i*(2", "1*", "r5",
                                  "1/0", "1+i*(2))", "1+i*(2)+i*(3)",
                                  "", "1+i*()", "+i*(1)"])
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
