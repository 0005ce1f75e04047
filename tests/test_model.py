"""The projective model hypersurface and its tube realization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartancr import liealg, linalg, model
from cartancr.numfield import AlgNum, ZERO, ONE, I, HALF

MEMBERS = [
    (ONE, I, ZERO, ONE, -I),
    (ONE, -I, ZERO, ONE, -I),
    (ZERO, ONE, I, ONE, -I),
]


def test_membership_verdicts():
    res = model.membership_model((ONE, I, ZERO, ONE, -I))
    assert res["member"]
    assert res["symmetric"] == ZERO and res["hermitian"] == ZERO
    assert res["positivity_sign"] == 1

    res = model.membership_model((ONE, ZERO, ZERO, ZERO, ZERO))
    assert not res["member"]
    assert res["positivity_sign"] == 0

    res = model.membership_model((ONE, I, ZERO, ONE, I))
    assert not res["member"]
    assert res["symmetric"] == ZERO and res["hermitian"] == ZERO
    assert res["positivity_sign"] == -1


def test_all_listed_members():
    for p in MEMBERS:
        assert model.membership_model(p)["member"]


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        model.membership_model((ZERO,) * 5)


_X = liealg.build_basis("standard").elements[0]
_POINT_FUNCTIONS = {
    "symmetric_pairing": lambda p: model.symmetric_pairing(p, p),
    "hermitian_pairing": lambda p: model.hermitian_pairing(p, p),
    "membership_model": model.membership_model,
    "to_exchange_chart": model.to_exchange_chart,
    "tangency_defects": lambda p: model.tangency_defects(_X, p),
}


@pytest.mark.parametrize("name", sorted(_POINT_FUNCTIONS))
@pytest.mark.parametrize("point", [(ONE, I, ZERO, ONE, -I, AlgNum.of(7)),
                                   (ONE, I, ZERO, ONE), ()],
                         ids=["6-coordinates", "4-coordinates", "empty"])
def test_points_of_the_wrong_length_raise(name, point):
    # zip would drop a sixth coordinate, and a member with one appended
    # passed as a member
    with pytest.raises(ValueError, match="5 coordinates"):
        _POINT_FUNCTIONS[name](point)


def test_membership_is_projective():
    # scaling by a nonzero field element never changes the verdict
    for lam in (AlgNum.of(2) + I, I, AlgNum.sqrt2() - I):
        for p in MEMBERS + [(ONE, I, ZERO, ONE, I)]:
            scaled = tuple(lam * c for c in p)
            assert (model.membership_model(scaled)["member"]
                    == model.membership_model(p)["member"])


# the exchange chart's matrix, w = S v, as the comment on the chart writes it
_H = AlgNum.sqrt2() * HALF
_S = [[_H, ZERO, ZERO, ZERO, _H], [ZERO, _H, ZERO, _H, ZERO], [ZERO, ZERO, ONE, ZERO, ZERO],
      [_H, ZERO, ZERO, ZERO, -_H], [ZERO, _H, ZERO, -_H, ZERO]]


def _from_exchange_chart(v):
    # coordinates of the anti-diagonal form -> model coordinates
    return linalg.mat_vec(_S, v)


def test_chart_roundtrip():
    for p in MEMBERS:
        back = _from_exchange_chart(model.to_exchange_chart(p))
        assert back == list(p)


def _exchange_form(p, q):
    # the anti-diagonal form CalI: sum of p_i q_(4-i)
    return sum((p[i] * q[4 - i] for i in range(5)), ZERO)


def test_chart_intertwines_pairings():
    # S^T I32 S = CalI, so the model pairing pulls back to the exchange form
    u = (ONE, I, AlgNum.of(2), ZERO, -I)
    v = (ZERO, ONE, -I, AlgNum.sqrt2(), ONE)
    pu, pv = model.to_exchange_chart(u), model.to_exchange_chart(v)
    assert model.symmetric_pairing(list(u), list(v)) == _exchange_form(pu, pv)


def _model_chart_route(x, w):
    # Xw carried back to the model chart by S and paired with w there:
    # the flow derivatives 2 (Xw, w) and <Xw, w> + <w, Xw>
    xw = _from_exchange_chart(linalg.mat_vec(x, model.to_exchange_chart(w)))
    s, h = model.symmetric_pairing(xw, w), model.hermitian_pairing(xw, w)
    return s + s, h + h.conj()


def test_tangency_defects_detect_non_algebra_flows():
    bad = linalg.zeros(5, 5)
    bad[0][0] = ONE     # not in the algebra
    dense = [[AlgNum.from_complex_rat(i - j, i * j - 2) for j in range(5)]
             for i in range(5)]
    for x in (bad, dense):
        defects = [model.tangency_defects(x, p) for p in MEMBERS]
        assert defects == [_model_chart_route(x, list(p)) for p in MEMBERS]
        assert any(not (d_sym.is_zero() and d_herm.is_zero()) for d_sym, d_herm in defects)


def _dense(rng):
    # all eight coordinates over (1, sqrt2, sqrt3, sqrt6) x (1, i) nonzero
    return AlgNum([Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                   for _ in range(4)],
                  [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                   for _ in range(4)])


# the listed members and two dense points off the hypersurface
_ORACLE_POINTS = [list(p) for p in MEMBERS] + [
    [_dense(random.Random(seed)) for _ in range(5)] for seed in (10, 11)]


@pytest.mark.parametrize("seed", range(4))
def test_tangency_defects_equal_the_model_chart_pairings(seed):
    # the defects are the quadratic forms of the membership defects in the
    # exchange chart; the model-chart route must give the same numbers
    # exactly, also for X outside the algebra and w off the hypersurface
    rng = random.Random(seed)
    x = [[_dense(rng) for _ in range(5)] for _ in range(5)]
    assert not liealg.membership_so32(x)
    for _ in range(3):
        w = [_dense(rng) for _ in range(5)]
        assert not model.membership_model(w)["member"]
        assert model.tangency_defects(x, w) == _model_chart_route(x, w)


def test_tangency_defects_of_the_cr_basis():
    # cr elements are complex members: D(X) = 0, so the symmetric defect
    # vanishes, but H(X) = 2i CalI Im X does not, so the hermitian defect
    # of each non-real element is nonzero at some listed member
    for x in liealg.build_basis("cr").elements:
        defects = [model.tangency_defects(x, w) for w in _ORACLE_POINTS]
        assert defects == [_model_chart_route(x, w) for w in _ORACLE_POINTS]
        assert all(d_sym.is_zero() for d_sym, _ in defects)
        real = all(c.is_real() for row in x for c in row)
        assert real == all(d_herm.is_zero() for _, d_herm in defects[:len(MEMBERS)])


@pytest.mark.parametrize("row", range(5))
def test_tangency_defects_of_single_entry_matrices(row):
    # a complex entry, so that H(X) differs from D(X), at every position
    c = AlgNum.from_complex_rat(2, -3)
    for col in range(5):
        x = linalg.zeros(5, 5)
        x[row][col] = c
        defects = [model.tangency_defects(x, w) for w in _ORACLE_POINTS]
        assert defects == [_model_chart_route(x, w) for w in _ORACLE_POINTS]
        assert any(not d_sym.is_zero() for d_sym, _ in defects)


def test_levi_matrix_at_345():
    data = model.levi_form_tube((3, 4, 5))
    want = [[AlgNum.of(8), AlgNum.of(-6)],
            [AlgNum.of(-6), AlgNum.of(Fraction(9, 2))]]
    assert data["matrix"] == want
    assert data["determinant"] == ZERO
    assert data["kernel_dim"] == 1
    assert data["kernel_is_radial"]


def test_levi_kernel_along_the_cone():
    out = model.levi_kernel_distribution_check()
    assert set(out) == set(model.PYTHAGOREAN_SAMPLES)
    for res in out.values():
        assert res["kernel_dim"] == 1
        assert res["kernel_is_radial"]


def test_levi_form_neither_solves_nor_divides(monkeypatch):
    calls = []
    rref, inv = linalg.rref, AlgNum.inv
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append("rref") or rref(m))
    monkeypatch.setattr(AlgNum, "inv", lambda x: calls.append("inv") or inv(x))
    for x in model.PYTHAGOREAN_SAMPLES:
        assert model.levi_form_tube(x)["kernel_is_radial"]
    assert calls == []


def _solved_levi_verdict(data, p):
    # the kernel by elimination, and radiality as proportionality of each
    # kernel direction to the point: all 2x2 minors vanish
    kernel = linalg.nullspace(data["matrix"])
    t0, t1 = data["tangent_basis"]
    radial = len(kernel) == 1
    for k in kernel:
        vec = [k[0] * a + k[1] * b for a, b in zip(t0, t1)]
        radial = radial and all((vec[i] * p[j] - vec[j] * p[i]).is_zero()
                                for i, j in ((0, 1), (0, 2), (1, 2)))
    return len(kernel), radial


@given(st.integers(1, 6), st.integers(0, 6), st.fractions(Fraction(1, 7), 7),
       st.booleans(), st.booleans(), st.booleans())
def test_levi_verdict_equals_the_solved_kernel(m, n, scale, flip1, flip2, swap):
    # (m^2 - n^2, 2mn, m^2 + n^2) is on the cone for any m, n; scaled, with
    # the first two coordinates sign-flipped or swapped
    x1, x2, x3 = (scale * (m * m - n * n), scale * 2 * m * n, scale * (m * m + n * n))
    x1, x2 = (-x1 if flip1 else x1), (-x2 if flip2 else x2)
    if swap:
        x1, x2 = x2, x1
    data = model.levi_form_tube((x1, x2, x3))
    p = [AlgNum.of(c) for c in (x1, x2, x3)]
    assert (data["kernel_dim"], data["kernel_is_radial"]) == _solved_levi_verdict(data, p)


def test_levi_form_rejects_bad_points():
    with pytest.raises(ValueError):
        model.levi_form_tube((I, ZERO, ONE))          # not real
    with pytest.raises(ValueError):
        model.levi_form_tube((1, 1, 2))               # off the cone
    with pytest.raises(ValueError):
        model.levi_form_tube((3, 4, -5))              # wrong sheet
    with pytest.raises(ValueError):
        model.levi_form_tube((0, 0, 0))               # apex


small = st.integers(min_value=-3, max_value=3)
gauss = st.tuples(small, small).map(lambda p: AlgNum.from_complex_rat(*p))
points = st.tuples(*([gauss] * 5))


@given(points, points)
@settings(max_examples=50)
def test_pairing_symmetries(u, v):
    u, v = list(u), list(v)
    assert model.symmetric_pairing(u, v) == model.symmetric_pairing(v, u)
    assert model.hermitian_pairing(u, v) == model.hermitian_pairing(v, u).conj()


rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
q_i = st.tuples(rational, rational).map(lambda p: AlgNum.from_complex_rat(*p))
q_i_points = st.lists(q_i, min_size=5, max_size=5)


@given(q_i_points, q_i_points)
def test_chart_round_trips_and_carries_the_pairings(u, v):
    pu, pv = model.to_exchange_chart(u), model.to_exchange_chart(v)
    assert _from_exchange_chart(pu) == u
    assert model.to_exchange_chart(_from_exchange_chart(u)) == u
    assert model.symmetric_pairing(u, v) == _exchange_form(pu, pv)
    assert model.hermitian_pairing(u, v) == _exchange_form([c.conj() for c in pu], pv)
