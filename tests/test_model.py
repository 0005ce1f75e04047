"""The projective model hypersurface and its tube realization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartancr import liealg, linalg, model
from cartancr.numfield import AlgNum, ZERO, ONE, I

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
    "from_exchange_chart": model.from_exchange_chart,
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


def test_chart_roundtrip():
    for p in MEMBERS:
        back = model.from_exchange_chart(model.to_exchange_chart(p))
        assert back == list(p)


def test_chart_intertwines_pairings():
    # S^T I32 S = CalI, so the model pairing pulls back to the exchange form
    u = (ONE, I, AlgNum.of(2), ZERO, -I)
    v = (ZERO, ONE, -I, AlgNum.sqrt2(), ONE)
    pu, pv = model.to_exchange_chart(u), model.to_exchange_chart(v)
    cal = sum((pu[i] * liealg.CAL_I[i][j] * pv[j]
               for i in range(5) for j in range(5)), ZERO)
    assert model.symmetric_pairing(list(u), list(v)) == cal


def test_tangency_defects_detect_non_algebra_flows():
    bad = linalg.zeros(5, 5)
    bad[0][0] = ONE     # not in the algebra
    dense = [[AlgNum.from_complex_rat(i - j, i * j - 2) for j in range(5)]
             for i in range(5)]
    for x in (bad, dense):
        flagged = False
        for p in MEMBERS:
            d_sym, d_herm = model.tangency_defects(x, p)
            if not (d_sym.is_zero() and d_herm.is_zero()):
                flagged = True
            # each defect is a pairing plus its mirror image
            w = list(p)
            xw = model.from_exchange_chart(linalg.mat_vec(x, model.to_exchange_chart(w)))
            assert d_sym == model.symmetric_pairing(xw, w) + model.symmetric_pairing(w, xw)
            assert d_herm == model.hermitian_pairing(xw, w) + model.hermitian_pairing(w, xw)
        assert flagged


def _dense(rng):
    # all eight coordinates over (1, sqrt2, sqrt3, sqrt6) x (1, i) nonzero
    return AlgNum([Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                   for _ in range(4)],
                  [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                   for _ in range(4)])


@pytest.mark.parametrize("seed", range(4))
def test_tangency_defects_equal_the_model_chart_pairings(seed):
    # the defects are read in the exchange chart; the model-chart route,
    # Xw carried back by S and paired with w, must give the same numbers
    # exactly, also for X outside the algebra and w off the hypersurface
    rng = random.Random(seed)
    x = [[_dense(rng) for _ in range(5)] for _ in range(5)]
    assert not liealg.membership_so32(x)
    for _ in range(3):
        w = [_dense(rng) for _ in range(5)]
        assert not model.membership_model(w)["member"]
        xw = model.from_exchange_chart(linalg.mat_vec(x, model.to_exchange_chart(w)))
        s, h = model.symmetric_pairing(xw, w), model.hermitian_pairing(xw, w)
        assert model.tangency_defects(x, w) == (s + s, h + h.conj())


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
