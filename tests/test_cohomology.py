"""Spencer codifferential kernels and the torsion complement."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartancr import cohomology, liealg, linalg
from cartancr.cohomology import (PATTERN_VARS, SIGMA, bracket_coords,
                                 codifferential_kernel,
                                 degree1_columns_check, degree2_system_check,
                                 degree3_reduced_residuals,
                                 kernel_to_cr_components, l1_boundary_components,
                                 l1_generators, spencer_value, torsion_complement)
from cartancr.numfield import AlgNum, ZERO, ONE, I, HALF, SQRT2

MHALF = AlgNum.sqrt2(Fraction(-1, 2))      # -sqrt2/2 = -1/sqrt2
THDSQ2 = AlgNum.sqrt2(Fraction(3, 2))      # 3 sqrt2 / 2

DEGREE2_KERNEL = {(2, "12"): MHALF, (3, "13"): MHALF, (6, "23"): ONE}

DEGREE3_KERNEL = [
    {(5, "12"): ONE, (7, "12"): ONE},
    {(5, "12"): ONE, (4, "13"): ONE},
    {(4, "12"): -ONE, (5, "13"): ONE},
    {(4, "12"): -ONE, (7, "13"): ONE},
    {(4, "12"): THDSQ2, (6, "12"): MHALF, (8, "23"): ONE},
    {(5, "12"): THDSQ2, (6, "13"): MHALF, (9, "23"): ONE},
]

# the three tracked boundary components of each deformation generator
L1_COMPONENTS = [
    (-I * HALF, -I * HALF, -I * HALF),
    (-HALF, HALF, -HALF),
    (-ONE, AlgNum.of(-2), AlgNum.of(2)),
    (-I, ZERO, ZERO),
    (I, AlgNum.i(-2), AlgNum.i(-2)),
    (ONE, AlgNum.of(-2), AlgNum.of(-2)),
    (AlgNum.of(2), ONE, -ONE),
    (AlgNum.i(2), -I, -I),
]


def test_sigma_is_an_involution_up_to_sign():
    for a in range(liealg.DIM):
        assert SIGMA[SIGMA[a]] == a


def test_spencer_differential_is_antisymmetric():
    basis = liealg.build_basis("f")
    test = {7: {3: ONE, 8: AlgNum.sqrt2()}}
    for i in range(liealg.DIM):
        for j in range(liealg.DIM):
            lhs = spencer_value(basis, test, i, j)
            rhs = spencer_value(basis, test, j, i)
            assert all(x == -y for x, y in zip(lhs, rhs))


def test_bracket_coords_agrees_with_structure_constants():
    basis = liealg.build_basis("f")
    u = [ZERO] * 10
    v = [ZERO] * 10
    u[1] = ONE
    v[7] = AlgNum.of(2)
    got = bracket_coords(basis, u, v)
    assert got == [AlgNum.of(2) * basis.c(a, 1, 7) for a in range(liealg.DIM)]
    assert any(not x.is_zero() for x in got)


# zero and nonzero entries, so both sparse and dense vectors are drawn
_ENTRIES = (ZERO, ONE, -HALF, I, SQRT2, AlgNum.sqrt6(Fraction(1, 6)),
            AlgNum((1, -2, 0, Fraction(1, 3)), (0, 1, Fraction(-1, 2), 0)))
coordinate_vectors = st.lists(st.sampled_from(_ENTRIES), min_size=10, max_size=10)


@pytest.mark.parametrize("kind", ["standard", "cr", "f"])
@given(u=coordinate_vectors, v=coordinate_vectors)
@settings(deadline=None)
def test_bracket_coords_matches_all_pairs_sum(kind, u, v):
    basis = liealg.build_basis(kind)
    want = [ZERO] * liealg.DIM
    for (i, j), terms in basis.structure_constants().items():
        if i < j:
            w = u[i] * v[j] - u[j] * v[i]
            for a, c in terms:
                want[a] = want[a] + w * c
    assert bracket_coords(basis, u, v) == want


sparse_cochains = st.dictionaries(
    st.integers(0, 9),
    st.dictionaries(st.integers(0, 9), st.sampled_from(_ENTRIES[1:]), max_size=3),
    max_size=3)


@pytest.mark.parametrize("kind", ["cr", "f"])
@given(cochain=sparse_cochains, i=st.integers(0, 9), j=st.integers(0, 9))
@settings(deadline=None)
def test_spencer_value_matches_matrix_oracle(kind, cochain, i, j):
    """del A(x_i, x_j) rebuilt from 5x5 matrices, commutators and one
    expansion; the structure-constant table is not used."""
    basis = liealg.build_basis(kind)
    x = basis.elements

    def image(coords):          # the matrix A(sum_s coords_s x_s)
        out = linalg.zeros(5, 5)
        for s, img in cochain.items():
            for t, v in img.items():
                out = linalg.mat_add(out, linalg.mat_scale(coords[s] * v, x[t]))
        return out

    unit = lambda k: [ONE if n == k else ZERO for n in range(liealg.DIM)]
    minus = lambda m: linalg.mat_scale(-ONE, m)
    want = linalg.mat_add(
        linalg.mat_add(liealg.commutator(x[i], image(unit(j))),
                       minus(liealg.commutator(x[j], image(unit(i))))),
        minus(image(basis.expand(liealg.commutator(x[i], x[j])))))
    assert spencer_value(basis, cochain, i, j) == basis.expand(want)


def test_pairing_matrix_shape():
    # the variables read off the grading, pinned in order
    assert PATTERN_VARS == {
        1: ((1, "12"), (1, "13"), (2, "23"), (3, "23")),
        2: ((2, "12"), (3, "12"), (2, "13"), (3, "13"),
            (4, "23"), (5, "23"), (6, "23"), (7, "23")),
        3: ((4, "12"), (5, "12"), (6, "12"), (7, "12"),
            (4, "13"), (5, "13"), (6, "13"), (7, "13"),
            (8, "23"), (9, "23")),
    }
    for shift, vars_ in PATTERN_VARS.items():
        data = codifferential_kernel(shift)
        assert len(data["row_labels"]) == 50
        assert all(len(row) == len(vars_) for row in data["matrix"])


def test_kernel_results_are_fresh_lists():
    first = codifferential_kernel(2)
    entry = first["matrix"][0][0]
    first["matrix"][0][0] = entry + ONE
    first["row_labels"].clear()
    again = codifferential_kernel(2)
    assert len(again["row_labels"]) == 50
    assert again["matrix"][0][0] == entry


def test_codifferential_rejects_unknown_shift():
    with pytest.raises(ValueError):
        codifferential_kernel(4)


@pytest.mark.parametrize("shift", [True, 1.0, 2.0], ids=["bool", "float-1", "float-2"])
def test_codifferential_rejects_a_shift_that_is_not_an_int(shift):
    # True == 1.0 == 1, so a dict lookup alone accepted them
    with pytest.raises(ValueError, match="shifting degree"):
        codifferential_kernel(shift)


def test_degree2_kernel_vector():
    data = codifferential_kernel(2)
    assert data["kernel"] == [DEGREE2_KERNEL]
    # proportional to (1, 1, -sqrt2) on the surviving variables
    v = data["kernel"][0]
    scale = v[(2, "12")]
    assert v[(3, "13")] / scale == ONE
    assert v[(6, "23")] / scale == -SQRT2


def test_degree2_printed_system_matches_assembled_rows():
    out = degree2_system_check()
    assert out["match"]


def test_degree1_printed_columns():
    assert degree1_columns_check()


def test_printed_form_checks_neither_solve_nor_divide(monkeypatch):
    cohomology._pairing_rows()      # the one-time build expands in the f basis
    calls = []
    rref, inv = linalg.rref, AlgNum.inv
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append("rref") or rref(m))
    monkeypatch.setattr(AlgNum, "inv", lambda x: calls.append("inv") or inv(x))
    assert degree1_columns_check()
    out = degree2_system_check()
    assert out["match"]
    assert all(x.is_zero() for row in out["residual"] for x in row)
    assert calls == []


def _patched_rows(monkeypatch, shift, label, var, entry):
    # a copy of the pairing rows with one entry replaced: entry(old) -> new
    labels, rows = cohomology._pairing_rows()
    rows = {s: [row[:] for row in r] for s, r in rows.items()}
    row = rows[shift][labels.index(label)]
    k = PATTERN_VARS[shift].index(var)
    row[k] = entry(row[k])
    monkeypatch.setattr(cohomology, "_pairing_rows", lambda: (labels, rows))
    return row


def test_an_off_pivot_change_fails_both_printed_checks(monkeypatch):
    bump = lambda x: x + ONE
    # row (2, 8) has subject (3, "12"); (5, "23") is one of its other entries
    _patched_rows(monkeypatch, 2, (2, 8), (5, "23"), bump)
    assert not degree2_system_check()["match"]
    assert degree1_columns_check()
    monkeypatch.undo()
    _patched_rows(monkeypatch, 1, (6, 8), (1, "12"), bump)
    assert not degree1_columns_check()
    assert degree2_system_check()["match"]


@pytest.mark.parametrize("whole_row", [False, True], ids=["pivot", "row"])
def test_a_zero_subject_pivot_is_no_match(monkeypatch, whole_row):
    # zero pivots, and with them an all-zero row, whose residual row - 0 * printed
    # vanishes: only the pivot test refuses it
    row = _patched_rows(monkeypatch, 2, (3, 9), (2, "13"), lambda x: ZERO)
    if whole_row:
        row[:] = [ZERO] * len(row)
    out = degree2_system_check()
    assert not out["match"]
    assert all(x.is_zero() for x in out["residual"][3]) == whole_row


def test_degree3_kernel_vectors():
    assert codifferential_kernel(3)["kernel"] == DEGREE3_KERNEL


def test_degree3_reduced_relations_vanish_on_kernel():
    for v in DEGREE3_KERNEL:
        assert all(r == ZERO for r in degree3_reduced_residuals(v))


def test_degree3_reduced_relations_detect_perturbation():
    bad = dict(DEGREE3_KERNEL[0])
    bad[(7, "12")] = bad[(7, "12")] + ONE
    assert any(r != ZERO for r in degree3_reduced_residuals(bad))


def test_degree3_tau8_tau6_coupling():
    # tau^8_23 = -sqrt2 tau^6_12 (and the 13-leg mirror) on the kernel
    for v in DEGREE3_KERNEL:
        g = lambda a, p: v.get((a, p), ZERO)
        assert g(8, "23") == -SQRT2 * g(6, "12")
        assert g(9, "23") == -SQRT2 * g(6, "13")


def test_kernel_components_satisfy_curvature_relations():
    for v in DEGREE3_KERNEL:
        comp = kernel_to_cr_components(v)
        assert comp.relations_hold(), comp.relation_residuals()


def test_component_relations_reject_random_tensor():
    comp = kernel_to_cr_components({(4, "12"): ONE})
    # T^{10} alone cannot satisfy conj(R^{10}) + T^{10}/2 + R^{01}/2 = 0
    assert not comp.relations_hold()


def test_l1_generator_count_and_boundaries():
    gens = l1_generators()
    assert len(gens) == 8
    got = [l1_boundary_components(g) for g in gens]
    assert got == L1_COMPONENTS


def test_torsion_complement_is_trivial():
    out = torsion_complement()
    assert out["rank"] == 4
    assert out["complement_dim"] == 0
    assert len(out["matrix"]) == 8 and len(out["matrix"][0]) == 4
    w = out["witnesses"]
    assert w["c1_of_B3"] == -ONE
    assert w["c1_of_B4"] == -I
    assert w["c2_of_B1"] == -I * HALF
    assert w["c3_of_B2"] == -HALF


def test_torsion_matrix_rows_are_real_parts():
    out = torsion_complement()
    for row, (c1, c2, _) in zip(out["matrix"], out["components"]):
        assert row[0] == AlgNum(re=c1.re) and row[1] == AlgNum(re=c1.im)
        assert row[2] == AlgNum(re=c2.re) and row[3] == AlgNum(re=c2.im)
        for x in row:
            assert x.is_real()


def _sympy_f_basis(K):
    """The f basis rebuilt in sympy's exact field K = Q(sqrt2, sqrt3, i)
    from the ten standard 5x5 matrices, through the complex frame."""
    from sympy import QQ, I, sqrt
    from sympy.polys.matrices import DomainMatrix

    def mat(entries):
        rows = [[K.zero] * 5 for _ in range(5)]
        for (r, c), v in entries.items():
            rows[r - 1][c - 1] = K(v)
        return DomainMatrix(rows, (5, 5), K)

    std = [
        mat({(4, 1): 1, (5, 2): -1}),
        mat({(3, 1): 1, (5, 3): -1}),
        mat({(3, 2): 1, (4, 3): -1}),
        mat({(1, 1): 1, (2, 2): -1, (4, 4): 1, (5, 5): -1}),
        mat({(1, 2): 1, (2, 1): 1, (4, 5): -1, (5, 4): -1}),
        mat({(1, 1): 1, (2, 2): 1, (4, 4): -1, (5, 5): -1}),
        mat({(1, 2): 1, (2, 1): -1, (4, 5): -1, (5, 4): 1}),
        mat({(1, 3): 1, (3, 5): -1}),
        mat({(2, 3): 1, (3, 4): -1}),
        mat({(1, 4): 1, (2, 5): -1}),
    ]
    i, half = K.from_sympy(I), K(QQ(1, 2))
    r6, r12 = K.from_sympy(1 / sqrt(6)), K.from_sympy(1 / sqrt(12))
    f = [std[0] * r6]
    for k, s in ((1, r6), (3, r12), (5, r12), (7, r6)):
        # X(10) = (X|1 - i X|2)/2 and X(01) = (X|1 + i X|2)/2
        x10 = (std[k] - std[k + 1] * i) * half
        x01 = (std[k] + std[k + 1] * i) * half
        f += [(x10 + x01) * s, (x10 - x01) * (i * s)]
    f.append(std[9] * r6)
    return f


def _sympy_brackets(K):
    """br(a, b, c) = c^a_{bc}, the f-basis structure constants solved for
    in K from the sympy-built matrices: [f_b, f_c] = sum_a c^a_{bc} f_a."""
    from sympy.polys.matrices import DomainMatrix

    f = _sympy_f_basis(K)
    flat = lambda m: [x for row in m.to_list() for x in row]
    brackets = [(b, c) for b in range(10) for c in range(b + 1, 10)]
    cols = [flat(x) for x in f] + [flat(f[b] * f[c] - f[c] * f[b])
                                   for b, c in brackets]
    red, pivots = DomainMatrix([list(r) for r in zip(*cols)], (25, 55),
                               K).rref()
    assert pivots == tuple(range(10))   # a basis, and every bracket in its span
    red = red.to_list()
    sc = {}
    for n, (b, c) in enumerate(brackets):
        sc[(b, c)] = [red[a][10 + n] for a in range(10)]
        sc[(c, b)] = [-x for x in sc[(b, c)]]
    return lambda a, b, c: sc[(b, c)][a] if b != c else K.zero


def _sympy_converter(K):
    """The map taking a cartancr field element to the same element of K."""
    from sympy import QQ, I, sqrt

    units = [K.one] + [K.from_sympy(sqrt(n)) for n in (2, 3, 6)]
    i = K.from_sympy(I)
    return lambda x: sum((K(QQ(q.numerator, q.denominator)) * u * w
                          for part, w in ((x.re, K.one), (x.im, i))
                          for q, u in zip(part, units)), K.zero)


def test_sympy_rederives_killing_matrix():
    """K(f_a, f_b) = tr(ad f_a ad f_b), with ad taken from brackets solved
    for in sympy, equals liealg.killing_matrix in all 100 entries."""
    sympy = pytest.importorskip("sympy")
    K = sympy.QQ.algebraic_field(sympy.sqrt(2), sympy.sqrt(3), sympy.I)
    br = _sympy_brackets(K)
    # (ad f_a)^c_e = c^c_{ae}; only its nonzero entries enter the trace
    ad = [{(c, e): br(c, a, e) for c in range(10) for e in range(10)
           if br(c, a, e)} for a in range(10)]
    killing = [[sum((v * ad[b][(e, c)] for (c, e), v in ad[a].items()
                     if (e, c) in ad[b]), K.zero) for b in range(10)]
               for a in range(10)]
    to_k = _sympy_converter(K)
    got = liealg.killing_matrix(liealg.build_basis("f"))
    assert [[to_k(x) for x in row] for row in got] == killing


def test_sympy_rederives_kernel_and_harmonic_dimensions():
    """A second derivation in sympy that shares no computation with
    cartancr: rebuild the f basis and its structure constants, form the
    Lie-algebra differentials del: C^1 -> C^2 -> C^3 of m_- = span(f1, f2, f3)
    with values in g, and count exactly, with no float anywhere."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    K = sympy.QQ.algebraic_field(sympy.sqrt(2), sympy.sqrt(3), sympy.I)
    br = _sympy_brackets(K)
    to_k = _sympy_converter(K)

    def tau_on(tau, x, y):        # coordinates of tau(f_x, f_y), antisymmetric
        if x == y:
            return [K.zero] * 10
        if x > y:
            return [-v for v in tau_on(tau, y, x)]
        return [tau.get((a, x, y), K.zero) for a in range(10)]

    def d2(tau, t):               # f_t-component of (del tau)(f1, f2, f3)
        acc = K.zero
        for (x, y, z), sign in (((0, 1, 2), 1), ((1, 0, 2), -1), ((2, 0, 1), 1)):
            acc += K(sign) * sum((br(t, x, a) * v
                                  for a, v in enumerate(tau_on(tau, y, z))), K.zero)
        # [m_-, m_-] lies in m_- = span(f1, f2, f3)
        for (x, y, z), sign in (((0, 1, 2), -1), ((0, 2, 1), 1), ((1, 2, 0), -1)):
            acc += K(sign) * sum((br(k, x, y) * tau_on(tau, k, z)[t]
                                  for k in range(3)), K.zero)
        return acc

    deg = (-2, -1, -1, 0, 0, 0, 0, 1, 1, 2)
    pinned = {1: [], 2: [DEGREE2_KERNEL], 3: DEGREE3_KERNEL}
    dims, harmonic = [], []
    for shift in (1, 2, 3):
        c1 = [(a, s) for s in range(3) for a in range(10)
              if deg[a] == deg[s] + shift]
        c2 = [(a, x, y) for x, y in ((0, 1), (0, 2), (1, 2)) for a in range(10)
              if deg[a] == deg[x] + deg[y] + shift]
        c3 = [a for a in range(10) if deg[a] == -4 + shift]
        # (del A)(x, y) = [x, A y] - [y, A x] - A([x, y]) on elementary A
        d1 = DomainMatrix([[(br(t, x, a) if s == y else K.zero)
                            - (br(t, y, a) if s == x else K.zero)
                            - (br(s, x, y) if t == a else K.zero) for a, s in c1]
                           for t, x, y in c2], (len(c2), len(c1)), K)
        rank1 = d1.rank()
        # the transpose is the adjoint for the inner product making the f
        # coordinates orthonormal; C^2 = im del (+) ker del^T exactly when
        # del^T del keeps the rank of del
        assert (d1.transpose() * d1).rank() == rank1
        dims.append(len(c2) - rank1)

        # ker del^T is spanned by the kernel vectors cartancr's pairing gives
        null = d1.transpose().nullspace()
        want = DomainMatrix([[to_k(v.get((a + 1, f"{x + 1}{y + 1}"), ZERO))
                              for a, x, y in c2] for v in pinned[shift]],
                            (len(pinned[shift]), len(c2)), K)
        assert null.shape[0] == len(pinned[shift])
        assert null.vstack(want).rank() == len(pinned[shift])

        # harmonic elements: the closed ones, ker del (into C^3), in ker del^T
        closed = DomainMatrix([[d2({var: K.one}, t) for var in c2] for t in c3],
                              (len(c3), len(c2)), K)
        harmonic.append(len(c2) - closed.vstack(d1.transpose()).rank())
        # by the modular law this is dim ker del - rank del = dim H^2(m_-, g)_d
        assert harmonic[-1] == len(c2) - closed.rank() - rank1
        if shift == 2:
            # the witness is not closed: (del tau)(f1, f2, f3) = 2 sqrt3/3 f1
            witness = dict(zip(c2, want.to_list()[0]))
            assert [d2(witness, t) for t in c3] == [
                K.from_sympy(2 * sympy.sqrt(3) / 3)]
    assert tuple(dims) == (0, 1, 6)
    assert tuple(harmonic) == (0, 0, 4)
