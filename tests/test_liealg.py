"""so(3,2): bases, frozen bracket tables, grading, Killing form."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartancr import linalg, model
from cartancr.liealg import (CR_CONJ, DEGREES, DIM, EPS, SIGMA, Z_INDEX, Basis,
                             build_basis, commutator, grading_decomposition,
                             killing_form, killing_matrix, membership_so32)
from cartancr.linalg import mat_add, mat_conj, mat_scale
from cartancr.numfield import AlgNum, ZERO, ONE, I, HALF

R3 = AlgNum.sqrt3(Fraction(1, 3))    # 1/sqrt3
R3H = AlgNum.sqrt3(Fraction(1, 6))   # 1/(2 sqrt3)
R6 = AlgNum.sqrt6(Fraction(1, 6))    # 1/sqrt6

# the model's form diag(1, 1, 1, -1, -1) and the algebra's anti-diagonal form
I32 = [[AlgNum.of((1 if i < 3 else -1) if i == j else 0) for j in range(5)] for i in range(5)]
CAL_I = [[AlgNum.of(1 if i + j == 4 else 0) for j in range(5)] for i in range(5)]


def _transpose(a):
    return [list(col) for col in zip(*a)]


# complete bracket table of the f basis, keys 1-based, [f_b, f_c] = sum a-th
F_TABLE = {
    (1, 6): {1: R3},
    (1, 8): {3: -R6},
    (1, 9): {2: R6},
    (1, 10): {6: -R3},
    (2, 3): {1: R6},
    (2, 4): {2: R3H},
    (2, 5): {3: R3H},
    (2, 6): {2: R3H},
    (2, 7): {3: R3H},
    (2, 8): {4: -R3H, 6: -R3H},
    (2, 9): {5: -R3H, 7: R3H},
    (2, 10): {9: -R6},
    (3, 4): {3: -R3H},
    (3, 5): {2: R3H},
    (3, 6): {3: R3H},
    (3, 7): {2: -R3H},
    (3, 8): {5: -R3H, 7: -R3H},
    (3, 9): {4: R3H, 6: -R3H},
    (3, 10): {8: R6},
    (4, 5): {7: R3},
    (4, 7): {5: R3},
    (4, 8): {8: R3H},
    (4, 9): {9: -R3H},
    (5, 7): {4: -R3},
    (5, 8): {9: R3H},
    (5, 9): {8: R3H},
    (6, 8): {8: R3H},
    (6, 9): {9: R3H},
    (6, 10): {10: R3},
    (7, 8): {9: -R3H},
    (7, 9): {8: R3H},
    (8, 9): {10: -R6},
}

# complete bracket table of the cr basis, same conventions
CR_TABLE = {
    (1, 6): {1: ONE},
    (1, 7): {1: ONE},
    (1, 8): {2: -I},
    (1, 9): {3: I},
    (1, 10): {6: -ONE, 7: -ONE},
    (2, 3): {1: I * HALF},
    (2, 5): {3: ONE},
    (2, 6): {2: ONE},
    (2, 8): {4: -HALF},
    (2, 9): {6: -HALF},
    (2, 10): {8: -I},
    (3, 4): {2: ONE},
    (3, 7): {3: ONE},
    (3, 8): {7: -HALF},
    (3, 9): {5: -HALF},
    (3, 10): {9: I},
    (4, 5): {6: -ONE, 7: ONE},
    (4, 6): {4: ONE},
    (4, 7): {4: -ONE},
    (4, 9): {8: ONE},
    (5, 6): {5: -ONE},
    (5, 7): {5: ONE},
    (5, 8): {9: ONE},
    (6, 9): {9: ONE},
    (6, 10): {10: ONE},
    (7, 8): {8: ONE},
    (7, 10): {10: ONE},
    (8, 9): {10: -I * HALF},
}


def _assert_table(kind, table):
    basis = build_basis(kind)
    sc = basis.structure_constants()
    # a key per nonzero bracket, in both orders
    assert len(sc) == 2 * len(table)
    for b in range(DIM):
        for c in range(b + 1, DIM):
            want = tuple((a - 1, x) for a, x in sorted(table.get((b + 1, c + 1), {}).items()))
            assert sc.get((b, c), ()) == want, f"[{basis.names[b]}, {basis.names[c]}]"
            assert sc.get((c, b), ()) == tuple((a, -x) for a, x in want)


def test_f_bracket_table():
    _assert_table("f", F_TABLE)


def test_cr_bracket_table():
    _assert_table("cr", CR_TABLE)


def test_all_bases_satisfy_membership():
    for kind in ("standard", "cr", "f"):
        for e in build_basis(kind).elements:
            assert membership_so32(e)


def test_solution_space_of_form_identity_is_ten_dimensional():
    # A^T CalI + CalI A = 0 as 25 linear equations in the 25 entries of A
    rows = []
    for i in range(5):
        for j in range(5):
            row = [ZERO] * 25
            # (A^T CalI)_{ij} = A_{4-j, i} since CalI is the exchange matrix
            row[(4 - j) * 5 + i] += ONE
            row[(4 - i) * 5 + j] += ONE
            rows.append(row)
    assert len(linalg.nullspace(rows)) == 10


def test_grading_dimensions_and_eigenvalues():
    g = grading_decomposition()
    assert g["dims"] == {-2: 1, -1: 2, 0: 4, 1: 2, 2: 1}
    assert g["z_index"] == Z_INDEX
    assert g["m_minus"] == (0, 1, 2)
    assert g["h0"] == (5, 6)
    assert sum(g["dims"].values()) == DIM


def test_grading_check_catches_wrong_degrees(monkeypatch):
    # swapping the degrees -2 and 2 keeps every block dimension, so only
    # the ad-Z eigenvalue check can see it
    degrees = list(DEGREES)
    degrees[0], degrees[9] = degrees[9], degrees[0]
    monkeypatch.setattr("cartancr.liealg.DEGREES", tuple(degrees))
    with pytest.raises(ArithmeticError, match="not an ad-Z eigenvector"):
        grading_decomposition()


def test_bracket_respects_degrees():
    # [g_i, g_j] lands in g_{i+j} (zero when i+j is out of range)
    sc = build_basis("standard").structure_constants()
    for (b, c), terms in sc.items():
        for a, _ in terms:
            assert DEGREES[a] == DEGREES[b] + DEGREES[c]


def test_cr_basis_reality():
    basis = build_basis("cr")
    for k in range(DIM):
        assert mat_conj(basis.elements[k]) == basis.elements[CR_CONJ[k]]
    # conjugation is an involution pairing degrees
    for k in range(DIM):
        assert CR_CONJ[CR_CONJ[k]] == k
        assert DEGREES[CR_CONJ[k]] == DEGREES[k]


def test_cr_structure_constants_reality():
    # conj(c^a_{bc}) = c^{conj a}_{conj b, conj c}
    basis = build_basis("cr")
    for b in range(DIM):
        for c in range(DIM):
            for a in range(DIM):
                lhs = basis.c(a, b, c).conj()
                rhs = basis.c(CR_CONJ[a], CR_CONJ[b], CR_CONJ[c])
                assert lhs == rhs


def _trace3(x, y):
    # 3 tr(xy), the Killing form of so(3,2) from the 5x5 matrices alone
    prod = linalg.mat_mul(x, y)
    return AlgNum.of(3) * sum((prod[i][i] for i in range(5)), ZERO)


@pytest.mark.parametrize("kind", ["standard", "cr", "f"])
def test_killing_is_three_times_trace_form(kind):
    basis = build_basis(kind)
    # killing_matrix reads the table: exactly the nonzero coordinates of
    # every matrix commutator [x_b, x_c], over all 90 ordered pairs
    want = {}
    for b in range(DIM):
        for c in range(DIM):
            if b != c:
                col = basis.expand(commutator(basis.elements[b], basis.elements[c]))
                terms = tuple((a, x) for a, x in enumerate(col) if not x.is_zero())
                if terms:
                    want[(b, c)] = terms
    assert basis.structure_constants() == want
    # of the 450 entries c^a_{bc}, b < c, only these are nonzero
    assert sum(map(len, want.values())) == 2 * {"standard": 36, "cr": 30, "f": 36}[kind]
    km = killing_matrix(basis)
    for a in range(DIM):
        for b in range(DIM):
            assert km[a][b] == _trace3(basis.elements[a], basis.elements[b])


def test_change_of_basis_witnesses():
    std, cr, f = build_basis("standard"), build_basis("cr"), build_basis("f")
    coeffs = f.expand(std.elements[0])
    assert coeffs[0] == AlgNum.sqrt6()
    assert all(c == ZERO for c in coeffs[1:])
    row = cr.expand(f.elements[1])
    assert row[1] == R6 and row[2] == R6
    assert all(row[k] == ZERO for k in range(DIM) if k not in (1, 2))
    # the f-coordinates of each standard element re-express it
    for e in std.elements:
        combo = linalg.zeros(5, 5)
        for c, x in zip(f.expand(e), f.elements, strict=True):
            combo = mat_add(combo, mat_scale(c, x))
        assert combo == e


def test_congruence_relates_the_two_forms():
    # S^T I32 S = CalI, read through T = S^-1 off the chart (column j = T e_j)
    # as T^T CalI T = I32
    unit = [[ONE if i == j else ZERO for i in range(5)] for j in range(5)]
    t = _transpose([model.to_exchange_chart(e) for e in unit])
    assert linalg.mat_mul(_transpose(t), linalg.mat_mul(CAL_I, t)) == I32


@pytest.mark.parametrize("kind", [5, None, "F", "CR", "e"])
def test_unknown_basis_kinds_raise(kind):
    with pytest.raises(ValueError, match="unknown basis kind"):
        build_basis(kind)


@pytest.mark.parametrize("indices", [(11, 0, 1), (0, -1, 1), (0, 1, 10)])
def test_structure_constant_rejects_an_index_outside_the_basis(indices):
    bad = next(k for k in indices if not 0 <= k < DIM)
    with pytest.raises(ValueError, match=f"index {bad} "):
        build_basis("f").c(*indices)


def test_expand_rejects_off_span():
    basis = build_basis("standard")
    bad = linalg.zeros(5, 5)
    bad[0][0] = ONE
    with pytest.raises(ValueError):
        basis.expand(bad)


@pytest.mark.parametrize("row_lengths", [(6,) * 5, (5,) * 6, (5,) * 4, (4,) * 5, (),
                                         (5, 5, 6, 5, 5)],
                         ids=["5x6", "6x5", "4x5", "5x4", "empty", "ragged"])
def test_matrices_of_the_wrong_shape_raise(row_lengths):
    # zip and fixed index ranges would read a 5x5 corner of a zero matrix
    bad = [[ZERO] * n for n in row_lengths]
    with pytest.raises(ValueError, match="5x5"):
        membership_so32(bad)
    for kind in ("standard", "cr", "f"):
        with pytest.raises(ValueError, match="5x5"):
            build_basis(kind).expand(bad)
    square = build_basis("standard").elements[3]
    for x, y in ((bad, square), (square, bad)):
        with pytest.raises(ValueError, match="5x5"):
            commutator(x, y)
    # a model member, so only the matrix can be at fault
    with pytest.raises(ValueError, match="5x5"):
        model.tangency_defects(bad, (ONE, I, ZERO, ONE, -I))


@pytest.mark.parametrize("entry", [0, 1, 0.5, Fraction(1, 2)],
                         ids=["int-0", "int-1", "float", "Fraction"])
@pytest.mark.parametrize("where", ["everywhere", "one-entry"])
def test_matrices_of_other_entries_raise_type_error(entry, where):
    # an int entry raised AttributeError from is_zero
    member = build_basis("standard").elements[3]
    if where == "everywhere":
        bad = [[entry] * 5 for _ in range(5)]
    else:
        bad = [row[:] for row in member]
        bad[2][4] = entry
    with pytest.raises(TypeError, match="AlgNum"):
        membership_so32(bad)
    for kind in ("standard", "cr", "f"):
        with pytest.raises(TypeError, match="AlgNum"):
            build_basis(kind).expand(bad)
    for x, y in ((bad, member), (member, bad)):
        for op in (killing_form, commutator):
            with pytest.raises(TypeError, match="AlgNum"):
                op(x, y)
    with pytest.raises(TypeError, match="AlgNum"):
        model.tangency_defects(bad, (ONE, I, ZERO, ONE, -I))


@pytest.mark.parametrize("row_lengths", [(6,) * 5, (5,) * 4, (4,) * 4],
                         ids=["5x6", "4x5", "4x4"])
def test_elementwise_operations_refuse_other_shapes(row_lengths):
    # zip would cut the operand to the 5x5 corner it shares with the other
    # one: a 5x6 b with b[0][5] = 1 added to zero gave the zero matrix, a
    # 5x5 times a 4x4 matrix was 5x4, and a 5x5 matrix took a 4-vector
    bad = [[ZERO] * n for n in row_lengths]
    bad[0][-1] = ONE
    square = build_basis("f").elements[0]
    for a, b in ((square, bad), (bad, square)):
        for op in (mat_add, commutator):
            with pytest.raises(ValueError):
                op(a, b)
        # a b and a applied to b's first column need rows of a with len(b) entries
        if len(a[0]) != len(b):
            with pytest.raises(ValueError):
                linalg.mat_mul(a, b)
            with pytest.raises(ValueError):
                linalg.mat_vec(a, [row[0] for row in b])


@pytest.mark.parametrize("kind", ["standard", "cr", "f"])
def test_expand_checks_every_entry(kind):
    # no single-entry matrix lies in so(3,2), so changing any one of the 25
    # entries of a member, pivot entry or not, must leave the span
    basis = build_basis(kind)
    x = basis.elements[3]
    for i in range(5):
        for j in range(5):
            bad = [row[:] for row in x]
            bad[i][j] = bad[i][j] + ONE
            with pytest.raises(ValueError):
                basis.expand(bad)


def test_expand_rejects_dependent_basis():
    e = build_basis("standard").elements
    with pytest.raises(ValueError):
        Basis("dependent", [str(k) for k in range(DIM)], e[:DIM - 1] + e[:1]).expand(e[0])


def test_expand_solves_once_per_basis(monkeypatch):
    # the first expand picks the pivot rows and inverts that block with one
    # rref; every later call is a product with the cached inverse
    cr = build_basis("cr")
    fresh = Basis("cr", cr.names, cr.elements)
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(1) or rref(m))
    assert fresh.expand(cr.elements[0]) == [ONE] + [ZERO] * (DIM - 1)
    assert len(calls) == 1
    for k in range(1, DIM):
        assert (fresh.expand(commutator(cr.elements[0], cr.elements[k]))
                == [cr.c(a, 0, k) for a in range(DIM)])
        assert fresh.expand(cr.elements[k]) == [ONE if b == k else ZERO
                                               for b in range(DIM)]
    assert len(calls) == 1


def _dense_algnums(coords):
    # ten field elements with all eight rational coordinates nonzero
    return [AlgNum(coords[k:k + 4], coords[k + 4:k + 8]) for k in range(0, 8 * DIM, 8)]


_NONZERO_RATIONALS = [Fraction(n, d) for n in range(-12, 13) if n for d in range(1, 7)]
dense_coefficients = st.lists(st.sampled_from(_NONZERO_RATIONALS), min_size=8 * DIM,
                              max_size=8 * DIM).map(_dense_algnums)


@pytest.mark.parametrize("kind", ["standard", "cr", "f"])
@given(coeffs=dense_coefficients)
@settings(deadline=None)
def test_expand_round_trips_dense_combinations(kind, coeffs):
    assert build_basis(kind).expand(_combination(coeffs, kind)) == coeffs


def _product_membership(a) -> bool:
    # the defining identity as matrix products: A^T CalI + CalI A == 0
    lhs = mat_add(linalg.mat_mul(_transpose(a), CAL_I), linalg.mat_mul(CAL_I, a))
    return all(x.is_zero() for row in lhs for x in row)


def _combination(coeffs, kind="standard"):
    x = linalg.zeros(5, 5)
    for c, e in zip(coeffs, build_basis(kind).elements):
        x = mat_add(x, mat_scale(c, e))
    return x


def _perturbed(args):
    x, (i, j), delta = args
    x[i][j] = x[i][j] + delta
    return x


gaussian = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
    lambda p: AlgNum.from_complex_rat(*p))
positions = st.tuples(st.integers(0, 4), st.integers(0, 4))
combinations = dense_coefficients.map(_combination)
# (matrix, verdict): members, members with one entry moved (no single-entry
# matrix is a member), and sparse matrices whose verdict only the oracle knows
membership_cases = st.one_of(
    combinations.map(lambda x: (x, True)),
    st.tuples(combinations, positions, gaussian.filter(lambda c: not c.is_zero()))
    .map(_perturbed).map(lambda x: (x, False)),
    st.dictionaries(positions, gaussian, max_size=6).map(
        lambda entries: ([[entries.get((i, j), ZERO) for j in range(5)]
                          for i in range(5)], None)))


@given(membership_cases)
@settings(deadline=None)
def test_membership_matches_the_product_definition(case):
    x, verdict = case
    assert membership_so32(x) == _product_membership(x)
    assert verdict is None or membership_so32(x) is verdict


matrices = st.one_of(combinations, membership_cases.map(lambda case: case[0]))


@given(matrices, matrices)
@settings(deadline=None)
def test_commutator_matches_the_matrix_products(x, y):
    # the reference: AB - BA from two full products
    want = mat_add(linalg.mat_mul(x, y), mat_scale(-ONE, linalg.mat_mul(y, x)))
    got = commutator(x, y)
    assert [[c.serialize() for c in row] for row in got] == \
        [[c.serialize() for c in row] for row in want]


@functools.cache
def _mat_vec_expansion(kind):
    # the reference's cached data: the 25x10 system A as dense rows, the
    # pivot rows P and A[P]^-1 as a dense 10x10 matrix
    cols = [[x for row in e for x in row] for e in build_basis(kind).elements]
    red, pivots = linalg.rref([col + [ONE if k == j else ZERO for k in range(DIM)]
                               for j, col in enumerate(cols)])
    inverse = [[red[r][25 + k] for r in range(DIM)] for k in range(DIM)]
    return _transpose(cols), pivots, inverse


def _expand_by_mat_vec(kind, matrix):
    # the reference: A[P]^-1 times the pivot entries, then A x must give all
    # 25 entries; None off the span
    rows, pivots, inverse = _mat_vec_expansion(kind)
    target = [x for row in matrix for x in row]
    x = linalg.mat_vec(inverse, [target[p] for p in pivots])
    return x if linalg.mat_vec(rows, x) == target else None


f_combinations = dense_coefficients.map(lambda coeffs: _combination(coeffs, "f"))


@given(st.one_of(f_combinations,
                 st.tuples(f_combinations, positions,
                           gaussian.filter(lambda c: not c.is_zero())).map(_perturbed)))
@settings(deadline=None)
def test_expand_matches_the_mat_vec_reference(matrix):
    # dense f combinations, and the same with one entry moved off the span
    want = _expand_by_mat_vec("f", matrix)
    if want is None:
        with pytest.raises(ValueError, match="not in the span"):
            build_basis("f").expand(matrix)
    else:
        got = build_basis("f").expand(matrix)
        assert [x.serialize() for x in got] == [x.serialize() for x in want]


small = st.integers(min_value=-3, max_value=3)
vectors = st.tuples(*([small] * DIM))


def _combo(coeffs):
    return _combination(map(AlgNum.of, coeffs))


def test_sigma_eps_are_the_nonzero_pattern_of_the_f_killing_matrix():
    km = killing_matrix(build_basis("f"))
    nonzero = {(a, b): k for a, row in enumerate(km) for b, k in enumerate(row)
               if not k.is_zero()}
    assert nonzero == {(a, SIGMA[a]): AlgNum.of(EPS[a]) for a in range(DIM)}


@given(dense_coefficients, dense_coefficients)
@settings(deadline=None)
def test_killing_form_is_the_f_killing_matrix_read_as_a_gram_matrix(u, v):
    # the route killing_form no longer takes: every entry of K, zeros included
    km = killing_matrix(build_basis("f"))
    want = sum((u[a] * km[a][b] * v[b] for a in range(DIM) for b in range(DIM)), ZERO)
    assert killing_form(_combination(u, "f"), _combination(v, "f")) == want


@given(vectors, vectors, vectors)
@settings(max_examples=15, deadline=None)
def test_killing_symmetry_and_invariance(u, v, w):
    x, y, z = _combo(u), _combo(v), _combo(w)
    assert killing_form(x, y) == killing_form(y, x) == _trace3(x, y)
    # ad-invariance: K([x,y],z) + K(y,[x,z]) = 0
    assert killing_form(commutator(x, y), z) + killing_form(y, commutator(x, z)) == ZERO
