"""Exact elimination: the sparse rref against the dense reference loop, and
the shape rule of rref, rank and nullspace."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartancr import cohomology, liealg, linalg
from cartancr.numfield import AlgNum, ZERO, ONE


def _dense_rref(matrix):
    # the reference: the dense loop over whole rows, swapping the pivot row up
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _text(red):
    return [[x.serialize() for x in row] for row in red]


def _assert_matches_reference(matrix):
    red, pivots = linalg.rref(matrix)
    want, want_pivots = _dense_rref(matrix)
    assert (_text(red), pivots) == (_text(want), want_pivots)
    assert linalg.rank(matrix) == len(pivots)
    kernel = linalg.nullspace(matrix)
    assert len(kernel) == (len(matrix[0]) if matrix else 0) - len(pivots)
    for v in kernel:
        assert all(x.is_zero() for x in linalg.mat_vec(matrix, v))


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)


@st.composite
def entries(draw):
    # mostly zeros, then monomials q*r at one of the 8 coordinates, then
    # elements with all 8 coordinates nonzero
    kind = draw(st.sampled_from(["zero"] * 5 + ["monomial"] * 3 + ["dense"]))
    if kind == "zero":
        return ZERO
    if kind == "monomial":
        coords = [0] * 8
        coords[draw(st.integers(0, 7))] = draw(rationals)
    else:
        coords = draw(st.lists(rationals, min_size=8, max_size=8))
    return AlgNum(coords[:4], coords[4:])


@st.composite
def matrices(draw):
    # wide and tall shapes, with some rows zero throughout, and some rows
    # combinations of two others, so that elimination cancels entries
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows))
    m = [[ZERO] * cols if r in zero_rows else draw(st.lists(entries(), min_size=cols,
                                                            max_size=cols))
         for r in range(rows)]
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        (i, a), (j, b) = (draw(st.tuples(st.sampled_from(range(len(m))), entries()))
                          for _ in range(2))
        m.insert(draw(st.integers(0, len(m))),
                 [a * x + b * y for x, y in zip(m[i], m[j])])
    return m


@given(matrices())
@settings(deadline=None)
def test_rref_matches_the_dense_reference(matrix):
    _assert_matches_reference(matrix)


def test_rref_matches_the_dense_reference_on_the_program_matrices():
    # the three pairing matrices, the torsion rows and the three expansion
    # systems [A^T | 1] that the program eliminates
    labels, rows = cohomology._pairing_rows()
    cases = list(rows.values()) + [cohomology.torsion_complement()["matrix"]]
    for kind in ("standard", "cr", "f"):
        cols = [[x for row in e for x in row] for e in liealg.build_basis(kind).elements]
        cases.append([col + [ONE if k == j else ZERO for k in range(liealg.DIM)]
                      for j, col in enumerate(cols)])
    assert [len(m) for m in cases] == [50, 50, 50, 8, 10, 10, 10]
    for matrix in cases:
        _assert_matches_reference(matrix)


@pytest.mark.parametrize("matrix", [
    [[ONE, AlgNum.of(2)], [AlgNum.of(3)]],
    [[ZERO], [ONE, AlgNum.of(2)]],
    [[ONE], [], [AlgNum.of(Fraction(1, 2))]],
], ids=["short-second-row", "long-second-row", "empty-middle-row"])
def test_elimination_refuses_rows_of_different_lengths(matrix):
    # a short row raised IndexError, and a long row below a short first row
    # lost its extra entries: [[0], [1, 2]] reduced to [[1, 2], [0]]
    for solve in (linalg.rref, linalg.rank, linalg.nullspace):
        with pytest.raises(ValueError, match="rows"):
            solve(matrix)
