"""The graded Lie algebra so(3,2): bases, brackets, grading, Killing form.

Matrices are taken with respect to the anti-diagonal quadratic form CalI,
in which membership reads A^T CalI + CalI A = 0 and the grading by the
element Z is visible block-wise.  Three ordered bases are provided:

* standard -- ten real matrices (e_-2, e_-1|1, e_-1|2, e_0|1, e_0|2,
  E_0|1, E_0|2, E_1|1, E_1|2, E_2);
* cr -- complex combinations X(10) = (X|1 - i X|2)/2 and conjugates,
  closed under conjugation, with e_-2 and E_2 real;
* f -- the standard basis scaled, f_k = s_k e_k with s_k = 1/sqrt12 at
  degree 0 and 1/sqrt6 elsewhere, in which the Killing matrix is the signed
  permutation (SIGMA, EPS); cohomology and cli read that one table from here.

Degrees by position are (-2, -1, -1, 0, 0, 0, 0, 1, 1, 2) in every basis.

Matrix arithmetic and its shape rule live in linalg; the bracket is
commutator, which, like expand, takes 5x5 matrices of AlgNum only.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property
from fractions import Fraction

from . import linalg
from .numfield import AlgNum, ZERO, ONE, I, HALF

DIM = 10


def _mat(entries: dict) -> list[list[AlgNum]]:
    m = linalg.zeros(5, 5)
    for (r, c), v in entries.items():
        m[r - 1][c - 1] = AlgNum.of(v)
    return m


# the ten standard basis matrices in CalI coordinates
_STANDARD = [
    _mat({(4, 1): 1, (5, 2): -1}),                                  # e_-2
    _mat({(3, 1): 1, (5, 3): -1}),                                  # e_-1|1
    _mat({(3, 2): 1, (4, 3): -1}),                                  # e_-1|2
    _mat({(1, 1): 1, (2, 2): -1, (4, 4): 1, (5, 5): -1}),           # e_0|1
    _mat({(1, 2): 1, (2, 1): 1, (4, 5): -1, (5, 4): -1}),           # e_0|2
    _mat({(1, 1): 1, (2, 2): 1, (4, 4): -1, (5, 5): -1}),           # E_0|1 = Z
    _mat({(1, 2): 1, (2, 1): -1, (4, 5): -1, (5, 4): 1}),           # E_0|2
    _mat({(1, 3): 1, (3, 5): -1}),                                  # E_1|1
    _mat({(2, 3): 1, (3, 4): -1}),                                  # E_1|2
    _mat({(1, 4): 1, (2, 5): -1}),                                  # E_2
]

STANDARD_NAMES = ("e_-2", "e_-1|1", "e_-1|2", "e_0|1", "e_0|2",
                  "E_0|1", "E_0|2", "E_1|1", "E_1|2", "E_2")
CR_NAMES = ("e_-2", "e_-1(10)", "e_-1(01)", "e_0(10)", "e_0(01)",
            "E_0(10)", "E_0(01)", "E_1(10)", "E_1(01)", "E_2")
F_NAMES = tuple(f"f{k}" for k in range(1, 11))

DEGREES = (-2, -1, -1, 0, 0, 0, 0, 1, 1, 2)
Z_INDEX = 5  # grading element E_0|1

# f_k = _F_SCALES[k] * e_k; as X(10) + X(01) = X|1 and i (X(10) - X(01))
# = X|2, these are also the real combinations of the cr pairs
_F_SCALES = tuple(AlgNum.sqrt3(Fraction(1, 6)) if d == 0 else AlgNum.sqrt6(Fraction(1, 6))
                 for d in DEGREES)

# index of the conjugate partner in the cr basis
CR_CONJ = (0, 2, 1, 4, 3, 6, 5, 8, 7, 9)

# the f-basis Killing matrix is the signed permutation K_ab = EPS[a] when
# b = SIGMA[a], else 0; it gives the hat duality f-hat_b = f_SIGMA[b],
# f^a = EPS[a] K(f-hat_a, .).  Literal, since deriving it from
# killing_matrix would build the f structure constants at import; the
# checks killing.matrix and killing.hat-pairing hold it to that matrix
SIGMA = (9, 7, 8, 3, 4, 5, 6, 1, 2, 0)
EPS = (1, 1, 1, 1, 1, 1, -1, 1, 1, 1)


def check_index(*indices) -> None:
    """ValueError naming the first index that is not a basis position 0..DIM-1."""
    for k in indices:
        if not 0 <= k < DIM:
            raise ValueError(f"basis index {k!r} is outside 0..{DIM - 1}")


def commutator(a, b):
    """[A, B] = AB - BA of two 5x5 matrices, in one pass over the pairs of
    nonzero entries: A_ik B_lj adds to (AB)_ij when k == l and subtracts
    from (BA)_lk when j == i.  Any other shape raises ValueError, an entry
    that is not an AlgNum TypeError."""
    a_nz = [(divmod(p, 5), x) for p, x in enumerate(_entries(a)) if not x.is_zero()]
    b_nz = [(divmod(p, 5), y) for p, y in enumerate(_entries(b)) if not y.is_zero()]
    out = [[ZERO] * 5 for _ in range(5)]
    for (i, k), x in a_nz:
        for (l, j), y in b_nz:
            if k == l:
                out[i][j] = out[i][j] + x * y
            if j == i:
                out[l][k] = out[l][k] - y * x
    return out


def _entries(m) -> list[AlgNum]:
    """The 25 entries of a 5x5 matrix, row by row; any other shape raises
    ValueError, and an entry that is not an AlgNum TypeError."""
    if len(m) != 5 or any(len(row) != 5 for row in m):
        raise ValueError(f"expected a 5x5 matrix, got rows of lengths {[len(r) for r in m]}")
    entries = [x for row in m for x in row]
    for x in entries:
        if not isinstance(x, AlgNum):
            raise TypeError(f"matrix entries must be AlgNum, not {type(x).__name__}")
    return entries


# flat indices of A_(4-i)j and A_(4-j)i for i <= j
_DEFECT_PAIRS = tuple((20 - 5 * i + j, 20 - 5 * j + i) for i in range(5) for j in range(i, 5))


def membership_so32(matrix) -> bool:
    """A^T CAL_I + CAL_I A == 0, exactly: CAL_I reverses the rows, so the
    defect D has the entries D_ij = A_(4-i)j + A_(4-j)i, all zero for i <= j.
    ValueError unless A is 5x5, TypeError for an entry that is not an AlgNum."""
    a = _entries(matrix)
    # most entries of an algebra element are zero: a zero pair costs no addition
    return all(a[p].is_zero() and a[q].is_zero() or (a[p] + a[q]).is_zero()
               for p, q in _DEFECT_PAIRS)


def _build_cr():
    cr = [_STANDARD[0]]
    for k in (1, 3, 5, 7):
        # X(10) = (X|1 - i X|2)/2 and its conjugate X(01)
        p = linalg.mat_scale(HALF, linalg.mat_add(_STANDARD[k],
                                                  linalg.mat_scale(-I, _STANDARD[k + 1])))
        cr += [p, linalg.mat_conj(p)]
    return cr + [_STANDARD[9]]


class Basis:
    """An ordered basis of so(3,2) with exact expansion and cached brackets."""

    def __init__(self, kind: str, names, elements):
        self.kind = kind
        self.names = tuple(names)
        self.elements = elements

    @cached_property
    def _expansion(self):
        """For the 25x10 expansion system A (column k is element k) and
        pivot rows P with A[P] invertible: each element's nonzero entries as
        (flat index, entry) pairs, and each row k of A[P]^-1 as (P[r], entry)
        pairs over its nonzero entries.  Both come from one rref of
        [A^T | 1]: the row operations that turn the pivot columns A[P]^T of
        A^T into the identity turn the appended identity into (A[P]^T)^-1."""
        cols = [_entries(e) for e in self.elements]
        aug = [col + [ONE if k == j else ZERO for k in range(DIM)]
               for j, col in enumerate(cols)]
        red, pivots = linalg.rref(aug)
        if pivots[-1] >= 25:
            raise ValueError(f"{self.kind} basis elements are linearly dependent")
        inverse = [[(p, red[r][25 + k]) for r, p in enumerate(pivots)
                    if not red[r][25 + k].is_zero()] for k in range(DIM)]
        support = [[(j, x) for j, x in enumerate(col) if not x.is_zero()] for col in cols]
        return support, inverse

    def expand(self, matrix) -> list[AlgNum]:
        """Coefficient vector of a 5x5 matrix in this basis (exact; raises
        ValueError off-span or for another shape).  The coefficients come
        from the 10 pivot entries through a cached inverse; then the sum of
        coefficient times element, built from the nonzeros, must reproduce
        all 25 entries."""
        support, inverse = self._expansion
        target = _entries(matrix)
        x = [sum((y * target[p] for p, y in row if not target[p].is_zero()), ZERO)
             for row in inverse]
        rebuilt = [ZERO] * 25
        for xk, entries in zip(x, support):
            if not xk.is_zero():
                for j, e in entries:
                    rebuilt[j] = rebuilt[j] + xk * e
        if rebuilt != target:
            raise ValueError(f"matrix is not in the span of the {self.kind} basis")
        return x

    def structure_constants(self):
        """The nonzero structure constants by ordered pair:
        (b, c) -> ((a, c^a_{bc}), ...) for every a with c^a_{bc} != 0, and
        no key for a pair whose bracket is zero (b == c included)."""
        return self._sc

    @cached_property
    def _sc(self):
        sc = {}
        for b in range(DIM):
            for c in range(b + 1, DIM):
                col = self.expand(commutator(self.elements[b], self.elements[c]))
                terms = tuple((a, x) for a, x in enumerate(col) if not x.is_zero())
                if terms:
                    sc[(b, c)] = terms
                    sc[(c, b)] = tuple((a, -x) for a, x in terms)
        return sc

    def c(self, a: int, b: int, c: int) -> AlgNum:
        """Structure constant c^a_{bc}, antisymmetric in (b, c); ValueError off 0..DIM-1."""
        check_index(a, b, c)
        for k, x in self.structure_constants().get((b, c), ()):
            if k == a:
                return x
        return ZERO


@cache
def build_basis(kind: str) -> Basis:
    """The basis of one kind, "standard", "cr" or "f", built once; any
    other kind raises ValueError."""
    if kind == "standard":
        return Basis(kind, STANDARD_NAMES, list(_STANDARD))
    if kind == "cr":
        return Basis(kind, CR_NAMES, _build_cr())
    if kind == "f":
        return Basis(kind, F_NAMES, list(map(linalg.mat_scale, _F_SCALES, _STANDARD)))
    raise ValueError(f"unknown basis kind {kind!r}")


def grading_decomposition() -> dict:
    """Degrees, grading element and distinguished subspace index sets.

    Verifies that ad Z, read off the f-basis structure constants, is
    diagonal with the degrees on the diagonal before returning: f_Z = s_Z Z,
    so [f_Z, f_b] must be deg_b s_Z f_b.
    """
    sc = build_basis("f").structure_constants()
    for b, deg in enumerate(DEGREES):
        want = ((b, AlgNum.of(deg) * _F_SCALES[Z_INDEX]),) if deg else None
        if sc.get((Z_INDEX, b)) != want:
            raise ArithmeticError(f"basis element {b} is not an ad-Z eigenvector")
    return {
        "degrees": DEGREES,
        "z_index": Z_INDEX,
        "m_minus": (0, 1, 2),
        "h0": (5, 6),
        "dims": dict(Counter(DEGREES)),
    }


def killing_form(x_matrix, y_matrix) -> AlgNum:
    """trace(ad X o ad Y) = sum_a EPS[a] x_a y_SIGMA[a], with x and y the f
    coordinates of X and Y read by Basis.expand, which raises on bad input."""
    f = build_basis("f")
    x, y = f.expand(x_matrix), f.expand(y_matrix)
    return sum((x[a] * y[b] * AlgNum.of(e) for a, (b, e) in enumerate(zip(SIGMA, EPS))), ZERO)


def killing_matrix(basis: Basis):
    """K(x_a, x_b) = trace(ad x_a o ad x_b), with (ad x_k)^a_b = c^a_{kb}
    read off the basis's own nonzero structure constants."""
    sc = basis.structure_constants()
    # ads[k][(a, b)] = c^a_{kb}, nonzero entries only
    ads = [{(a, b): c for b in range(DIM) for a, c in sc.get((k, b), ())}
           for k in range(DIM)]
    out = linalg.zeros(DIM, DIM)
    for a in range(DIM):
        for b in range(a, DIM):
            # trace(ad x_a ad x_b) over the nonzero entries
            out[a][b] = out[b][a] = sum((x * ads[b][(j, i)] for (i, j), x in ads[a].items()
                                         if (j, i) in ads[b]), ZERO)
    return out
