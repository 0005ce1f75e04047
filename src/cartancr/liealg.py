"""The graded Lie algebra so(3,2): bases, brackets, grading, Killing form.

Matrices are taken with respect to the anti-diagonal quadratic form CalI,
in which membership reads A^T CalI + CalI A = 0 and the grading by the
element Z is visible block-wise.  Three ordered bases are provided:

* standard -- ten real matrices (e_-2, e_-1|1, e_-1|2, e_0|1, e_0|2,
  E_0|1, E_0|2, E_1|1, E_1|2, E_2);
* cr -- complex combinations X(10) = (X|1 - i X|2)/2 and conjugates,
  closed under conjugation, with e_-2 and E_2 real;
* f -- a real orthonormal-up-to-sign basis for the Killing form
  (normalizers 1/sqrt6 and 1/sqrt12).

Degrees by position are (-2, -1, -1, 0, 0, 0, 0, 1, 1, 2) in every basis.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import linalg
from .numfield import AlgNum, ZERO, ONE, I, HALF

DIM = 10

# quadratic forms: diag(1,1,1,-1,-1) and the anti-diagonal exchange form
I32 = [[AlgNum.of(1 if i == j and i < 3 else (-1 if i == j else 0))
        for j in range(5)] for i in range(5)]
CAL_I = [[AlgNum.of(1 if i + j == 4 else 0) for j in range(5)] for i in range(5)]


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

# index of the conjugate partner in the cr basis
CR_CONJ = (0, 2, 1, 4, 3, 6, 5, 8, 7, 9)


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_conj(a):
    return [[x.conj() for x in row] for row in a]


def commutator(a, b):
    return mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def membership_so32(matrix) -> bool:
    """A^T * CAL_I + CAL_I * A == 0, exactly."""
    lhs = mat_add(linalg.mat_mul(linalg.transpose(matrix), CAL_I),
                  linalg.mat_mul(CAL_I, matrix))
    return all(x.is_zero() for row in lhs for x in row)


def _cr_pair(x1, x2):
    # X(10) = (X|1 - i X|2)/2 and its conjugate
    p = mat_scale(HALF, mat_add(x1, mat_scale(-I, x2)))
    return p, mat_conj(p)


def _build_cr():
    e10, e01 = _cr_pair(_STANDARD[1], _STANDARD[2])
    t10, t01 = _cr_pair(_STANDARD[3], _STANDARD[4])
    u10, u01 = _cr_pair(_STANDARD[5], _STANDARD[6])
    v10, v01 = _cr_pair(_STANDARD[7], _STANDARD[8])
    return [_STANDARD[0], e10, e01, t10, t01, u10, u01, v10, v01, _STANDARD[9]]


def _build_f():
    cr = _build_cr()
    inv_r6 = AlgNum.sqrt6(Fraction(1, 6))          # 1/sqrt6
    inv_r12 = AlgNum.sqrt3(Fraction(1, 6))         # 1/sqrt12 = sqrt3/6
    f = [mat_scale(inv_r6, cr[0])]
    # a conjugate pair X(10), X(01) gives s(X(10) + X(01)), i s(X(10) - X(01))
    for k, s in ((1, inv_r6), (3, inv_r12), (5, inv_r12), (7, inv_r6)):
        f += [mat_scale(s, mat_add(cr[k], cr[k + 1])),
              mat_scale(I * s, mat_sub(cr[k], cr[k + 1]))]
    f.append(mat_scale(inv_r6, cr[9]))
    return f


class Basis:
    """An ordered basis of so(3,2) with exact expansion and cached brackets."""

    def __init__(self, kind: str, names, elements):
        self.kind = kind
        self.names = tuple(names)
        self.elements = elements
        self._expansion = None
        self._sc = None

    def _vectorize(self, m):
        return [m[i][j] for i in range(5) for j in range(5)]

    def _build_expansion(self):
        """The 25x10 expansion system A (column k is element k), pivot rows
        P with A[P] invertible, and A[P]^-1, all from one rref of [A^T | 1]:
        the row operations that turn the pivot columns A[P]^T of A^T into
        the identity turn the appended identity into (A[P]^T)^-1."""
        cols = [self._vectorize(e) for e in self.elements]
        aug = [col + [ONE if k == j else ZERO for k in range(DIM)]
               for j, col in enumerate(cols)]
        red, pivots = linalg.rref(aug)
        if pivots[-1] >= 25:
            raise ValueError(f"{self.kind} basis elements are linearly dependent")
        inverse = [[red[r][25 + k] for r in range(DIM)] for k in range(DIM)]
        return linalg.transpose(cols), pivots, inverse

    def expand(self, matrix) -> list[AlgNum]:
        """Coefficient vector of a matrix in this basis (exact; raises
        ValueError off-span).  The coefficients come from the 10 pivot
        entries through a cached inverse, then must reproduce all 25."""
        if self._expansion is None:
            self._expansion = self._build_expansion()
        rows, pivots, inverse = self._expansion
        target = self._vectorize(matrix)
        x = linalg.mat_vec(inverse, [target[p] for p in pivots])
        if linalg.mat_vec(rows, x) != target:
            raise ValueError(f"matrix is not in the span of the {self.kind} basis")
        return x

    def structure_constants(self):
        """The nonzero structure constants by ordered pair:
        (b, c) -> ((a, c^a_{bc}), ...) for every a with c^a_{bc} != 0, and
        no key for a pair whose bracket is zero (b == c included)."""
        if self._sc is None:
            sc = {}
            for b in range(DIM):
                for c in range(b + 1, DIM):
                    col = self.expand(commutator(self.elements[b], self.elements[c]))
                    terms = tuple((a, x) for a, x in enumerate(col) if not x.is_zero())
                    if terms:
                        sc[(b, c)] = terms
                        sc[(c, b)] = tuple((a, -x) for a, x in terms)
            self._sc = sc
        return self._sc

    def c(self, a: int, b: int, c: int) -> AlgNum:
        """Structure constant c^a_{bc}, antisymmetric in (b, c)."""
        for k, x in self.structure_constants().get((b, c), ()):
            if k == a:
                return x
        return ZERO


_BASES: dict[str, Basis] = {}


def build_basis(kind: str) -> Basis:
    kind = kind.lower()
    if kind not in _BASES:
        if kind == "standard":
            _BASES[kind] = Basis(kind, STANDARD_NAMES, list(_STANDARD))
        elif kind == "cr":
            _BASES[kind] = Basis(kind, CR_NAMES, _build_cr())
        elif kind == "f":
            _BASES[kind] = Basis(kind, F_NAMES, _build_f())
        else:
            raise ValueError(f"unknown basis kind {kind!r}")
    return _BASES[kind]


def grading_decomposition() -> dict:
    """Degrees, grading element and distinguished subspace index sets.

    Verifies that ad Z, read off the f-basis structure constants, is
    diagonal with the degrees on the diagonal before returning.
    """
    ad_z = adjoint_matrix(build_basis("standard").elements[Z_INDEX])
    for a in range(DIM):
        for b in range(DIM):
            if ad_z[a][b] != (DEGREES[b] if a == b else 0):
                raise ArithmeticError(f"basis element {b} is not an ad-Z eigenvector")
    return {
        "degrees": DEGREES,
        "z_index": Z_INDEX,
        "m_minus": (0, 1, 2),
        "m": (0, 1, 2, 3, 4),
        "h0": (5, 6),
        "h": (5, 6, 7, 8, 9),
        "dims": dict(Counter(DEGREES)),
    }


def _trace_of_product(a: dict, b: dict) -> AlgNum:
    """trace(A B) for matrices given by their nonzero entries {(row, col): value}."""
    return sum((x * b[(j, i)] for (i, j), x in a.items() if (j, i) in b), ZERO)


def adjoint_matrix(x_matrix):
    """ad_X as a 10x10 matrix in the f basis:
    (ad X)^a_b = sum_k x_k c^a_{kb}, with x the coordinates of X."""
    basis = build_basis("f")
    sc = basis.structure_constants()
    out = linalg.zeros(DIM, DIM)
    for k, xk in enumerate(basis.expand(x_matrix)):
        if xk.is_zero():
            continue
        for b in range(DIM):
            for a, c in sc.get((k, b), ()):
                out[a][b] = out[a][b] + xk * c
    return out


def killing_form(x_matrix, y_matrix) -> AlgNum:
    """trace(ad X o ad Y), exact and basis-independent."""
    ad_x, ad_y = ({(a, b): c for a, row in enumerate(adjoint_matrix(m))
                   for b, c in enumerate(row) if not c.is_zero()}
                  for m in (x_matrix, y_matrix))
    return _trace_of_product(ad_x, ad_y)


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
            out[a][b] = out[b][a] = _trace_of_product(ads[a], ads[b])
    return out


def change_of_basis(frm: Basis, to: Basis):
    """Matrix P with to-coordinates = P @ from-coordinates."""
    cols = [to.expand(e) for e in frm.elements]
    return [[cols[j][i] for j in range(DIM)] for i in range(DIM)]


# hyperbolic-pair matrix relating diag(1,1,1,-1,-1) coordinates to the
# anti-diagonal form: S^T I32 S = CalI exactly
_H = AlgNum.sqrt2(Fraction(1, 2))    # 1/sqrt2
CONGRUENCE_S = [
    [_H, ZERO, ZERO, ZERO, _H],
    [ZERO, _H, ZERO, _H, ZERO],
    [ZERO, ZERO, ONE, ZERO, ZERO],
    [_H, ZERO, ZERO, ZERO, -_H],
    [ZERO, _H, ZERO, -_H, ZERO],
]
