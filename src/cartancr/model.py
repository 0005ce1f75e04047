"""The homogeneous model: a projective quadric hypersurface and the cone
tube it is locally equivalent to.

Points live in C^5 with the bilinear pairing (t, s) = t^T I32 s and the
hermitian pairing <t, s> = (conj t, s) for I32 = diag(1, 1, 1, -1, -1).
The model hypersurface consists of the projective classes with

    (t, t) = 0,     <t, t> = 0,     Im(t^3 conj(t^4)) > 0

(components indexed 0..4); all three conditions are scale invariant.

The tube sits over the cone (x^1)^2 + (x^2)^2 = (x^3)^2, x^3 > 0, in C^3
with x^i = Re z^i.  Its Levi form degenerates along exactly one complex
direction, the radial one.
"""

from __future__ import annotations

from . import liealg, linalg
from .numfield import AlgNum, ZERO, ONE, HALF

PYTHAGOREAN_SAMPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
# -i/2, for Im x = (x - conj x)(-i/2)
_MINUS_HALF_I = AlgNum.i() * -HALF


def _point(coords, n: int = 5) -> list[AlgNum]:
    """The n coordinates of a point as field elements; a point with another
    number of coordinates raises ValueError."""
    if len(coords) != n:
        raise ValueError(f"expected a point with {n} coordinates, got {len(coords)}")
    return [c if isinstance(c, AlgNum) else AlgNum.of(c) for c in coords]


def symmetric_pairing(t, s) -> AlgNum:
    t, s = _point(t), _point(s)
    # the signs of I32 = diag(1, 1, 1, -1, -1)
    return t[0] * s[0] + t[1] * s[1] + t[2] * s[2] - t[3] * s[3] - t[4] * s[4]


def hermitian_pairing(t, s) -> AlgNum:
    return symmetric_pairing([c.conj() for c in _point(t)], s)


def membership_model(coords) -> dict:
    """Exact verdict for a projective point, with the three condition
    values as witnesses.  The sign of the positivity value is computed
    exactly in the ordered real subfield."""
    t = _point(coords)
    if all(c.is_zero() for c in t):
        raise ValueError("the zero vector has no projective class")
    sym = symmetric_pairing(t, t)
    herm = hermitian_pairing(t, t)
    pos = t[3] * t[4].conj()
    # Im of the product, a real field element
    im = (pos - pos.conj()) * _MINUS_HALF_I
    sign = im.sign_real()
    return {
        "member": sym.is_zero() and herm.is_zero() and sign > 0,
        "symmetric": sym,
        "hermitian": herm,
        "positivity": im,
        "positivity_sign": sign,
    }


# The exchange chart w = S v carries the model pairing to the anti-diagonal
# form CalI of the algebra: S^T I32 S = CalI, with h = 1/sqrt2 and
#   S = [[h, 0, 0, 0, h], [0, h, 0, h, 0], [0, 0, 1, 0, 0],
#        [h, 0, 0, 0, -h], [0, h, 0, -h, 0]].
_H = AlgNum.sqrt2() * HALF


def to_exchange_chart(coords) -> list[AlgNum]:
    """Model coordinates -> coordinates of the anti-diagonal form: v = S^-1 w."""
    w = _point(coords)
    return [_H * (w[0] + w[3]), _H * (w[1] + w[4]), w[2],
            _H * (w[1] - w[4]), _H * (w[0] - w[3])]


def tangency_defects(x_matrix, coords) -> tuple[AlgNum, AlgNum]:
    """Flow derivatives of the two defining pairings at a model point,
    2 (Xw, w) and <Xw, w> + <w, Xw>; both vanish for real elements of so(3,2).

    They are read in the exchange chart w = S v, S real, S^T I32 S = CalI:
    with u = Xv, s = sum u_k v_(4-k) and h = sum conj(u_k) v_(4-k) they are
    2 s and h + conj(h), the quadratic forms v^T D v and v^H H v of
    D = CalI X + X^T CalI and H = CalI X + X^H CalI.  As D - H = 2i (Im X)^T CalI,
    D = H = 0 exactly when X is a real member, which returns (0, 0) without
    mapping the point.  ValueError unless X is 5x5, TypeError for an entry
    that is not an AlgNum."""
    w = _point(coords)
    if liealg.membership_so32(x_matrix) and all(c.is_real() for row in x_matrix for c in row):
        return ZERO, ZERO
    v = to_exchange_chart(w)
    u = linalg.mat_vec(x_matrix, v)
    s = sum((u[k] * v[4 - k] for k in range(5)), ZERO)
    h = sum((u[k].conj() * v[4 - k] for k in range(5)), ZERO)
    return s + s, h + h.conj()


def levi_form_tube(x) -> dict:
    """Levi data of the tube at a real cone point (x1, x2, x3).

    Returns the holomorphic tangent basis, the restricted Levi matrix, its
    determinant and kernel dimension, read off the entries and the
    determinant, and whether the kernel is the complex radial line."""
    p = _point(x, 3)
    if any(not c.is_real() for c in p):
        raise ValueError("cone points have real coordinates")
    x1, x2, x3 = p
    cone = x1 * x1 + x2 * x2 - x3 * x3
    if not cone.is_zero():
        raise ValueError("point is off the cone")
    if x3.sign_real() <= 0:
        raise ValueError("apex sheet excluded: third coordinate must be positive")

    # gradient of the defining function in holomorphic coordinates
    tangent = ([x3, ZERO, x1], [ZERO, x3, x2])
    eps = (ONE, ONE, -ONE)

    def levi(u, v):
        return HALF * sum((e * a * b.conj() for e, a, b in zip(eps, u, v)), ZERO)

    # two tangent vectors, so the Levi matrix is 2x2
    matrix = [[levi(u, v) for v in tangent] for u in tangent]
    det = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    # rank 0, 1 or 2 of a 2x2 matrix: all entries zero, det zero, det nonzero
    kernel_dim = (2 if all(c.is_zero() for row in matrix for c in row)
                  else 1 if det.is_zero() else 0)
    # on the cone x3 p = x1 t0 + x2 t1 for the tangent basis t0, t1, so the
    # kernel is the radial line exactly when it is a line holding (x1, x2)
    radial = kernel_dim == 1 and all(c.is_zero() for c in linalg.mat_vec(matrix, [x1, x2]))
    return {"tangent_basis": tangent, "matrix": matrix, "determinant": det,
            "kernel_dim": kernel_dim, "kernel_is_radial": radial}


def levi_kernel_distribution_check(samples=PYTHAGOREAN_SAMPLES) -> dict:
    """Kernel dimension and radial alignment at each sample cone point."""
    out = {}
    for x in samples:
        data = levi_form_tube(x)
        out[x] = {
            "kernel_dim": data["kernel_dim"],
            "kernel_is_radial": data["kernel_is_radial"],
        }
    return out
