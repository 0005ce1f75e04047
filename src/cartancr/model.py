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
    im = AlgNum(re=pos.im)          # Im of the product, a real field element
    sign = im.sign_real()
    return {
        "member": sym.is_zero() and herm.is_zero() and sign > 0,
        "symmetric": sym,
        "hermitian": herm,
        "positivity": im,
        "positivity_sign": sign,
    }


# S^-1 = CalI S^T I32, since S^T I32 S = CalI and CalI^2 = 1
_S_INVERSE = linalg.mat_mul(
    liealg.CAL_I, linalg.mat_mul(linalg.transpose(liealg.CONGRUENCE_S), liealg.I32))


def to_exchange_chart(coords) -> list[AlgNum]:
    """Model coordinates -> coordinates of the anti-diagonal form."""
    return linalg.mat_vec(_S_INVERSE, _point(coords))


def from_exchange_chart(coords) -> list[AlgNum]:
    return linalg.mat_vec(liealg.CONGRUENCE_S, _point(coords))


def tangency_defects(x_matrix, coords) -> tuple[AlgNum, AlgNum]:
    """Flow derivatives of the two defining pairings at a model point;
    both vanish identically for algebra elements.  The derivative of
    (w, w) is (Xw, w) + (w, Xw) = 2 (Xw, w), and that of <w, w> is
    <Xw, w> + <w, Xw> = h + conj(h) with h = <Xw, w>.

    Both are read in the exchange chart: w = S v with S real and
    S^T I32 S = CalI, so with u = X v the pairings are
    (Su, Sv) = sum u_k v_{4-k} and <Su, Sv> = sum conj(u_k) v_{4-k}."""
    v = to_exchange_chart(coords)
    u = _point(linalg.mat_vec(x_matrix, v))
    s = sum((a * b for a, b in zip(u, reversed(v))), ZERO)
    h = sum((a.conj() * b for a, b in zip(u, reversed(v))), ZERO)
    return s + s, h + h.conj()


def levi_form_tube(x) -> dict:
    """Levi data of the tube at a real cone point (x1, x2, x3).

    Returns the holomorphic tangent basis, the restricted Levi matrix,
    its kernel, and whether the kernel is the complex radial line."""
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
    kernel = linalg.nullspace(matrix)
    directions = []
    radial = True
    for k in kernel:
        vec = [k[0] * tangent[0][i] + k[1] * tangent[1][i] for i in range(3)]
        directions.append(vec)
        # proportionality to (x1, x2, x3): all 2x2 minors with the point
        for i in range(3):
            for j in range(i + 1, 3):
                if not (vec[i] * p[j] - vec[j] * p[i]).is_zero():
                    radial = False
    return {
        "tangent_basis": tangent,
        "matrix": matrix,
        "determinant": matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0],
        "kernel_dim": len(kernel),
        "kernel_directions": directions,
        "kernel_is_radial": radial and len(kernel) == 1,
    }


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
