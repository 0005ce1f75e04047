"""Seeded inputs for the library-warm round.

Everything here is built from `random.Random(seed)`, so the same seed
gives the same inputs in every process.  Each input comes with the value
an independent identity says the call under test must return:

* dense f-basis combinations x = sum c_k f_k, every c_k with all eight
  coordinates over (1, sqrt2, sqrt3, sqrt6) x (1, i) nonzero, so
  `expand(x)` must give back exactly the c_k;
* Pythagorean triples (m^2 - n^2, 2mn, m^2 + n^2), points of the light
  cone, where the Levi kernel is one radial complex line;
* points of the model hypersurface, built from families on which
  (t, t) = 0, <t, t> = 0 and Im(t^3 conj t^4) = |beta|^2 > 0 hold by
  construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from cartancr import linalg, liealg
from cartancr.numfield import AlgNum, ZERO, I

# a dense combination per killing_form pair member and per expand call
KILLING_PAIRS = 1
EXPANDS = 2
TRIPLES = 3
MODEL_POINTS = 3


@dataclass
class LibraryInputs:
    coeffs: list          # coefficient vectors, one per dense element
    elements: list        # the matching 5x5 matrices sum c_k f_k
    triples: tuple        # cone points for the Levi check
    points: list          # model hypersurface points


def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def dense_algnum(rng: random.Random) -> AlgNum:
    """A field element with all eight rational coordinates nonzero."""
    return AlgNum(tuple(_rat(rng) for _ in range(4)),
                  tuple(_rat(rng) for _ in range(4)))


def sparse_algnum(rng: random.Random) -> AlgNum:
    """A field element with a single nonzero coordinate, the shape of the
    normalizers (1/sqrt6, i/2, sqrt3/6, ...) that the bases are built from."""
    coords = [0] * 8
    coords[rng.randrange(8)] = _rat(rng)
    return AlgNum(coords[:4], coords[4:])


def _combination(coeffs, basis) -> list:
    out = linalg.zeros(5, 5)
    for c, e in zip(coeffs, basis.elements):
        out = [[o + c * x for o, x in zip(ro, rx)] for ro, rx in zip(out, e)]
    return out


def _pythagorean(rng: random.Random) -> tuple:
    m = rng.randint(2, 12)
    n = rng.randint(1, m - 1)
    return (m * m - n * n, 2 * m * n, m * m + n * n)


def _unit(rng: random.Random) -> AlgNum:
    # a complex number of modulus one from a Pythagorean triple
    a, b, c = _pythagorean(rng)
    return AlgNum.from_complex_rat(Fraction(a, c), Fraction(b, c))


def _model_point(rng: random.Random) -> list:
    beta = dense_algnum(rng)
    alpha = beta * _unit(rng)                 # |alpha| = |beta|
    family = rng.randrange(3)
    if family == 0:
        head = [alpha, I * alpha, ZERO]
    elif family == 1:
        head = [ZERO, alpha, I * alpha]
    else:
        x1, x2, x3 = _pythagorean(rng)        # c^2 + s^2 = 1
        head = [AlgNum.of(Fraction(x1, x3)) * alpha,
                AlgNum.of(Fraction(x2, x3)) * alpha, I * alpha]
    return head + [beta, -(I * beta)]


def generate(seed: int) -> LibraryInputs:
    rng = random.Random(seed)
    f = liealg.build_basis("f")
    coeffs = [[dense_algnum(rng) for _ in range(liealg.DIM)]
              for _ in range(2 * KILLING_PAIRS + EXPANDS)]
    elements = [_combination(c, f) for c in coeffs]
    triples = tuple(_pythagorean(rng) for _ in range(TRIPLES))
    points = [_model_point(rng) for _ in range(MODEL_POINTS)]
    return LibraryInputs(coeffs, elements, triples, points)
