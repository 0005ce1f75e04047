"""Spencer-complex computations for the graded algebra.

Torsion candidates live in Lambda^2(m_minus)* (x) g, graded by a shifting
degree d: a candidate tau sends g_i ^ g_j into g_{i+j+d}.  The adjoint
codifferential is never materialized; instead tau lies in ker(del*) iff
<tau, del A> = 0 for every elementary one-cochain A on the dual side of
the algebra, where the pairing is evaluated through hat duality:

    coeff of tau^a_{bc}  =  eps_a * (del A(hat f_b, hat f_c))^{sigma(a)}

with sigma the Killing-induced index involution and eps its sign vector:
liealg.SIGMA and liealg.EPS, re-exported here.  All of it is exact.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import liealg, linalg
from .liealg import EPS, SIGMA
from .numfield import AlgNum, ZERO, ONE, I, HALF, SQRT2

# leg pairs on m_minus, keyed by the printed subscript
LEG_PAIRS = {"12": (0, 1), "13": (0, 2), "23": (1, 2)}

# variables tau^a_{bc} present at each shifting degree d (a is 1-based):
# every deg a = deg b + deg c + d, leg pairs in LEG_PAIRS order.  The
# shifts are listed, not derived: shift 4 would be nonempty, and the
# computation covers shifts 1..3 only.
PATTERN_VARS = {
    shift: tuple((a + 1, pair) for pair, (b, c) in LEG_PAIRS.items()
                 for a in range(liealg.DIM)
                 if liealg.DEGREES[a] == liealg.DEGREES[b] + liealg.DEGREES[c] + shift)
    for shift in (1, 2, 3)
}


def bracket_coords(basis: liealg.Basis, u, v) -> list[AlgNum]:
    """Bracket of two coordinate vectors via the nonzero structure constants;
    a vector of another length than DIM raises ValueError."""
    if len(u) != liealg.DIM or len(v) != liealg.DIM:
        raise ValueError(f"bracket_coords needs two {liealg.DIM}-entry vectors, "
                         f"got lengths {len(u)} and {len(v)}")
    out = [ZERO] * liealg.DIM
    sc = basis.structure_constants()
    v_nz = [(j, y) for j, y in enumerate(v) if not y.is_zero()]
    for i, x in enumerate(u):
        if x.is_zero():
            continue
        for j, y in v_nz:
            terms = sc.get((i, j))
            if terms:
                w = x * y
                for a, c in terms:
                    out[a] = out[a] + w * c
    return out


def spencer_value(basis: liealg.Basis, cochain: dict, i: int, j: int) -> list[AlgNum]:
    """del A(x_i, x_j) = [x_i, A x_j] - [x_j, A x_i] - A([x_i, x_j]) for the
    cochain A = {source: {target: value}} (0-based indices in the basis),
    which is zero off its keys.  Antisymmetric in (i, j), so zero at i == j.
    An index, cochain key or target outside 0..DIM-1 raises ValueError."""
    liealg.check_index(i, j, *cochain, *(t for img in cochain.values() for t in img))
    unit = lambda k: [ONE if t == k else ZERO for t in range(liealg.DIM)]
    image = lambda k: [cochain.get(k, {}).get(t, ZERO) for t in range(liealg.DIM)]
    # most entries of the second bracket are zero, and subtract nothing
    out = [x if y.is_zero() else x - y for x, y in zip(
        bracket_coords(basis, unit(i), image(j)), bracket_coords(basis, unit(j), image(i)))]
    for s, img in cochain.items():
        c = basis.c(s, i, j)
        if not c.is_zero():
            for t, v in img.items():
                out[t] = out[t] - c * v
    return out


_HAT_MINUS = tuple(SIGMA[b] for b in range(3))   # images of f1, f2, f3


@functools.cache
def _pairing_rows() -> tuple[list, dict]:
    """Row labels and, per shifting degree, the pairing rows: one row per
    elementary test cochain A^a_b (b over f6..f10), columns indexed by the
    pattern variables of that degree.  The del A values do not depend on
    the degree, so all three are built in one pass on first use."""
    basis = liealg.build_basis("f")
    labels = []
    rows = {shift: [] for shift in PATTERN_VARS}
    for b in range(5, 10):      # f6..f10, the non-negative dual side
        for a in range(liealg.DIM):
            test = {b: {a: ONE}}
            vals = {
                pair: spencer_value(basis, test, _HAT_MINUS[i], _HAT_MINUS[j])
                for pair, (i, j) in LEG_PAIRS.items()
            }
            for shift, cols in PATTERN_VARS.items():
                row = []
                for alpha, pair in cols:
                    comp = vals[pair][SIGMA[alpha - 1]]
                    # zeros share one object: most entries are zero
                    row.append(ZERO if comp.is_zero()
                               else comp if EPS[alpha - 1] == 1 else -comp)
                rows[shift].append(row)
            labels.append((a + 1, b + 1))
    return labels, rows


def codifferential_kernel(shift: int) -> dict:
    """Kernel of del* on torsion candidates of the given shifting degree.

    Returns row labels (a, b) of the pairing matrix, the matrix itself,
    the kernel vectors both as raw column vectors and as {(a, pair): value}
    dicts, and the kernel dimension.
    """
    # a bool or a float equal to a shift would pass the dict lookup
    if type(shift) is not int or shift not in PATTERN_VARS:
        raise ValueError(f"no torsion candidates at shifting degree {shift!r}")
    labels, all_rows = _pairing_rows()
    labels, rows = list(labels), [row[:] for row in all_rows[shift]]
    null = linalg.nullspace(rows)
    cols = PATTERN_VARS[shift]
    vectors = [
        {var: val for var, val in zip(cols, vec) if not val.is_zero()}
        for vec in null
    ]
    return {
        "shift": shift,
        "variables": cols,
        "row_labels": labels,
        "matrix": rows,
        "kernel_raw": null,
        "kernel": vectors,
        "dim": len(null),
    }


# the closed-form linear system satisfied by shifting-degree-2 candidates,
# one row per subject variable, columns in PATTERN_VARS[2] order
_R2 = AlgNum.sqrt2(Fraction(1, 2))          # 1/sqrt2
PRINTED_DEGREE2_SYSTEM = (
    ((3, "12"), {(3, "12"): ONE, (5, "23"): -_R2, (7, "23"): -_R2}),
    ((2, "12"), {(2, "12"): ONE, (4, "23"): -_R2, (6, "23"): _R2}),
    ((3, "13"), {(3, "13"): ONE, (4, "23"): _R2, (6, "23"): _R2}),
    ((2, "13"), {(2, "13"): ONE, (5, "23"): -_R2, (7, "23"): _R2}),
    ((4, "23"), {(4, "23"): ONE, (2, "12"): _R2, (3, "13"): -_R2}),
    ((5, "23"), {(5, "23"): ONE, (3, "12"): _R2, (2, "13"): _R2}),
    ((6, "23"), {(6, "23"): ONE, (2, "12"): _R2, (3, "13"): _R2}),
    ((7, "23"), {(7, "23"): ONE, (3, "12"): _R2, (2, "13"): -_R2}),
)

# assembled row (a, b) whose subject variable matches each printed row
_DEGREE2_ROW_FOR_SUBJECT = {
    (3, "12"): (2, 8), (2, "12"): (3, 8), (3, "13"): (2, 9), (2, "13"): (3, 9),
    (4, "23"): (4, 10), (5, "23"): (5, 10), (6, "23"): (6, 10), (7, "23"): (7, 10),
}


def degree2_system_check() -> dict:
    """Compare the machine-assembled shifting-degree-2 pairing rows with the
    closed-form system by products alone: each printed row's residual is
    row - pivot * printed, pivot being the row's subject coefficient, and a
    match needs every pivot nonzero and every residual zero."""
    labels, rows = _pairing_rows()
    by_label = dict(zip(labels, rows[2]))
    cols = PATTERN_VARS[2]
    match, residual = True, []
    for subject, printed in PRINTED_DEGREE2_SYSTEM:
        row = by_label[_DEGREE2_ROW_FOR_SUBJECT[subject]]
        pivot = row[cols.index(subject)]
        residual.append([x - pivot * printed.get(var, ZERO) for var, x in zip(cols, row)])
        match = match and not pivot.is_zero() and all(x.is_zero() for x in residual[-1])
    return {"match": match, "residual": residual}


# closed-form columns of the shifting-degree-1 pairing matrix, keyed by
# variable, as {(a, b) row label: coefficient}
_R3 = AlgNum.sqrt3(Fraction(1, 3))          # 1/sqrt3
_R32 = AlgNum.sqrt3(Fraction(1, 6))         # 1/(2 sqrt3)
_R6 = AlgNum.sqrt6(Fraction(1, 6))          # 1/sqrt6
PRINTED_DEGREE1_COLUMNS = {
    (1, "12"): {(6, 8): -_R3, (9, 10): _R6},
    (1, "13"): {(6, 9): -_R3, (8, 10): -_R6},
    (2, "23"): {(6, 9): -_R32, (4, 9): -_R32, (7, 8): _R32, (5, 8): _R32,
                (8, 10): _R6},
    (3, "23"): {(7, 9): _R32, (5, 9): -_R32, (6, 8): _R32, (4, 8): -_R32,
                (9, 10): _R6},
}


def degree1_columns_check() -> bool:
    labels, rows = _pairing_rows()
    return all(row[k] == PRINTED_DEGREE1_COLUMNS[var].get(label, ZERO)
               for k, var in enumerate(PATTERN_VARS[1])
               for label, row in zip(labels, rows[1]))


def degree3_reduced_residuals(vec: dict) -> list[AlgNum]:
    """Residuals of the reduced relations cutting out the degree-3 kernel."""
    g = lambda a, p: vec.get((a, p), ZERO)
    three = AlgNum.of(3)
    return [
        g(4, "12") + g(5, "13") + three * g(6, "12") + g(7, "13"),
        g(4, "13") - g(5, "12") - three * g(6, "13") + g(7, "12"),
        g(8, "23") + SQRT2 * g(6, "12"),
        g(9, "23") + SQRT2 * g(6, "13"),
    ]


class CurvatureComponents:
    """Adapted-coframe curvature and torsion components of a degree-3
    kernel element, in complex frame coordinates.

    t10 = T^{0(10)}_{-2,-1(10)}    t01 = T^{0(10)}_{-2,-1(01)}
    r10 = R^{0(10)}_{-2,-1(10)}    r01 = R^{0(10)}_{-2,-1(01)}
    r1  = R^{1(10)}_{-1(10),-1(01)}
    """

    __slots__ = ("t10", "t01", "r10", "r01", "r1")

    def __init__(self, t10, t01, r10, r01, r1):
        self.t10, self.t01, self.r10, self.r01, self.r1 = t10, t01, r10, r01, r1

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

    def relation_residuals(self) -> list[AlgNum]:
        """The two linear relations tying these components together, plus
        their conjugates.  All four vanish for genuine kernel elements."""
        rel1 = self.r10.conj() + HALF * self.t10 + HALF * self.r01
        rel2 = self.r1 - I * HALF * self.t10 + I * HALF * self.r01
        return [rel1, rel2, rel1.conj(), rel2.conj()]

    def relations_hold(self) -> bool:
        return all(r.is_zero() for r in self.relation_residuals())


def kernel_to_cr_components(vec: dict) -> CurvatureComponents:
    """Convert a degree-3 kernel element from tau components to the complex
    frame components of the associated curvature tensor."""
    g = lambda a, p: vec.get((a, p), ZERO)
    h = AlgNum.sqrt3(Fraction(1, 2))             # sqrt3/2
    w = AlgNum.sqrt6(Fraction(1, 2))             # sqrt(3/2) = sqrt6/2
    t10 = h * (g(4, "12") + g(5, "13")) + I * h * (g(5, "12") - g(4, "13"))
    t01 = h * (g(4, "12") - g(5, "13")) + I * h * (g(4, "13") + g(5, "12"))
    r10 = h * (g(6, "12") + g(7, "13")) + I * h * (g(7, "12") - g(6, "13"))
    r01 = h * (g(6, "12") - g(7, "13")) + I * h * (g(6, "13") + g(7, "12"))
    r1 = I * w * (g(8, "23") + I * g(9, "23"))
    return CurvatureComponents(t10, t01, r10, r01, r1)


def l1_generators() -> list[dict]:
    """Generators of the deformation space l^1, as cochains m -> g in cr
    coordinates (0-based); fresh dicts on every call."""
    return [
        {0: {1: ONE, 2: ONE}},
        {0: {1: I, 2: -I}},
        {1: {3: ONE, 6: -ONE}, 2: {4: ONE, 5: -ONE}},
        {1: {3: I, 6: -I}, 2: {4: -I, 5: I}},
        {1: {3: I, 6: I}, 2: {4: -I, 5: -I}},
        {1: {3: ONE, 6: ONE}, 2: {4: -ONE, 5: -ONE}},
        {1: {5: ONE, 6: ONE}, 2: {5: ONE, 6: ONE}},
        {1: {5: I, 6: I}, 2: {5: -I, 6: -I}},
    ]


def l1_boundary_components(gen: dict):
    """The three tracked components of del B: (del B)^{-2}_{-2,-1(10)} and
    (del B)^{+-1}_{-1(10),-1(01)}."""
    basis = liealg.build_basis("cr")
    c1 = spencer_value(basis, gen, 0, 1)[0]
    v = spencer_value(basis, gen, 1, 2)
    return c1, v[1], v[2]


def torsion_complement() -> dict:
    """Span of the del-images of the l^1 generators inside the rank-4
    torsion space, with coordinates (Re c1, Im c1, Re c2, Im c2)."""
    gens = l1_generators()
    comps = [l1_boundary_components(g) for g in gens]
    rows = []
    for c1, c2, _ in comps:
        rows.append([c1.real_part(), c1.imag_part(), c2.real_part(), c2.imag_part()])
    comp = linalg.nullspace(rows)   # vectors orthogonal to every image row
    return {
        "matrix": rows,
        "rank": 4 - len(comp),
        "complement_dim": len(comp),
        "components": comps,
        "witnesses": {
            "c1_of_B3": comps[2][0],
            "c1_of_B4": comps[3][0],
            "c2_of_B1": comps[0][1],
            "c3_of_B2": comps[1][2],
        },
    }
