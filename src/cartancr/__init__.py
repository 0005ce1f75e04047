"""Exact-arithmetic models of so(3,2) and the curvature apparatus of
girdled CR structures in dimension five.

The submodules layer bottom-up: `numfield` (the coefficient field
Q(i, sqrt2, sqrt3)), `linalg` (exact sparse linear algebra), `liealg`
(bases, brackets, grading, Killing form), `cohomology` (codifferential
kernels and the torsion complement), `forms` (the coframe's exterior
algebra), `structeq` (the structure equations and the frame-change
check), `model` (the projective hypersurface and the tube over the light
cone), `cli` (verification suites and artifact emission).

Importing the package loads none of them: each name below is imported
from its home submodule on first use.
"""

# public name -> the submodule that defines it; a submodule names itself
_HOMES = {
    "AlgNum": "numfield",
    "build_basis": "liealg",
    "codifferential_kernel": "cohomology",
    "cohomology": "cohomology",
    "forms": "forms",
    "generate_structure_equations": "structeq",
    "grading_decomposition": "liealg",
    "killing_matrix": "liealg",
    "liealg": "liealg",
    "linalg": "linalg",
    "load_constraints": "structeq",
    "model": "model",
    "structeq": "structeq",
    "torsion_complement": "cohomology",
    "verify_iz_change_of_frame": "structeq",
}

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # imported here, so that `import cartancr` loads nothing beyond this file
    from importlib import import_module
    module = import_module(f"{__name__}.{_HOMES[name]}")
    value = module if _HOMES[name] == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
