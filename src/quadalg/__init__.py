"""Finite-dimensional nonassociative algebras over exchangeable coefficient
fields: idempotents, absolute nilpotents, and eigenvectors of the squaring
operator, with exact, exhaustive, and numeric solution engines.

The public names load on first use (PEP 562): ``import quadalg`` loads no
submodule, and each name imports only the submodule that defines it, so a
command that needs no solver never compiles or loads one.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each public name, in ``__all__`` order
_SUBMODULE_OF = {
    "BudgetExceeded": "errors",
    "CharTwo": "errors",
    "Dim2Result": "solver",
    "DimensionMismatch": "errors",
    "DivisionByZero": "errors",
    "EvenOrTrivialDegree": "errors",
    "FieldMismatch": "errors",
    "NotAnEigenvector": "errors",
    "NotAnExtensionField": "errors",
    "NotInValuationRing": "errors",
    "NotIntegerCoefficients": "errors",
    "NotNilpotentAtGivenOrder": "errors",
    "ParseError": "errors",
    "QuadAlgError": "errors",
    "ReducibleModulus": "errors",
    "SearchExhausted": "errors",
    "UnsupportedField": "errors",
    "ValuationViolation": "errors",
    "WrongDimension": "errors",
    "ZeroSeries": "errors",
    "ZeroVector": "errors",
    "ExtensionField": "fields",
    "Field": "fields",
    "GenericityVerdict": "solver",
    "LaurentSeries": "fields",
    "Polynomial": "fields",
    "PrimeField": "fields",
    "ProbeReport": "solver",
    "ProjectiveSolution": "solver",
    "QuadraticSystem": "solver",
    "Rationals": "fields",
    "Reals": "fields",
    "SigmaDescription": "algebra",
    "SolveConfig": "solver",
    "SpectrumReport": "algebra",
    "StructureTensor": "algebra",
    "absolute_nilpotent_from_nilpotent": "algebra",
    "build_system": "solver",
    "circle_product": "algebra",
    "classify_spectrum": "algebra",
    "count_solutions_extension": "solver",
    "counterexample_algebra": "algebra",
    "draw_perturbation": "solver",
    "eigencheck": "algebra",
    "eigenvalue_set": "algebra",
    "eisenstein_irreducible": "fields",
    "field_from_json": "fields",
    "finite_field": "fields",
    "genericity_probe": "solver",
    "is_absolute_nilpotent": "algebra",
    "is_idempotent": "algebra",
    "matrix_algebra": "algebra",
    "perturb_system": "solver",
    "poly_has_root": "fields",
    "polynomial_roots": "fields",
    "power": "algebra",
    "random_structure_tensor": "algebra",
    "rescale_to_canonical": "algebra",
    "restrict_scalars": "algebra",
    "solve_exact_dim2": "solver",
    "solve_exhaustive": "solver",
    "solve_real": "solver",
    "trivial_jacobian_check": "solver",
    "unit_eigenpair": "solver",
    "zero_algebra": "algebra",
}

__all__ = list(_SUBMODULE_OF)

_SUBMODULES = frozenset(("algebra", "cli", "errors", "ffenum", "fields", "formats", "solver"))


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
