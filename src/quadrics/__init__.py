"""Exact computations on the variety of complete quadrics: Poincare
polynomials of its special subvarieties by two independent routes (closed
product formula and torus fixed-point cells), the generalized
Kostant-Macdonald identity, and a linear-algebra re-derivation of the
regular = special classification.

The public names below are resolved lazily (PEP 562): `import quadrics`
loads no submodule, and the first lookup of a name imports the one
submodule that defines it, so a caller pays only for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> (submodule, attribute there)
_EXPORTS = {
    name: (module, name)
    for module, names in {
        "cells": (
            "CellRecord",
            "NotMinimalRepError",
            "SubsetViolationError",
            "descent_characterization_check",
            "fixed_points",
            "fixed_points_full_variety",
            "full_variety_orbit_sum",
            "per_orbit_closed_form_check",
            "per_orbit_sum",
            "poincare_full_variety",
            "poincare_sum",
            "r_set",
            "verify_km",
        ),
        "nilfix": (
            "FixedQuadricSpace",
            "NotSymmetricError",
            "RegularityResult",
            "RegularityWitness",
            "fixed_quadric_space",
            "infinitesimal_fixed_condition",
            "regular_nilpotent",
            "regularity_classifier",
        ),
        "parabolic": (
            "NotSpecialError",
            "SimpleSubset",
            "enumerate_special",
            "is_minimal_rep",
            "longest_element",
            "minimal_coset_rep_count",
            "minimal_coset_reps",
        ),
        "qpoly": (
            "InexactDivisionError",
            "QPolynomial",
            "exact_div",
            "height_identity_check",
            "is_palindromic",
            "monomial",
            "product_formula",
            "q_factorial",
            "q_integer",
        ),
        "symmetric_group": (
            "Permutation",
            "WeightVector",
            "identity",
            "simple_root",
        ),
    }.items()
    for name in names
}
_EXPORTS["kernel_backend"] = ("kernel", "BACKEND")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
