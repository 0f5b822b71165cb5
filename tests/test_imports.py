"""What a command imports, and the lazily resolved public names of the
package."""

import importlib
import os
import subprocess
import sys

import pytest

import quadrics

# Runs quadrics.cli.main on argv in a fresh interpreter and prints the exit
# code, then every module that importing the CLI and running the command
# added to sys.modules.
FOOTPRINT = """
import io, sys
before = set(sys.modules)
from quadrics.cli import main
sys.stdout = io.StringIO()
code = main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(code, *sorted(set(sys.modules) - before))
"""


@pytest.mark.parametrize(
    "argv, needed, absent",
    [
        (
            ("special", "--n", "2", "--count"),
            {"quadrics.parabolic", "quadrics.symmetric_group"},
            {
                "quadrics.cells",
                "quadrics.kernel",
                "quadrics.qpoly",
                "quadrics.nilfix",
                "dataclasses",
                "fractions",
                "json",
            },
        ),
        (("poincare", "--n", "5"), {"quadrics.cells"}, {"quadrics.nilfix", "fractions"}),
        (
            ("fixed-quadrics", "--block", "3"),
            {"quadrics.nilfix"},
            {"quadrics.cells", "quadrics.kernel"},
        ),
        (
            ("verify", "--n", "4", "--checks", "height"),
            {"quadrics.qpoly"},
            {"quadrics.cells", "quadrics.kernel"},
        ),
    ],
)
def test_a_command_imports_only_the_layers_it_runs(argv, needed, absent):
    env = dict(os.environ)
    env.pop("QUADRICS_FORMAT", None)
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert needed <= set(loaded)
    assert not absent & set(loaded)


# every public name of the package, with the submodule attribute it stands for
EXPORTS = {
    **dict.fromkeys(
        [
            "CellRecord",
            "NotMinimalRepError",
            "SubsetViolationError",
            "betti",
            "cell_dim_in_subvariety",
            "descent_characterization_check",
            "fixed_points",
            "fixed_points_full_variety",
            "full_variety_orbit_sum",
            "per_orbit_closed_form_check",
            "per_orbit_sum",
            "plus_cell_dim",
            "poincare_full_variety",
            "poincare_sum",
            "r_set",
            "s_value",
            "verify_km",
        ],
        "cells",
    ),
    **dict.fromkeys(
        [
            "FixedQuadricSpace",
            "NotSymmetricError",
            "PrimeTooSmallError",
            "RationalMatrix",
            "RegularityResult",
            "RegularityWitness",
            "diagonal_h",
            "fixed_flag",
            "fixed_flag_uniqueness_oracle",
            "fixed_quadric_space",
            "infinitesimal_fixed_condition",
            "regular_nilpotent",
            "regularity_classifier",
        ],
        "nilfix",
    ),
    **dict.fromkeys(
        [
            "NotSpecialError",
            "SimpleSubset",
            "enumerate_special",
            "is_minimal_rep",
            "longest_element",
            "minimal_coset_rep_count",
            "minimal_coset_reps",
            "parabolic_subgroup",
        ],
        "parabolic",
    ),
    **dict.fromkeys(
        [
            "InexactDivisionError",
            "QPolynomial",
            "exact_div",
            "height_identity_check",
            "is_palindromic",
            "monomial",
            "product_formula",
            "q_factorial",
            "q_integer",
        ],
        "qpoly",
    ),
    **dict.fromkeys(
        [
            "Permutation",
            "WeightVector",
            "enumerate_permutations",
            "height",
            "identity",
            "simple_reflection",
            "simple_root",
        ],
        "symmetric_group",
    ),
}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_public_name_resolves_to_the_submodule_object(name):
    own = getattr(importlib.import_module(f"quadrics.{EXPORTS[name]}"), name)
    assert getattr(quadrics, name) is own
    namespace = {}
    exec(f"from quadrics import {name}", namespace)
    assert namespace[name] is own
    assert name in dir(quadrics)
    assert name in quadrics.__all__


def test_kernel_backend_and_version():
    from quadrics import kernel_backend
    from quadrics.kernel import BACKEND

    assert kernel_backend is BACKEND
    assert "kernel_backend" in dir(quadrics) and "kernel_backend" in quadrics.__all__
    assert quadrics.__version__ == "0.1.0"


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quadrics.no_such_name
    with pytest.raises(ImportError):
        exec("from quadrics import no_such_name", {})
