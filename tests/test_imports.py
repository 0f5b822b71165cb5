"""What a command imports, the layer names cli binds when it does, and the
module each public name is imported from."""

import ast
import builtins
import dis
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import quadrics
from quadrics import cli

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
            {"quadrics.cells", "quadrics.kernel", "fractions"},
        ),
        (
            ("verify", "--n", "6", "--checks", "regularity,fixed-quadrics"),
            {"quadrics.nilfix"},
            {"fractions"},
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


def test_no_module_of_the_package_imports_fractions():
    # the footprint tests above run five commands; read every import
    # statement of every module instead, including those inside functions
    package = Path(quadrics.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported = {node.module or ""}
            else:
                continue
            assert "fractions" not in {name.split(".")[0] for name in imported}, (source.name, node.lineno)


def code_objects(code):
    """code and every code object nested in it (functions, classes,
    comprehensions)."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def test_cli_binds_every_layer_name_it_calls():
    # A name missing from _LAYERS would surface only as a NameError on the
    # path of the command that calls it; read every global load instead.
    source = Path(cli.__file__).read_text()
    module = compile(source, cli.__file__, "exec")
    module_names = set()
    loaded = set()
    for code in code_objects(module):
        for instruction in dis.get_instructions(code):
            if instruction.opname == "STORE_GLOBAL" or (
                code is module and instruction.opname == "STORE_NAME"
            ):
                module_names.add(instruction.argval)
            elif instruction.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
                loaded.add(instruction.argval)
    layer_names = {name for names in cli._LAYERS.values() for name in names}
    unbound = {
        name
        for name in loaded - module_names - layer_names - set(dir(builtins))
        if not (name.startswith("__") and name.endswith("__"))
    }
    assert not unbound
    # the rest of _LAYERS is there for the benchmark tracer alone
    assert layer_names - loaded == {
        "fixed_points",
        "fixed_points_full_variety",
        "full_variety_orbit_sum",
        "per_orbit_sum",
    }


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_patch_targets():
    """(object, attribute) for every patch(target, "attribute", ...) call in
    the tracer's install(), with the loops over literal tuples unrolled and
    each target read off the quadrics modules install() imports."""
    tree = ast.parse(TRACER.read_text())
    install = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "install")
    modules = {
        alias.asname or alias.name: importlib.import_module(alias.name)
        for node in install.body
        if isinstance(node, ast.Import)
        for alias in node.names
    }

    def value(node, bound):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return value(bound[node.id], bound) if node.id in bound else modules[node.id]
        if isinstance(node, ast.Attribute):
            return getattr(value(node.value, bound), node.attr)
        raise AssertionError(f"line {node.lineno}: not a literal target: {ast.unparse(node)}")

    def bindings(target, item):
        if isinstance(target, ast.Name):
            return {target.id: item}
        pairs = zip(target.elts, item.elts)
        return {name: node for part, element in pairs for name, node in bindings(part, element).items()}

    def walk(statements, bound):
        for statement in statements:
            if isinstance(statement, ast.For):
                for item in statement.iter.elts:
                    yield from walk(statement.body, {**bound, **bindings(statement.target, item)})
                continue
            for node in ast.walk(statement):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch":
                    yield value(node.args[0], bound), value(node.args[1], bound)

    return list(walk(install.body, {}))


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # a name the tracer wraps that the package no longer has crashes every
    # traced benchmark run, which the tests do not otherwise run
    targets = tracer_patch_targets()
    assert targets
    for owner, attribute in targets:
        assert isinstance(attribute, str)
        assert hasattr(owner, attribute), (owner, attribute)


# every public name, by the module that defines it; the package itself
# re-exports none of them
PUBLIC = {
    "cells": (
        "CellRecord NotMinimalRepError SubsetViolationError"
        " descent_characterization_check fixed_points fixed_points_full_variety"
        " full_variety_orbit_sum per_orbit_closed_form_check per_orbit_sum"
        " poincare_full_variety poincare_sum r_set verify_km"
    ),
    "nilfix": (
        "FixedQuadricSpace NotSymmetricError RegularityResult RegularityWitness"
        " fixed_quadric_space infinitesimal_fixed_condition regular_nilpotent"
        " regularity_classifier"
    ),
    "parabolic": (
        "NotSpecialError SimpleSubset enumerate_special is_minimal_rep"
        " longest_element minimal_coset_rep_count minimal_coset_reps"
    ),
    "qpoly": (
        "InexactDivisionError QPolynomial exact_div height_identity_check"
        " is_palindromic monomial product_formula q_factorial q_integer"
    ),
    "symmetric_group": "Permutation WeightVector identity simple_root",
}
MODULE_OF = {name: module for module, names in PUBLIC.items() for name in names.split()}


@pytest.mark.parametrize("name", sorted(MODULE_OF))
def test_public_name_resolves_to_the_submodule_object(name):
    module = f"quadrics.{MODULE_OF[name]}"
    own = getattr(importlib.import_module(module), name)
    assert own.__module__ == module
    namespace = {}
    exec(f"from {module} import {name}", namespace)
    assert namespace[name] is own
    assert not hasattr(quadrics, name)
    with pytest.raises(ImportError):
        exec(f"from quadrics import {name}", {})


def test_kernel_backend_and_version():
    from quadrics.kernel import BACKEND

    assert BACKEND == "pure-python"
    assert not hasattr(quadrics, "kernel_backend")
    assert quadrics.__version__ == "0.1.0"


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quadrics.no_such_name
    with pytest.raises(ImportError):
        exec("from quadrics import no_such_name", {})
