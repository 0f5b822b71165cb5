"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact integer or polynomial equality; there are no
tolerances anywhere. Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager

import pytest

from quadrics.cells import (
    descent_characterization_check,
    fixed_points,
    per_orbit_closed_form_check,
    per_orbit_sum,
    poincare_full_variety,
    poincare_sum,
    verify_km,
)
from quadrics.nilfix import (
    fixed_quadric_space,
    regularity_classifier,
)
from quadrics.parabolic import (
    SimpleSubset,
    enumerate_special,
    minimal_coset_rep_count,
    minimal_coset_reps,
)
from quadrics.qpoly import (
    InexactDivisionError,
    QPolynomial,
    exact_div,
    height_identity_check,
    is_palindromic,
    product_formula,
    q_factorial,
    q_integer,
)
from quadrics.symmetric_group import Permutation, WeightVector, identity

from oracles import enumerate_permutations, parabolic_subgroup


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_generalized_km_identity_up_to_n8():
    with criterion("1 generalized Kostant-Macdonald identity, 2 <= n <= 8"):
        for n in range(2, 9):
            for i_set in enumerate_special(n):
                assert poincare_sum(i_set) == product_formula(i_set), (n, i_set)


def test_criterion_2_rank3_golden_values():
    with criterion("2 rank-3 golden values"):
        assert poincare_sum(SimpleSubset(3, ())) == QPolynomial([1, 2, 2, 1])

        i1 = SimpleSubset(3, (1,))
        one_plus_q2 = QPolynomial([1, 0, 1])
        q = QPolynomial([0, 1])
        assert per_orbit_sum(SimpleSubset(3, ()), i1) == one_plus_q2 * q_integer(3)
        assert per_orbit_sum(i1, i1) == q * q_integer(3)
        total = one_plus_q2 * q_integer(3) + q * q_integer(3)
        assert poincare_sum(i1) == total
        assert total == q_integer(3) ** 2

        assert poincare_sum(SimpleSubset(3, (2,))) == total


def test_criterion_3_classical_km_identity():
    with criterion("3 classical Kostant-Macdonald identity, n <= 8"):
        for n in range(1, 9):
            counts = [0] * (n * (n - 1) // 2 + 1)
            for w in enumerate_permutations(n):
                counts[w.length] += 1
            assert QPolynomial(counts) == q_factorial(n), n


def test_criterion_4_full_variety_cross_check():
    with criterion("4 full-variety blow-up cross-check and duality"):
        blowup = QPolynomial([1] * 6) + QPolynomial([0, 1, 1]) * q_integer(3)
        assert poincare_full_variety(3) == blowup
        assert blowup == QPolynomial([1, 2, 3, 3, 2, 1])
        for n in range(2, 7):
            poly = poincare_full_variety(n)
            assert is_palindromic(poly), n
            assert poly.degree == n * (n + 1) // 2 - 1, n


def test_criterion_5_regularity_equivalence_by_disjoint_code_paths():
    with criterion("5 regular <=> special with pinned witnesses, n <= 6"):
        for n in range(1, 7):
            for r in range(n):
                for members in itertools.combinations(range(1, n), r):
                    i_set = SimpleSubset(n, members)
                    assert (
                        regularity_classifier(i_set).regular == i_set.is_special()
                    ), i_set

        witness = regularity_classifier(SimpleSubset(3, (1, 2))).witness
        assert witness is not None
        assert witness.k == SimpleSubset(3, (1, 2))
        assert witness.block_size == 3
        assert witness.family.basis == (
            ((0, 0, 1), (0, -1, 0), (1, 0, 0)),
            ((0, 0, 0), (0, 0, 0), (0, 0, 1)),
        )

        space2 = fixed_quadric_space(2)
        assert space2.basis == (((0, 0), (0, 1)),)
        assert space2.has_nondegenerate is False


def test_criterion_6_descent_and_closed_form_identities():
    with criterion("6 descent characterization and per-orbit closed form, n <= 6"):
        for n in range(1, 7):
            for i_set in enumerate_special(n):
                for k in i_set.subsets():
                    assert descent_characterization_check(k, i_set), (n, k, i_set)
                    assert per_orbit_closed_form_check(k, i_set), (n, k, i_set)


def test_criterion_7_height_identity_and_euler_characteristics():
    with criterion("7 height identity (n <= 10) and Euler counts (n <= 7)"):
        for n in range(1, 11):
            assert height_identity_check(n), n
        for n in range(1, 8):
            for i_set in enumerate_special(n):
                size = len(i_set)
                numerator = math.factorial(n) * 3**size
                assert numerator % 2**size == 0
                expected = numerator // 2**size
                assert product_formula(i_set).evaluate_at_one() == expected
                count = sum(minimal_coset_rep_count(k) for k in i_set.subsets())
                assert count == expected, (n, i_set)


def test_criterion_8_property_suites_without_optional_component():
    with criterion("8 property suites and deterministic reduction"):
        # group action axioms, spot-checked on explicit elements
        u = Permutation((3, 1, 4, 2))
        v = Permutation((2, 4, 1, 3))
        x = WeightVector((2, -1, 0, 3))
        assert u.act(v.act(x)) == (u * v).act(x)
        assert u.inverse().act(u.act(x)) == x
        assert u * u.inverse() == identity(4)

        # unique length-additive coset factorization at n = 4
        for k in enumerate_special(4):
            reps = set(minimal_coset_reps(k))
            group = parabolic_subgroup(k)
            for w in enumerate_permutations(4):
                hits = [x for x in group if (w * x.inverse()) in reps]
                assert len(hits) == 1
                x0 = hits[0]
                assert (w * x0.inverse()).length + x0.length == w.length

        # Fibonacci counts
        counts = [len(enumerate_special(n)) for n in range(1, 13)]
        assert counts[0] == 1 and counts[1] == 2
        for m in range(2, 12):
            assert counts[m] == counts[m - 1] + counts[m - 2]

        # exact-division failure is an error, not a silent truncation
        with pytest.raises(InexactDivisionError):
            exact_div(QPolynomial([1, 1]), QPolynomial([1, 0, 1]))

        # the whole pipeline runs on the pure Python engine alone
        env = dict(os.environ)
        probe = subprocess.run(
            [
                sys.executable,
                "-c",
                "from quadrics.kernel import BACKEND; print(BACKEND)",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert probe.returncode == 0
        assert probe.stdout.strip() == "pure-python"
        pure = subprocess.run(
            [sys.executable, "-m", "quadrics.cli", "verify", "--n", "5"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert pure.returncode == 0, pure.stdout + pure.stderr
        assert ", 0 failed" in pure.stdout

        # byte-identical reports at jobs=1 and jobs=8
        env_plain = dict(os.environ)
        env_plain.pop("QUADRICS_FORMAT", None)

        def run(jobs):
            return subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "quadrics.cli",
                    "verify",
                    "--n",
                    "6",
                    "--checks",
                    "km,closed-form",
                    "--jobs",
                    jobs,
                    "--format",
                    "json",
                ],
                capture_output=True,
                text=True,
                env=env_plain,
            )

        serial = run("1")
        fanned = run("8")
        assert serial.returncode == fanned.returncode == 0
        assert serial.stdout == fanned.stdout
        assert json.loads(serial.stdout)["verdict"] == "ok"


def test_fixed_point_counts_match_euler_for_small_ranks():
    # cross-check of criterion 7 through the explicit record listings
    for n in range(1, 6):
        for i_set in enumerate_special(n):
            records = fixed_points(i_set)
            assert len(records) == poincare_sum(i_set).evaluate_at_one()
            exponents = sorted(rec.dim_xi for rec in records)
            assert exponents == sorted(
                e
                for e, c in enumerate(poincare_sum(i_set).coeffs)
                for _ in range(c)
            )


def test_verify_km_entry_point_matches_direct_loop():
    for n in range(2, 7):
        for i_set in enumerate_special(n):
            assert verify_km(i_set)
