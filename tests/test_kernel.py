import math

import pytest

from quadrics.cells import poincare_full_variety, poincare_sum, r_set
from quadrics.kernel import BACKEND, cell_census
from quadrics.parabolic import SimpleSubset, enumerate_special, minimal_coset_reps
from quadrics.qpoly import is_palindromic, product_formula


def census_oracle(n, members):
    """Recompute {(length, R-set bitmask): count} over W^K through the
    element-wise weight-vector definition of R_K(w)."""
    k = SimpleSubset(n, members)
    counts = {}
    for w in minimal_coset_reps(k):
        mask = 0
        for i in r_set(k, w):
            mask |= 1 << (i - 1)
        key = (w.length, mask)
        counts[key] = counts.get(key, 0) + 1
    return counts


def project(census, target_mask):
    """The oracle census tallied by length + |R-set intersect target|."""
    out = {}
    for (length, mask), count in census.items():
        exponent = length + (mask & target_mask).bit_count()
        out[exponent] = out.get(exponent, 0) + count
    return out


def test_backend_is_reported():
    assert BACKEND == "pure-python"


def test_census_matches_elementwise_oracle():
    for n in range(1, 8):
        full_mask = (1 << (n - 1)) - 1
        specials = enumerate_special(n)
        for k in specials:
            oracle = census_oracle(n, k.members)
            targets = {full_mask} | {
                i_set.mask & ~k.mask for i_set in specials if k.issubset(i_set)
            }
            for target in targets:
                assert cell_census(n, k.members, target) == project(oracle, target), (
                    n,
                    k,
                    target,
                )


def test_km_identity_up_to_n10():
    for n in range(1, 11):
        for i_set in enumerate_special(n):
            assert poincare_sum(i_set) == product_formula(i_set), (n, i_set)


def test_full_variety_up_to_n12():
    for n in range(1, 13):
        poly = poincare_full_variety(n)
        assert is_palindromic(poly), n
        assert poly.degree == n * (n + 1) // 2 - 1, n
        euler = sum(math.factorial(n) // 2 ** len(k) for k in enumerate_special(n))
        assert poly.evaluate_at_one() == euler, n


def test_census_total_counts():
    for n in range(1, 7):
        full_mask = (1 << (n - 1)) - 1
        for k in enumerate_special(n):
            for target in (0, full_mask, full_mask & ~k.mask):
                total = sum(cell_census(n, k.members, target).values())
                assert total == math.factorial(n) // 2 ** len(k)


def test_census_validation():
    with pytest.raises(ValueError):
        cell_census(0, ())
    with pytest.raises(ValueError):
        cell_census(4, (3, 1))
    with pytest.raises(ValueError):
        cell_census(4, (1, 2))
    with pytest.raises(ValueError):
        cell_census(3, (5,))
    with pytest.raises(ValueError):
        cell_census(3, (), 1 << 2)
    with pytest.raises(ValueError):
        cell_census(3, (), -1)
