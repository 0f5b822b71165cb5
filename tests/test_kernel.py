import math

import pytest

import quadrics.cells as cells
from quadrics.cells import (
    fixed_point_rows_full_variety,
    full_variety_orbit_sum,
    per_orbit_sum,
    poincare_full_variety,
    poincare_sum,
    r_set,
)
from quadrics.cli import main
from quadrics.kernel import BACKEND, cell_census
from quadrics.parabolic import SimpleSubset, enumerate_special, minimal_coset_reps
from quadrics.qpoly import QPolynomial, is_palindromic, product_formula
from quadrics.symmetric_group import Permutation
from oracles import census_by_lists


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


def project(census, target_mask, size_k, out=None):
    """The oracle census of one K tallied by length + |K| + |R-set
    intersect target|, added into out when given."""
    out = {} if out is None else out
    for (length, mask), count in census.items():
        exponent = length + size_k + (mask & target_mask).bit_count()
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
                census = cell_census(n, k.mask, k.mask, target)
                assert census == project(oracle, target, len(k)), (n, k, target)


def test_interval_census_matches_elementwise_oracle_summed_over_k():
    # every special K with {} <= K <= allowed, R counted on the target
    for n in range(1, 8):
        full_mask = (1 << (n - 1)) - 1
        specials = enumerate_special(n)
        oracles = {k.mask: census_oracle(n, k.members) for k in specials}
        for allowed in {full_mask} | {i_set.mask for i_set in specials}:
            expected = {}
            for k in specials:
                if k.mask & ~allowed == 0:
                    project(oracles[k.mask], allowed, len(k), expected)
            assert cell_census(n, 0, allowed, allowed) == expected, (n, allowed)


def test_local_rule_matches_weight_vector_definition():
    # the R field of the listing rows comes from the local rule
    def ints(field):
        return tuple(map(int, field.split(","))) if field else ()

    for n in range(1, 8):
        rows = fixed_point_rows_full_variety(
            n, ",", lambda k: ",".join(map(str, k.members)) + "|", lambda r, *_: "|" + ",".join(map(str, r))
        )
        for row in rows:
            members, images, r = map(ints, row.split("|"))
            assert r == r_set(SimpleSubset(n, members), Permutation(images)), (n, row)


def test_km_identity_up_to_n10():
    for n in range(1, 11):
        for i_set in enumerate_special(n):
            assert poincare_sum(i_set) == product_formula(i_set), (n, i_set)


def test_poincare_sum_is_the_sum_of_per_orbit_sums():
    for n in range(1, 11):
        for i_set in enumerate_special(n):
            by_k = sum((per_orbit_sum(k, i_set) for k in i_set.subsets()), QPolynomial())
            assert poincare_sum(i_set) == by_k, (n, i_set)


def test_full_variety_is_the_sum_of_orbit_sums():
    for n in range(1, 13):
        by_k = sum(
            (full_variety_orbit_sum(k) for k in enumerate_special(n)), QPolynomial()
        )
        assert poincare_full_variety(n) == by_k, n


def count_censuses(monkeypatch):
    """The arguments of every call of `cells.cell_census` from now on."""
    calls = []

    def counted(*args):
        calls.append(args)
        return cell_census(*args)

    monkeypatch.setattr(cells, "cell_census", counted)
    return calls


def test_each_cell_sum_is_one_census(monkeypatch, capsys):
    def no_loop_over_k(*args):
        raise AssertionError("the cell sum walked the orbits K one by one")

    monkeypatch.setattr(SimpleSubset, "subsets", no_loop_over_k)
    monkeypatch.setattr(cells, "enumerate_special", no_loop_over_k)
    calls = count_censuses(monkeypatch)
    poincare_sum.cache_clear()
    for compute in (
        lambda: poincare_sum(SimpleSubset(9, (1, 3, 5, 7))),
        lambda: poincare_full_variety(9),
    ):
        calls.clear()
        compute()
        assert len(calls) == 1
    calls.clear()
    assert main(["poincare", "--n", "24", "--max-n", "24"]) == 0
    assert "degree: 299\n" in capsys.readouterr().out
    assert len(calls) == 1


def test_verify_runs_one_census_per_subvariety(monkeypatch, capsys):
    # km, duality and euler each ask for the polynomial of every special I;
    # the memo on poincare_sum answers the second and third
    calls = count_censuses(monkeypatch)
    poincare_sum.cache_clear()
    assert main(["verify", "--n", "8", "--checks", "km,duality,euler"]) == 0
    assert capsys.readouterr().out.endswith("result: 102 passed, 0 failed\n")
    assert len(calls) == len(set(calls)) == 34


def test_full_variety_up_to_n24():
    for n in range(1, 25):
        poly = poincare_full_variety(n)
        assert is_palindromic(poly), n
        assert poly.degree == n * (n + 1) // 2 - 1, n
        euler = sum(math.factorial(n) // 2 ** len(k) for k in enumerate_special(n))
        assert poly.evaluate_at_one() == euler, n


def _intervals(n):
    """Every (forced, allowed) the census accepts at rank n: forced special
    and inside allowed."""
    for forced in range(1 << (n - 1)):
        if not forced & (forced >> 1):
            for allowed in range(1 << (n - 1)):
                if not forced & ~allowed:
                    yield forced, allowed


def test_packed_census_matches_list_dp_on_every_input_up_to_n6():
    for n in range(1, 7):
        for forced, allowed in _intervals(n):
            for target in range(1 << (n - 1)):
                census = cell_census(n, forced, allowed, target)
                assert census == census_by_lists(n, forced, allowed, target), (
                    n, forced, allowed, target
                )
                assert list(census) == sorted(census) and all(census.values())


def test_packed_census_matches_list_dp_up_to_n10():
    for n in range(7, 11):
        full_mask = (1 << (n - 1)) - 1
        inputs = {
            (forced, allowed, target)
            for forced, allowed in _intervals(n)
            for target in (0, allowed, full_mask, allowed & ~forced)
        }
        # ordered by their bits, lowest first, so inputs that share the early
        # steps of the list DP come one after another
        for masks in sorted(inputs, key=lambda masks: [m >> b & 1 for b in range(n - 1) for m in masks]):
            assert cell_census(n, *masks) == census_by_lists(n, *masks), (n, masks)


def test_packed_full_variety_matches_list_dp_up_to_n24():
    for n in range(1, 25):
        everything = (1 << (n - 1)) - 1
        assert cell_census(n, 0, everything, everything) == census_by_lists(
            n, 0, everything, everything
        ), n


def test_smallest_censuses():
    assert cell_census(1, 0, 0, 0) == {0: 1}
    # rank 2: K = {} has W^K = {12, 21}, and 1 is in R(21) since w(2) < w(1);
    # K = {1} has W^K = {12} and one cell of dimension |K| = 1
    assert cell_census(2, 0, 0, 0) == {0: 1, 1: 1}
    assert cell_census(2, 0, 0, 1) == {0: 1, 2: 1}
    assert cell_census(2, 0, 1, 0) == {0: 1, 1: 2}
    assert cell_census(2, 0, 1, 1) == {0: 1, 1: 1, 2: 1}
    assert cell_census(2, 1, 1, 0) == {1: 1}
    assert cell_census(2, 1, 1, 1) == {1: 1}


def test_census_total_counts():
    for n in range(1, 7):
        full_mask = (1 << (n - 1)) - 1
        for k in enumerate_special(n):
            for target in (0, full_mask, full_mask & ~k.mask):
                census = cell_census(n, k.mask, k.mask, target)
                assert sum(census.values()) == math.factorial(n) // 2 ** len(k)
                assert min(census) == len(k)


def test_census_validation():
    with pytest.raises(ValueError):
        cell_census(0, 0, 0, 0)
    # forced K = {1, 2} is not special
    with pytest.raises(ValueError):
        cell_census(4, 0b011, 0b011, 0)
    # forced {1} is not inside allowed {3}
    with pytest.raises(ValueError):
        cell_census(4, 0b001, 0b100, 0)
    # masks out of range, one argument at a time
    with pytest.raises(ValueError):
        cell_census(3, 1 << 4, 1 << 4, 0)
    with pytest.raises(ValueError):
        cell_census(3, 0, 1 << 2, 0)
    with pytest.raises(ValueError):
        cell_census(3, 0, 0, 1 << 2)
    with pytest.raises(ValueError):
        cell_census(3, 0, 0, -1)
    with pytest.raises(ValueError):
        cell_census(3, (), (), 0)


@pytest.mark.parametrize("args", [(True, 0, 0, 0), (2, True, 1, 0), (2, 0, True, 0), (2, 0, 0, True)])
def test_census_refuses_bools(args):
    # each bool was taken as the int it equals: cell_census(True, 0, 0, 0)
    # returned {0: 1}
    with pytest.raises(ValueError):
        cell_census(*args)
