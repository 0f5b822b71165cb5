from collections import defaultdict

import pytest

import quadrics.cells as cells
from quadrics.cells import (
    CellRecord,
    NotMinimalRepError,
    SubsetViolationError,
    descent_characterization_check,
    fixed_point_rows,
    fixed_point_rows_full_variety,
    fixed_points,
    fixed_points_full_variety,
    pairing_vector,
    per_orbit_closed_form_check,
    per_orbit_sum,
    poincare_full_variety,
    poincare_sum,
    r_set,
    verify_km,
)
from quadrics.parabolic import (
    NotSpecialError,
    SimpleSubset,
    enumerate_special,
    minimal_coset_reps,
)
from quadrics import nilfix, qpoly
from quadrics.qpoly import (
    QPolynomial,
    is_palindromic,
    monomial,
    orbit_product_formula,
    product_formula,
    q_integer,
)
from quadrics.symmetric_group import Permutation, WeightVector, identity

from oracles import (
    cell_dim_in_subvariety,
    closed_form_doubly_cleared,
    plus_cell_dim,
    s_value,
)


def naive_poincare_sum(i_set):
    """Direct double sum over (K, w) through the element-wise s_value API,
    bypassing the census kernel entirely."""
    counts = defaultdict(int)
    for k in i_set.subsets():
        for w in minimal_coset_reps(k):
            counts[w.length + len(k) + s_value(k, i_set, w)] += 1
    coeffs = [0] * (max(counts) + 1)
    for e, c in counts.items():
        coeffs[e] = c
    return QPolynomial(coeffs)


def naive_full_variety(n):
    counts = defaultdict(int)
    for k in enumerate_special(n):
        for w in minimal_coset_reps(k):
            counts[plus_cell_dim(k, w)] += 1
    coeffs = [0] * (max(counts) + 1)
    for e, c in counts.items():
        coeffs[e] = c
    return QPolynomial(coeffs)


def test_pairing_vector_examples():
    assert pairing_vector(SimpleSubset(3, (1,)), 2).coeffs == (1, 1, -2)
    assert pairing_vector(SimpleSubset(3, (2,)), 1).coeffs == (2, -1, -1)
    # at K = {} the vector is 2 alpha_i
    assert pairing_vector(SimpleSubset(3, ()), 1).coeffs == (2, -2, 0)


def test_r_set_examples():
    assert r_set(SimpleSubset(3, ()), Permutation((2, 1, 3))) == (1,)
    assert r_set(SimpleSubset(3, (1,)), Permutation((2, 3, 1))) == (2,)
    assert r_set(SimpleSubset(3, (2,)), identity(3)) == ()


def test_r_set_guards():
    with pytest.raises(NotSpecialError):
        r_set(SimpleSubset(4, (1, 2)), identity(4))
    with pytest.raises(NotMinimalRepError):
        r_set(SimpleSubset(3, (1,)), Permutation((3, 2, 1)))
    with pytest.raises(ValueError):
        r_set(SimpleSubset(3, ()), Permutation((1, 2)))
    with pytest.raises(ValueError, match="rank mismatch"):
        r_set(SimpleSubset(3, ()), Permutation((1, 2, 3, 4)))
    # speciality is settled when the subset is built, yet only refused on use
    not_special = SimpleSubset(5, (2, 3))
    assert not not_special.is_special()
    for _ in range(2):
        with pytest.raises(NotSpecialError):
            r_set(not_special, identity(5))


def test_r_set_at_empty_k_is_descent_set():
    for n in range(2, 7):
        k = SimpleSubset(n, ())
        for w in minimal_coset_reps(k):
            assert r_set(k, w) == w.right_descents


def test_s_value_examples():
    i1 = SimpleSubset(3, (1,))
    assert s_value(i1, i1, Permutation((1, 3, 2))) == 0  # K = I
    assert s_value(SimpleSubset(3, ()), i1, Permutation((3, 2, 1))) == 1
    assert s_value(SimpleSubset(3, ()), i1, Permutation((1, 3, 2))) == 0
    with pytest.raises(SubsetViolationError):
        s_value(SimpleSubset(3, (2,)), i1, identity(3))


def test_plus_cell_dim_examples():
    assert plus_cell_dim(SimpleSubset(3, ()), identity(3)) == 0
    assert plus_cell_dim(SimpleSubset(3, (2,)), Permutation((2, 1, 3))) == 3
    # the open cell of the full 5-dimensional variety of complete conics
    assert plus_cell_dim(SimpleSubset(3, ()), Permutation((3, 2, 1))) == 5


def test_cell_dims_are_not_flip_symmetric():
    # the leading-coefficient convention breaks the Dynkin-diagram flip:
    # K = {1} and K = {2} give different dimension multisets in rank 3
    dims_1 = sorted(
        plus_cell_dim(SimpleSubset(3, (1,)), w)
        for w in minimal_coset_reps(SimpleSubset(3, (1,)))
    )
    dims_2 = sorted(
        plus_cell_dim(SimpleSubset(3, (2,)), w)
        for w in minimal_coset_reps(SimpleSubset(3, (2,)))
    )
    assert dims_1 == [1, 2, 4]
    assert dims_2 == [1, 3, 4]


def test_cell_dim_in_subvariety_examples():
    i1 = SimpleSubset(3, (1,))
    assert cell_dim_in_subvariety(SimpleSubset(3, ()), Permutation((3, 2, 1)), i1) == 4
    assert cell_dim_in_subvariety(i1, Permutation((2, 3, 1)), i1) == 3
    # I = K kills the correction term
    k = SimpleSubset(4, (2,))
    for w in minimal_coset_reps(k):
        assert cell_dim_in_subvariety(k, w, k) == w.length + 1
    with pytest.raises(SubsetViolationError):
        cell_dim_in_subvariety(SimpleSubset(3, (1,)), identity(3), SimpleSubset(3, (2,)))


def test_dimension_consistency():
    # the I^c form and the s-value form of the cell dimension agree
    for n in range(2, 7):
        for i_set in enumerate_special(n):
            for k in i_set.subsets():
                for w in minimal_coset_reps(k):
                    assert cell_dim_in_subvariety(k, w, i_set) == (
                        w.length + len(k) + s_value(k, i_set, w)
                    )


def test_poincare_sum_golden_n3():
    assert poincare_sum(SimpleSubset(3, ())) == QPolynomial([1, 2, 2, 1])
    expected = QPolynomial([1, 2, 3, 2, 1])
    assert poincare_sum(SimpleSubset(3, (1,))) == expected
    assert poincare_sum(SimpleSubset(3, (2,))) == expected
    one_plus_q2 = QPolynomial([1, 0, 1])
    assert per_orbit_sum(SimpleSubset(3, ()), SimpleSubset(3, (1,))) == (
        one_plus_q2 * q_integer(3)
    )
    assert per_orbit_sum(SimpleSubset(3, (1,)), SimpleSubset(3, (1,))) == (
        QPolynomial([0, 1]) * q_integer(3)
    )


def test_poincare_sum_degenerate_rank_one():
    assert poincare_sum(SimpleSubset(1, ())) == QPolynomial([1])
    assert poincare_full_variety(1) == QPolynomial([1])
    assert len(fixed_points(SimpleSubset(1, ()))) == 1


def test_poincare_sum_matches_naive_double_sum():
    for n in range(1, 6):
        for i_set in enumerate_special(n):
            assert poincare_sum(i_set) == naive_poincare_sum(i_set)


def test_poincare_full_variety_matches_naive():
    for n in range(1, 6):
        assert poincare_full_variety(n) == naive_full_variety(n)


def test_poincare_full_variety_golden():
    assert poincare_full_variety(2) == QPolynomial([1, 1, 1])
    # blow-up of the P^5 of plane conics along the Veronese surface
    blowup = QPolynomial([1] * 6) + QPolynomial([0, 1, 1]) * q_integer(3)
    assert poincare_full_variety(3) == blowup
    assert poincare_full_variety(3) == QPolynomial([1, 2, 3, 3, 2, 1])
    assert poincare_full_variety(3).evaluate_at_one() == 12


def test_poincare_full_variety_duality_and_degree():
    for n in range(2, 7):
        poly = poincare_full_variety(n)
        assert is_palindromic(poly)
        assert poly.degree == n * (n + 1) // 2 - 1
        assert poly.coeffs[0] == 1
        assert poly.coeffs[-1] == 1


def test_unique_bottom_and_top_cells():
    for n in range(2, 7):
        for i_set in enumerate_special(n):
            poly = poincare_sum(i_set)
            assert poly.coeffs[0] == 1
            assert poly.coeffs[-1] == 1
            assert poly.degree == n * (n - 1) // 2 + len(i_set)


def test_verify_km_small():
    for n in range(2, 7):
        for i_set in enumerate_special(n):
            assert verify_km(i_set)
    with pytest.raises(NotSpecialError):
        verify_km(SimpleSubset(3, (1, 2)))


def test_per_orbit_closed_form_check():
    for n in range(1, 9):
        for i_set in enumerate_special(n):
            for k in i_set.subsets():
                assert per_orbit_closed_form_check(k, i_set), (k, i_set)
                assert closed_form_doubly_cleared(k, i_set), (k, i_set)


def test_closed_form_factors_are_built_once_per_size(monkeypatch):
    pairs = [(k, i_set) for i_set in enumerate_special(7) for k in i_set.subsets()]
    sizes = {(len(k), len(i_set)) for k, i_set in pairs}
    orbit_product_formula.cache_clear()
    products = []
    multiply = QPolynomial.__mul__
    monkeypatch.setattr(
        QPolynomial, "__mul__", lambda a, b: products.append(1) or multiply(a, b)
    )
    # the closed forms are built once per size, and no pair takes a dense product
    for _ in range(2):
        assert all(per_orbit_closed_form_check(k, i_set) for k, i_set in pairs)
        assert orbit_product_formula.cache_info().misses == len(sizes)
        assert products == []


def test_closed_form_check_fails_on_a_wrong_addend(monkeypatch):
    census_side = per_orbit_sum
    monkeypatch.setattr(
        cells, "per_orbit_sum", lambda k, i_set: census_side(k, i_set) + monomial(0)
    )
    for i_set in enumerate_special(5):
        for k in i_set.subsets():
            assert not per_orbit_closed_form_check(k, i_set), (k, i_set)
            assert not closed_form_doubly_cleared(k, i_set), (k, i_set)


@pytest.mark.parametrize("shift", [2, -2])
def test_closed_form_check_fails_on_a_shifted_one_plus_q2_step(shift, monkeypatch):
    # the walk's (4, 2) step, 1 + q^2, is taken once per member of I - K;
    # moving its exponent to 6 or 2 keeps the walk exact but wrong, which
    # the shipped check must see for every K strictly inside I, while the
    # oracle, which does not walk, still holds
    times = qpoly._times_one_minus_q_pow
    monkeypatch.setattr(
        qpoly, "_times_one_minus_q_pow", lambda coeffs, k: times(coeffs, k + shift if k == 4 else k)
    )
    orbit_product_formula.cache_clear()
    try:
        for i_set in enumerate_special(6):
            for k in i_set.subsets():
                assert per_orbit_closed_form_check(k, i_set) is (k == i_set), (k, i_set)
                assert closed_form_doubly_cleared(k, i_set), (k, i_set)
    finally:
        orbit_product_formula.cache_clear()


def test_descent_characterization_check():
    for n in range(2, 7):
        for i_set in enumerate_special(n):
            for k in i_set.subsets():
                assert descent_characterization_check(k, i_set)
    # K = I is vacuous: both sides are zero
    i_set = SimpleSubset(5, (2, 4))
    assert descent_characterization_check(i_set, i_set)


@pytest.fixture
def fresh_r_memos():
    """Empty the per-K caches behind r_set and the descent check before and
    after the test, so a patched definition neither sees nor leaves stale
    entries."""
    cells._pairing_supports.cache_clear()
    cells._r_and_descents.cache_clear()
    yield
    cells._pairing_supports.cache_clear()
    cells._r_and_descents.cache_clear()


def test_descent_check_goes_through_weight_vector_definition(monkeypatch, fresh_r_memos):
    definition = cells.pairing_vector
    monkeypatch.setattr(cells, "pairing_vector", lambda k, i: -definition(k, i))
    verdicts = [
        descent_characterization_check(k, i_set)
        for i_set in enumerate_special(4)
        for k in i_set.subsets()
    ]
    assert not all(verdicts)


def test_descent_check_fails_on_any_single_wrong_r_set(monkeypatch, fresh_r_memos):
    definition = cells.r_set
    k, i_set = SimpleSubset(4, ()), SimpleSubset(4, (1, 3))
    for bad in minimal_coset_reps(k):
        for flip in i_set:

            def broken(k_, w, bad=bad, flip=flip):
                r = set(definition(k_, w))
                return tuple(sorted(r ^ {flip} if w == bad else r))

            monkeypatch.setattr(cells, "r_set", broken)
            cells._r_and_descents.cache_clear()
            assert not descent_characterization_check(k, i_set), (bad, flip)


def test_listings_match_r_set_records():
    for n in range(1, 7):
        for i_set in enumerate_special(n):
            expected = [
                CellRecord(
                    k,
                    w,
                    r_set(k, w),
                    plus_cell_dim(k, w),
                    cell_dim_in_subvariety(k, w, i_set),
                )
                for k in i_set.subsets()
                for w in minimal_coset_reps(k)
            ]
            assert fixed_points(i_set) == expected, (n, i_set)
        expected = [
            CellRecord(k, w, r_set(k, w), plus_cell_dim(k, w))
            for k in enumerate_special(n)
            for w in minimal_coset_reps(k)
        ]
        assert fixed_points_full_variety(n) == expected, n


def listing_and_records(n, i_set, separator, head, tail):
    """The text rows and the CellRecords of the same listing, with its K."""
    if i_set is None:
        rows = fixed_point_rows_full_variety(n, separator, head, tail)
        return list(rows), fixed_points_full_variety(n), enumerate_special(n)
    rows = fixed_point_rows(i_set, separator, head, tail)
    return list(rows), fixed_points(i_set), list(i_set.subsets())


def test_rows_are_grouped_by_k_in_listing_order():
    # each row is head(K) + the images joined + tail(R, dim_X, dim_XI) of the
    # record in the same place, and head is asked once per K, in order
    for n in range(1, 7):
        for i_set in [None, *enumerate_special(n)]:
            heads = []

            def head(k):
                heads.append(k)
                return f"{k} "

            def tail(r, dim_x, dim_xi):
                return f" {r} {dim_x} {dim_xi}"

            rows, records, ks = listing_and_records(n, i_set, "-", head, tail)
            assert heads == ks
            assert rows == [
                f"{rec.k} {'-'.join(map(str, rec.w.images))} {rec.r} {rec.dim_x} {rec.dim_xi}"
                for rec in records
            ]


def test_each_distinct_tail_is_formatted_once_per_listing():
    # the tail depends on (K, w) only through ell(w) + |K| and R, so through
    # (R, dim_X); each distinct one is asked for once, where it first occurs
    for n in range(1, 7):
        for i_set in [None, *enumerate_special(n)]:
            asked = []

            def tail(r, dim_x, dim_xi):
                asked.append((r, dim_x, dim_xi))
                return ""

            _, records, _ = listing_and_records(n, i_set, "", lambda k: "", tail)
            assert asked == list(dict.fromkeys((rec.r, rec.dim_x, rec.dim_xi) for rec in records)), (n, i_set)


def test_fixed_points_listing():
    records = fixed_points(SimpleSubset(3, (1,)))
    assert len(records) == 9
    assert [rec.k.members for rec in records] == [()] * 6 + [(1,)] * 3
    assert sorted(rec.dim_xi for rec in records) == [0, 1, 1, 2, 2, 2, 3, 3, 4]
    for rec in records:
        assert rec.dim_x == rec.w.length + len(rec.k) + len(rec.r)
        assert rec.dim_xi <= rec.dim_x
    # canonical order: K lexicographic, then w lexicographic
    assert records == sorted(
        records, key=lambda rec: (rec.k.members, rec.w.images)
    )

    assert len(fixed_points(SimpleSubset(2, ()))) == 2


def test_fixed_points_count_matches_euler():
    import math

    for n in range(2, 7):
        for i_set in enumerate_special(n):
            count = len(fixed_points(i_set))
            assert count == poincare_sum(i_set).evaluate_at_one()
            size = len(i_set)
            assert count == math.factorial(n) * 3**size // 2**size


def test_fixed_points_full_variety():
    records = fixed_points_full_variety(3)
    assert len(records) == 12
    assert all(rec.dim_xi is None for rec in records)
    dims = sorted(rec.dim_x for rec in records)
    assert dims == [0, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5]


def test_listing_generators_check_input_before_the_first_record():
    # raised by the call, not by the first next(), so the CLI rejects bad
    # input before it writes a byte
    head, tail = str, lambda r, dim_x, dim_xi: ""
    with pytest.raises(NotSpecialError):
        fixed_point_rows(SimpleSubset(4, (1, 2)), "", head, tail)
    with pytest.raises(ValueError):
        fixed_point_rows_full_variety(0, "", head, tail)
    # the record lists check their input the same way
    with pytest.raises(NotSpecialError):
        fixed_points(SimpleSubset(4, (2, 3)))
    with pytest.raises(ValueError):
        fixed_points_full_variety(0)


def test_betti_numbers():
    # coefficient k of the cell sum is the Betti number b_{2k}
    assert poincare_sum(SimpleSubset(3, (1,))).coeffs == (1, 2, 3, 2, 1)
    assert poincare_sum(SimpleSubset(2, ())).coeffs == (1, 1)


def test_poincare_sum_equals_product_formula_spot_check_n6():
    i_set = SimpleSubset(6, (1, 3, 5))
    assert poincare_sum(i_set) == product_formula(i_set)


def test_rank_four_addends_factor_as_expected():
    one_plus_q = QPolynomial([1, 1])
    one_plus_q2 = QPolynomial([1, 0, 1])
    q = QPolynomial([0, 1])
    q3 = q_integer(3)

    i1 = SimpleSubset(4, (1,))
    assert per_orbit_sum(SimpleSubset(4, ()), i1) == one_plus_q * one_plus_q2**2 * q3
    assert per_orbit_sum(i1, i1) == q * one_plus_q * one_plus_q2 * q3
    assert product_formula(i1) == one_plus_q * one_plus_q2 * q3**2

    i13 = SimpleSubset(4, (1, 3))
    assert per_orbit_sum(SimpleSubset(4, ()), i13) == one_plus_q2**3 * q3
    assert per_orbit_sum(SimpleSubset(4, (1,)), i13) == q * one_plus_q2**2 * q3
    assert per_orbit_sum(SimpleSubset(4, (3,)), i13) == q * one_plus_q2**2 * q3
    assert per_orbit_sum(i13, i13) == q**2 * one_plus_q2 * q3
    assert product_formula(i13) == one_plus_q2 * q3**3

    # the two singleton subvarieties in the middle of the diagram agree
    assert poincare_sum(SimpleSubset(4, (2,))) == product_formula(i1)
    assert poincare_sum(SimpleSubset(4, (3,))) == product_formula(i1)


def test_cell_record_is_an_immutable_named_tuple():
    assert CellRecord._fields == ("k", "w", "r", "dim_x", "dim_xi")
    record = fixed_points_full_variety(2)[0]
    k, w, r, dim_x, dim_xi = record
    assert record == CellRecord(k, w, r, dim_x) and dim_xi is None
    with pytest.raises(AttributeError):
        record.dim_x = 0


# Input guards that the rest of the suite never reaches, one case each.
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: per_orbit_sum(SimpleSubset(4, (2,)), SimpleSubset(4, (1, 3))), SubsetViolationError),
        (
            lambda: descent_characterization_check(SimpleSubset(4, (2,)), SimpleSubset(4, (1, 3))),
            SubsetViolationError,
        ),
        (lambda: poincare_full_variety(0), ValueError),
        (lambda: enumerate_special(0), ValueError),
        (lambda: qpoly.height_identity_check(0), ValueError),
        (lambda: nilfix.regular_nilpotent(0), ValueError),
        (lambda: nilfix.fixed_quadric_space(0), ValueError),
        (lambda: monomial(-1), ValueError),
        (lambda: qpoly.one_minus_q_pow(0), ValueError),
        (lambda: qpoly.q_factorial(-1), ValueError),
        (lambda: Permutation((2, 1))(3), ValueError),
        (lambda: WeightVector(()), ValueError),
        (lambda: WeightVector((1, 2)) + WeightVector((1, 2, 3)), ValueError),
        (lambda: WeightVector((1.5,)), TypeError),
    ],
    ids=[
        "per_orbit_sum-K-not-in-I",
        "descent_characterization_check-K-not-in-I",
        "poincare_full_variety-0",
        "enumerate_special-0",
        "height_identity_check-0",
        "regular_nilpotent-0",
        "fixed_quadric_space-0",
        "monomial-negative",
        "one_minus_q_pow-0",
        "q_factorial-negative",
        "permutation-index-out-of-range",
        "weight-vector-rank-0",
        "weight-vectors-of-two-ranks",
        "weight-vector-of-floats",
    ],
)
def test_input_guard_refuses(call, error):
    with pytest.raises(error):
        call()
