import math
import random

import pytest
from hypothesis import given, strategies as st

from quadrics import qpoly
from quadrics.parabolic import NotSpecialError, SimpleSubset, enumerate_special
from quadrics.qpoly import (
    ONE,
    InexactDivisionError,
    QPolynomial,
    exact_div,
    height_identity_check,
    is_palindromic,
    monomial,
    one_minus_q_pow,
    orbit_product_formula,
    product_formula,
    q_factorial,
    q_integer,
)

from oracles import height_by_shared_factor

polys = st.builds(
    QPolynomial, st.lists(st.integers(-50, 50), min_size=0, max_size=8)
)


def test_canonical_form_trims_trailing_zeros():
    assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPolynomial([0, 0]).coeffs == ()
    assert QPolynomial().degree == -1
    assert QPolynomial([3]).degree == 0
    with pytest.raises(TypeError):
        QPolynomial([1.5])


@pytest.mark.parametrize("coeffs", [[True, 2], [1, False], [2.0]])
def test_coefficients_refuse_bools(coeffs):
    # str(QPolynomial([True, 2])) was 'True + 2q'
    with pytest.raises(TypeError, match="^integer coefficients only"):
        QPolynomial(coeffs)


def test_str_rendering():
    assert str(QPolynomial()) == "0"
    assert str(QPolynomial([1, 2, 2, 1])) == "1 + 2q + 2q^2 + q^3"
    assert str(QPolynomial([1, 0, -1])) == "1 - q^2"
    assert str(QPolynomial([0, 1])) == "q"


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QPolynomial() == a
    assert a * QPolynomial([1]) == a
    assert (a - a).is_zero()


@given(polys, polys)
def test_exact_div_inverts_multiplication(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            exact_div(a, b)
        return
    assert exact_div(a * b, b) == a


def test_exact_div_examples():
    num = one_minus_q_pow(3) * QPolynomial([1, 1])
    assert exact_div(num, one_minus_q_pow(2)) == QPolynomial([1, 1, 1])
    with pytest.raises(InexactDivisionError):
        exact_div(QPolynomial([1, 1]), QPolynomial([1, 0, 1]))
    with pytest.raises(InexactDivisionError):
        exact_div(QPolynomial([1, 1, 1]), QPolynomial([1, 1, 1, 1]))
    with pytest.raises(InexactDivisionError):
        exact_div(QPolynomial([0, 1]), QPolynomial([2]))


def test_q_integer_and_factorial():
    assert q_integer(1) == QPolynomial([1])
    assert q_integer(4) == QPolynomial([1, 1, 1, 1])
    with pytest.raises(ValueError):
        q_integer(0)
    assert q_factorial(0) == QPolynomial([1])
    assert q_factorial(2) == QPolynomial([1, 1])
    assert q_factorial(3) == QPolynomial([1, 2, 2, 1])
    assert q_factorial(3).evaluate_at_one() == 6
    for n in range(8):
        assert q_factorial(n).evaluate_at_one() == math.factorial(n)


def dense_q_factorial(n):
    """Oracle: [n]_q! as a product of dense QPolynomials."""
    result = QPolynomial([1])
    for k in range(1, n + 1):
        result = result * q_integer(k)
    return result


def test_q_factorial_matches_the_dense_product():
    for n in range(41):
        assert q_factorial(n) == dense_q_factorial(n), n


def test_monomial_and_pow():
    assert monomial(3) == QPolynomial([0, 0, 0, 1])
    assert QPolynomial([1, 1]) ** 2 == QPolynomial([1, 2, 1])
    assert QPolynomial([1, 1]) ** 0 == QPolynomial([1])
    with pytest.raises(ValueError):
        QPolynomial([1, 1]) ** -1


def test_product_formula_golden_values():
    assert product_formula(SimpleSubset(3, ())) == QPolynomial([1, 2, 2, 1])
    assert product_formula(SimpleSubset(3, (1,))) == QPolynomial([1, 1, 1]) ** 2
    assert product_formula(SimpleSubset(3, (1,))) == QPolynomial([1, 2, 3, 2, 1])
    assert product_formula(SimpleSubset(2, (1,))) == QPolynomial([1, 1, 1])
    assert product_formula(SimpleSubset(1, ())) == QPolynomial([1])
    with pytest.raises(NotSpecialError):
        product_formula(SimpleSubset(3, (1, 2)))


def test_product_formula_at_empty_subset_is_q_factorial():
    for n in range(1, 11):
        assert product_formula(SimpleSubset(n, ())) == q_factorial(n)


def test_product_formula_degree_positivity_palindromicity():
    for n in range(1, 9):
        for i_set in enumerate_special(n):
            poly = product_formula(i_set)
            assert poly.degree == n * (n - 1) // 2 + len(i_set)
            assert all(c > 0 for c in poly.coeffs)
            assert is_palindromic(poly)


def test_product_formula_euler_characteristic():
    for n in range(1, 8):
        for i_set in enumerate_special(n):
            size = len(i_set)
            numerator = math.factorial(n) * 3**size
            assert numerator % 2**size == 0
            assert poly_euler(i_set) == numerator // 2**size


def poly_euler(i_set):
    return product_formula(i_set).evaluate_at_one()


def test_is_palindromic():
    assert is_palindromic(QPolynomial([1, 2, 1]))
    assert not is_palindromic(QPolynomial([1, 2]))
    assert is_palindromic(QPolynomial())


def test_height_identity():
    for n in range(1, 61):
        assert height_identity_check(n), n
        assert n > 40 or height_by_shared_factor(n), n


# the shipped ratio walk and its oracle, which must both catch each fault
HEIGHT_ROUTES = (height_identity_check, height_by_shared_factor)


@pytest.mark.parametrize("shift", [1, -1])
def test_height_check_fails_on_an_off_by_one_exponent(shift, monkeypatch):
    # the factor 1 - q^n occurs once, in the numerator only (j - i + 1 = n
    # at i = 1, j = n); moving its exponent by one must break the identity
    times = qpoly._times_one_minus_q_pow
    for n in (2, 3, 7, 20):
        monkeypatch.setattr(
            qpoly,
            "_times_one_minus_q_pow",
            lambda coeffs, k, n=n: times(coeffs, k + shift if k == n else k),
        )
        for check in HEIGHT_ROUTES:
            assert not check(n), (check.__name__, n)
    monkeypatch.undo()
    assert all(check(n) for check in HEIGHT_ROUTES for n in (2, 3, 7, 20))


def test_height_check_fails_on_a_shifted_q_integer(monkeypatch):
    # [n]_q! is built from its factors [k]_q on one side only; replacing its
    # factor [n]_q by [n+1]_q must break the identity
    times = qpoly._times_q_integer
    for n in (2, 3, 7, 20):
        monkeypatch.setattr(
            qpoly,
            "_times_q_integer",
            lambda coeffs, k, n=n: times(coeffs, k + 1 if k == n else k),
        )
        for check in HEIGHT_ROUTES:
            assert not check(n), (check.__name__, n)
    monkeypatch.undo()
    assert all(check(n) for check in HEIGHT_ROUTES for n in (2, 3, 7, 20))


coeff_lists = st.lists(st.integers(-10**30, 10**30), max_size=12)
exponents = st.integers(1, 9)


@given(coeff_lists, exponents)
def test_times_one_minus_q_pow_is_dense_multiplication(coeffs, k):
    out = qpoly._times_one_minus_q_pow(coeffs, k)
    assert QPolynomial(out) == QPolynomial(coeffs) * one_minus_q_pow(k)


def dense_walk(p, ratios):
    """Oracle: p times each (1 - q^a) / (1 - q^b) in turn, by dense
    multiplication and exact_div."""
    for a, b in ratios:
        p = exact_div(p * one_minus_q_pow(a), one_minus_q_pow(b))
    return p


@given(coeff_lists, st.lists(st.tuples(exponents, exponents, st.booleans()), max_size=5))
def test_walk_is_the_dense_chain_of_exact_divisions(coeffs, steps):
    # a step's flag premultiplies the start by its 1 - q^b, so that some
    # walks go through exactly and others meet a remainder
    start = QPolynomial(coeffs)
    for _, b, exact in steps:
        if exact:
            start = start * one_minus_q_pow(b)
    ratios = [(a, b) for a, b, _ in steps]
    try:
        expected = dense_walk(start, ratios)
    except InexactDivisionError:
        with pytest.raises(InexactDivisionError):
            qpoly._walk(list(start.coeffs), ratios)
    else:
        assert QPolynomial(qpoly._walk(list(start.coeffs), ratios)) == expected


@given(coeff_lists, exponents)
def test_times_q_integer_is_dense_multiplication(coeffs, k):
    out = qpoly._times_q_integer(coeffs, k)
    assert QPolynomial(out) == QPolynomial(coeffs) * q_integer(k)
    assert len(out) == len(coeffs) + k - 1


@given(coeff_lists, exponents)
def test_over_one_minus_q_pow_inverts_multiplication(coeffs, k):
    product = qpoly._times_one_minus_q_pow(coeffs, k)
    assert QPolynomial(qpoly._over_one_minus_q_pow(product, k)) == QPolynomial(coeffs)


@given(coeff_lists, exponents, st.lists(st.integers(-9, 9), min_size=1, max_size=9))
def test_over_one_minus_q_pow_rejects_a_non_multiple(coeffs, k, remainder):
    # adding a non-zero polynomial of degree < k to a multiple of 1 - q^k
    # leaves a non-multiple
    remainder = remainder[:k]
    if not any(remainder):
        remainder[0] = 1
    product = qpoly._times_one_minus_q_pow(coeffs, k)
    dividend = (QPolynomial(product) + QPolynomial(remainder)).coeffs
    with pytest.raises(InexactDivisionError):
        exact_div(QPolynomial(dividend), one_minus_q_pow(k))
    with pytest.raises(InexactDivisionError):
        qpoly._over_one_minus_q_pow(list(dividend), k)


def dense_product_formula(subset):
    """Oracle: the closed form assembled densely and divided once, the
    full numerator (1 - q^3)^|I| * prod(1 - q^k) by (1 - q^2)^|I| * (1 - q)^n."""
    n = subset.n
    size = len(subset)
    num = one_minus_q_pow(3) ** size
    for k in range(1, n + 1):
        num = one_minus_q_pow(k) * num  # the sparse factor first skips its zeros
    den = one_minus_q_pow(2) ** size * one_minus_q_pow(1) ** n
    return exact_div(num, den)


def random_special(rng, n, size):
    picks = sorted(rng.sample(range(1, n - size + 1), size))
    return SimpleSubset(n, [p + j for j, p in enumerate(picks)])


def test_product_formula_matches_dense_oracle():
    for n in range(1, 13):
        for i_set in enumerate_special(n):
            assert product_formula(i_set) == dense_product_formula(i_set), i_set
    # the largest special I, {1, 3, 5, ...}, has floor(n/2) members, so its
    # ratios use up every factor 1 + q of [n]_q!; {2, 4, 6, ...} does too
    # when n is odd
    for n in range(1, 61):
        for first in (1, 2):
            i_set = SimpleSubset(n, range(first, n, 2))
            assert product_formula(i_set) == dense_product_formula(i_set), i_set
    rng = random.Random(60)
    for _ in range(5):
        i_set = random_special(rng, 60, 15)
        assert i_set.is_special() and len(i_set) == 15
        assert product_formula(i_set) == dense_product_formula(i_set), i_set


def test_orbit_product_formula_clears_to_the_dense_product():
    # times (1 + q)^l it is q^k (1 + q^2)^(l - k) [n]_q!: every k <= l <=
    # floor(n/2) up to n = 16, and at l = floor(n/2), where the walk uses up
    # every factor 1 + q of [n]_q!, k in {0, l} up to n = 60
    one_plus_q, one_plus_q2 = QPolynomial([1, 1]), QPolynomial([1, 0, 1])
    factorial = ONE
    for n in range(1, 61):
        factorial = factorial * q_integer(n)  # dense_q_factorial(n), one factor on
        top = n // 2
        if n <= 16:
            sizes = [(k, l) for l in range(top + 1) for k in range(l + 1)]
        else:
            sizes = [(0, top), (top, top)]
        for k, l in sizes:
            left = orbit_product_formula(n, k, l) * one_plus_q**l
            assert left == monomial(k) * one_plus_q2 ** (l - k) * factorial, (n, k, l)
    with pytest.raises(ValueError):
        orbit_product_formula(6, 2, 1)
    with pytest.raises(ValueError):
        orbit_product_formula(6, 0, 4)
