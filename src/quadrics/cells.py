"""Torus fixed points and attracting-cell dimensions on the variety of
complete quadrics and its special subvarieties.

The torus fixed points of the rank-n variety sit only in the orbits
indexed by special subsets K of [n-1], and within the K-orbit they are
indexed by the minimal coset representatives W^K. The attracting cell of
the fixed point (K, w) has dimension

    ell(w) + |K| + |R_K(w)|,

where R_K(w) = {i in K^c : w(alpha_i + w_{0,K}(alpha_i)) < 0} under the
leading-coefficient sign convention, and cutting down to the subvariety
indexed by a special I containing K removes |I^c intersect R_K(w)|
directions. Summing q^dim over the cells gives the Poincare polynomial;
comparing that sum with the closed product form is the generalized
Kostant-Macdonald identity this package verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from quadrics.kernel import cell_census
from quadrics.parabolic import (
    NotSpecialError,
    SimpleSubset,
    enumerate_special,
    is_minimal_rep,
    longest_element,
    minimal_coset_reps,
)
from quadrics.qpoly import QPolynomial, monomial, q_integer, product_formula
from quadrics.symmetric_group import Permutation, WeightVector, simple_root


class NotMinimalRepError(ValueError):
    """Raised when a permutation is not the minimal representative of its
    coset modulo W_K."""


class SubsetViolationError(ValueError):
    """Raised when an operation needs K contained in I and it is not."""


@dataclass(frozen=True)
class CellRecord:
    """One torus fixed point (K, w) with its attracting-cell data.

    dim_xi is filled when a target subvariety I containing K was supplied.
    """

    k: SimpleSubset
    w: Permutation
    r: tuple[int, ...]
    dim_x: int
    dim_xi: Optional[int] = None


def _require_special(subset: SimpleSubset) -> None:
    if not subset.is_special():
        raise NotSpecialError(f"{subset} contains consecutive members")


def _require_rep(k: SimpleSubset, w: Permutation) -> None:
    if w.n != k.n:
        raise ValueError(f"rank mismatch: {k.n} vs {w.n}")
    if not is_minimal_rep(k, w):
        raise NotMinimalRepError(f"{w!r} has a descent inside {k}")


def pairing_vector(k: SimpleSubset, i: int) -> WeightVector:
    """alpha_i + w_{0,K}(alpha_i), the weight whose sign after applying w
    decides whether i enters R_K(w)."""
    w0 = longest_element(k)
    alpha = simple_root(i, k.n)
    return alpha + w0.act(alpha)


def r_set(k: SimpleSubset, w: Permutation) -> tuple[int, ...]:
    """R_K(w): the i outside K where w(alpha_i + w_{0,K}(alpha_i)) < 0.

    These are the extra attracting directions of the cell at (K, w) beyond
    the ell(w) + |K| forced ones.
    """
    _require_special(k)
    _require_rep(k, w)
    return tuple(
        i for i in k.complement() if w.act(pairing_vector(k, i)).sign() < 0
    )


def s_value(k: SimpleSubset, i_set: SimpleSubset, w: Permutation) -> int:
    """|R_K(w) intersect (I - K)|, the cell-dimension correction inside the
    subvariety indexed by I."""
    _require_special(i_set)
    if not k.issubset(i_set):
        raise SubsetViolationError(f"{k} is not contained in {i_set}")
    rest = set(i_set.difference(k))
    return sum(1 for i in r_set(k, w) if i in rest)


def plus_cell_dim(k: SimpleSubset, w: Permutation) -> int:
    """Dimension ell(w) + |K| + |R_K(w)| of the attracting cell at (K, w)
    inside the full variety."""
    return w.length + len(k) + len(r_set(k, w))


def cell_dim_in_subvariety(k: SimpleSubset, w: Permutation, i_set: SimpleSubset) -> int:
    """Dimension of the attracting cell at (K, w) cut down to the
    subvariety indexed by I: plus_cell_dim minus |I^c intersect R_K(w)|.

    Equals ell(w) + |K| + s_value(k, i_set, w).
    """
    _require_special(i_set)
    if not k.issubset(i_set):
        raise SubsetViolationError(f"{k} is not contained in {i_set}")
    r = r_set(k, w)
    outside = set(i_set.complement())
    return plus_cell_dim(k, w) - sum(1 for i in r if i in outside)


def _census_polynomial(n: int, k_members: tuple[int, ...], target_mask: int) -> QPolynomial:
    """Sum of q^(ell(w) + |K| + |R_K(w) intersect target|) over W^K."""
    census = cell_census(n, k_members, target_mask)
    coeffs = [0] * (len(k_members) + max(census) + 1)
    for exponent, count in census.items():
        coeffs[len(k_members) + exponent] = count
    return QPolynomial(coeffs)


def per_orbit_sum(k: SimpleSubset, i_set: SimpleSubset) -> QPolynomial:
    """The K-addend of the fixed-point sum for the subvariety indexed by I:
    sum over w in W^K of q^(ell(w) + |K| + s_{K,I}(w))."""
    _require_special(i_set)
    _require_special(k)
    if not k.issubset(i_set):
        raise SubsetViolationError(f"{k} is not contained in {i_set}")
    rest_mask = i_set.mask & ~k.mask
    return _census_polynomial(k.n, k.members, rest_mask)


def poincare_sum(i_set: SimpleSubset) -> QPolynomial:
    """Poincare polynomial of the subvariety indexed by special I, computed
    from its cell decomposition: the double sum over K contained in I and
    w in W^K of q^(ell(w) + |K| + s_{K,I}(w))."""
    _require_special(i_set)
    total = QPolynomial()
    for k in i_set.subsets():
        total = total + per_orbit_sum(k, i_set)
    return total


def full_variety_orbit_sum(k: SimpleSubset) -> QPolynomial:
    """The K-layer of the full variety's cell sum: q^(ell(w) + |K| +
    |R_K(w)|) over w in W^K."""
    _require_special(k)
    full_mask = (1 << (k.n - 1)) - 1 if k.n > 1 else 0
    return _census_polynomial(k.n, k.members, full_mask)


def poincare_full_variety(n: int) -> QPolynomial:
    """Poincare polynomial of the full rank-n variety of complete quadrics:
    cells summed over every special K and w in W^K with exponent
    ell(w) + |K| + |R_K(w)|. Non-special orbits carry no torus fixed
    points, so they contribute no cells."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    total = QPolynomial()
    for k in enumerate_special(n):
        total = total + full_variety_orbit_sum(k)
    return total


def verify_km(i_set: SimpleSubset) -> bool:
    """Generalized Kostant-Macdonald identity: the fixed-point sum equals
    the closed product form, exactly."""
    return poincare_sum(i_set) == product_formula(i_set)


def per_orbit_closed_form_check(k: SimpleSubset, i_set: SimpleSubset) -> bool:
    """Closed form of a single K-addend, verified by cross-multiplication.

    With |K| = k and |I| = l the addend satisfies

        sum_{w in W^K} q^(ell(w)+|K|+s) = (q/(1+q^2))^k ((1+q^2)/(1+q))^l [n]_q!,

    which clears denominators to

        addend * (1+q^2)^k * (1+q)^l == q^k * (1+q^2)^l * prod_i [i]_q.
    """
    addend = per_orbit_sum(k, i_set)
    size_k = len(k)
    size_l = len(i_set)
    one_plus_q2 = QPolynomial([1, 0, 1])
    one_plus_q = QPolynomial([1, 1])
    lhs = addend * one_plus_q2 ** size_k * one_plus_q ** size_l
    rhs = monomial(size_k) * one_plus_q2 ** size_l
    for i in range(1, k.n + 1):
        rhs = rhs * q_integer(i)
    return lhs == rhs


def descent_characterization_check(k: SimpleSubset, i_set: SimpleSubset) -> bool:
    """s_{K,I}(w) = |{i in I - K : ell(w s_i) < ell(w)}| for every w in W^K.

    The left side goes through the R-set machinery, the right side through
    plain descent counting; agreeing on all of W^K ties the sign convention
    to descents.
    """
    _require_special(i_set)
    if not k.issubset(i_set):
        raise SubsetViolationError(f"{k} is not contained in {i_set}")
    rest = set(i_set.difference(k))
    for w in minimal_coset_reps(k):
        by_descents = sum(1 for i in w.right_descents if i in rest)
        if s_value(k, i_set, w) != by_descents:
            return False
    return True


def fixed_points(i_set: SimpleSubset) -> list[CellRecord]:
    """One CellRecord per torus fixed point of the subvariety indexed by
    special I, in canonical order: K by lexicographic subset order, w by
    lexicographic one-line order."""
    _require_special(i_set)
    outside = set(i_set.complement())
    records = []
    for k in i_set.subsets():
        base = len(k)
        for w in minimal_coset_reps(k):
            r = r_set(k, w)
            dim_x = w.length + base + len(r)
            dim_xi = dim_x - sum(1 for i in r if i in outside)
            records.append(CellRecord(k, w, r, dim_x, dim_xi))
    return records


def fixed_points_full_variety(n: int) -> list[CellRecord]:
    """One CellRecord per torus fixed point of the full rank-n variety, in
    canonical order; dim_xi stays unset since no target subvariety is
    involved."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    records = []
    for k in enumerate_special(n):
        base = len(k)
        for w in minimal_coset_reps(k):
            r = r_set(k, w)
            records.append(CellRecord(k, w, r, w.length + base + len(r)))
    return records


def betti(i_set: SimpleSubset) -> list[int]:
    """Even Betti numbers of the subvariety indexed by I: entry k is the
    coefficient of q^k in the fixed-point sum, i.e. b_{2k}."""
    return list(poincare_sum(i_set).coeffs)
