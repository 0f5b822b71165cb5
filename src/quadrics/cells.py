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

`r_set` is that weight-vector definition of R_K(w); the descent check
evaluates R through it once per (K, w), and so do the tests, which also
build the cell dimensions from it one (K, w) at a time. The cell sums and
the fixed-point listings use the equivalent local comparison of
`quadrics.kernel` instead, with `r_set` as its test oracle. Each cell
sum is one call of `kernel.cell_census`, which folds the choice of K
into its DP: one orbit K is the interval K <= K <= K, the subvariety
indexed by I is {} <= K <= I, and the full variety lets every special K
in. The closed forms the sums are compared with are built in `qpoly`.
The engine keeps nothing between calls. This layer keeps three memos,
each an unbounded lru_cache, so each is bounded only by what one run
asks for; per rank n there are F(n+1) special subsets (F the Fibonacci
numbers):
- `poincare_sum`, the polynomial of each special I asked for: the `km`,
  `duality` and `euler` checks of `verify` each ask for the same I, so it
  runs one census per I, not three;
- `_pairing_supports`, per special K given to `r_set`: n - |K| short
  tuples;
- `_r_and_descents`, per special K of the descent check: the distinct
  (R_K(w), descents of w) pairs, at most |W^K| of them.
The fixed-K censuses of the per-orbit closed-form check are never asked
for twice and are not kept.

The listings are generated as plain rows (`fixed_point_rows`,
`fixed_point_rows_full_variety`): for each K in turn, the rows
(w.images, R_K(w), dim_x, dim_xi) over W^K, straight from the depth-first
search, which carries ell(w) and, as its hits against the references of
`kernel.r_references` (listed once per K), R_K(w). No object is built
per row, so a caller that formats K once per group and writes the rows in
fixed-size chunks (as `quadrics cells` does) holds one chunk at a time.
`fixed_points` and `fixed_points_full_variety` list the same rows as
CellRecord objects.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

from quadrics.kernel import cell_census, r_references
from quadrics.parabolic import (
    SimpleSubset,
    enumerate_special,
    is_minimal_rep,
    longest_element,
    minimal_coset_rep_images,
    minimal_coset_reps,
    require_special,
)
from quadrics.qpoly import QPolynomial, orbit_product_formula, product_formula
from quadrics.symmetric_group import Permutation, WeightVector, simple_root


class NotMinimalRepError(ValueError):
    """Raised when a permutation is not the minimal representative of its
    coset modulo W_K."""


class SubsetViolationError(ValueError):
    """Raised when an operation needs K contained in I and it is not."""


class CellRecord(NamedTuple):
    """One torus fixed point (K, w) with its attracting-cell data.

    dim_xi is filled when a target subvariety I containing K was supplied.
    """

    k: SimpleSubset
    w: Permutation
    r: tuple[int, ...]
    dim_x: int
    dim_xi: Optional[int] = None


def pairing_vector(k: SimpleSubset, i: int) -> WeightVector:
    """alpha_i + w_{0,K}(alpha_i), the weight whose sign after applying w
    decides whether i enters R_K(w)."""
    w0 = longest_element(k)
    alpha = simple_root(i, k.n)
    return alpha + w0.act(alpha)


@lru_cache(maxsize=None)
def _pairing_supports(k: SimpleSubset) -> tuple[tuple[int, tuple[int, ...], frozenset[int]], ...]:
    """(i, positions, negative) for each i outside K: the 0-based positions
    j - 1 of the nonzero coefficients c_j of pairing_vector(k, i), and
    those of them where c_j < 0."""
    vectors = ((i, pairing_vector(k, i).coeffs) for i in k.complement())
    return tuple(
        (i, tuple(j for j, c in enumerate(v) if c), frozenset(j for j, c in enumerate(v) if c < 0))
        for i, v in vectors
    )


def r_set(k: SimpleSubset, w: Permutation) -> tuple[int, ...]:
    """R_K(w): the i outside K where w(alpha_i + w_{0,K}(alpha_i)) < 0.

    These are the extra attracting directions of the cell at (K, w) beyond
    the ell(w) + |K| forced ones. w sends the coefficient c_j to position
    w(j), so the sign after w acts is the sign of the c_j with the
    smallest image w(j).
    """
    require_special(k)
    if not is_minimal_rep(k, w):  # refuses a rank mismatch first
        raise NotMinimalRepError(f"{w!r} has a descent inside {k}")
    image = w.images.__getitem__
    r = []
    for i, positions, negative in _pairing_supports(k):
        if min(positions, key=image) in negative:
            r.append(i)
    return tuple(r)


def _cell_sum(n: int, forced: int, allowed: int, target: int) -> QPolynomial:
    """Sum of q^(ell(w) + |K| + |R_K(w) intersect target|) over the special
    K with forced <= K <= allowed (as masks) and w in W^K: one census."""
    census = cell_census(n, forced, allowed, target)
    return QPolynomial(census.get(e, 0) for e in range(max(census) + 1))


def per_orbit_sum(k: SimpleSubset, i_set: SimpleSubset) -> QPolynomial:
    """The K-addend of the fixed-point sum for the subvariety indexed by I:
    sum over w in W^K of q^(ell(w) + |K| + s_{K,I}(w))."""
    require_special(i_set)
    require_special(k)
    if not k.issubset(i_set):
        raise SubsetViolationError(f"{k} is not contained in {i_set}")
    return _cell_sum(k.n, k.mask, k.mask, i_set.mask & ~k.mask)


@lru_cache(maxsize=None)
def poincare_sum(i_set: SimpleSubset) -> QPolynomial:
    """Poincare polynomial of the subvariety indexed by special I, computed
    from its cell decomposition: the double sum over K contained in I and
    w in W^K of q^(ell(w) + |K| + s_{K,I}(w)), in one census.

    Remembered per I, since `verify` asks for the same I once in each of
    its `km`, `duality` and `euler` checks. The memo holds one polynomial
    per special I asked for."""
    require_special(i_set)
    return _cell_sum(i_set.n, 0, i_set.mask, i_set.mask)


def full_variety_orbit_sum(k: SimpleSubset) -> QPolynomial:
    """The K-layer of the full variety's cell sum: q^(ell(w) + |K| +
    |R_K(w)|) over w in W^K."""
    require_special(k)
    return _cell_sum(k.n, k.mask, k.mask, (1 << (k.n - 1)) - 1)


def poincare_full_variety(n: int) -> QPolynomial:
    """Poincare polynomial of the full rank-n variety of complete quadrics:
    cells summed over every special K and w in W^K with exponent
    ell(w) + |K| + |R_K(w)|, in one census. Non-special orbits carry no
    torus fixed points, so they contribute no cells."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    everything = (1 << (n - 1)) - 1
    return _cell_sum(n, 0, everything, everything)


def verify_km(i_set: SimpleSubset) -> bool:
    """Generalized Kostant-Macdonald identity: the fixed-point sum equals
    the closed product form, exactly."""
    return poincare_sum(i_set) == product_formula(i_set)


def per_orbit_closed_form_check(k: SimpleSubset, i_set: SimpleSubset) -> bool:
    """Closed form of a single K-addend: the fixed-K census equals
    `qpoly.orbit_product_formula`, exactly."""
    return per_orbit_sum(k, i_set) == orbit_product_formula(k.n, len(k), len(i_set))


def descent_characterization_check(k: SimpleSubset, i_set: SimpleSubset) -> bool:
    """s_{K,I}(w) = |{i in I - K : ell(w s_i) < ell(w)}| for every w in W^K.

    The left side goes through the weight-vector definition r_set, the
    right side through plain descent counting; agreeing on all of W^K ties
    the sign convention to descents. Both sides are read from the distinct
    (R_K(w), descents of w) pairs over W^K, computed once per K.
    """
    require_special(i_set)
    if not k.issubset(i_set):
        raise SubsetViolationError(f"{k} is not contained in {i_set}")
    rest = set(i_set.difference(k))
    return all(
        sum(1 for i in r if i in rest) == sum(1 for i in descents if i in rest)
        for r, descents in _r_and_descents(k)
    )


@lru_cache(maxsize=None)
def _r_and_descents(k: SimpleSubset) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The distinct pairs (r_set(k, w), w.right_descents) over w in W^K."""
    return tuple(
        dict.fromkeys((r_set(k, w), w.right_descents) for w in minimal_coset_reps(k))
    )


# One fixed point as a plain row: (w.images, R_K(w), dim_x, dim_xi), with
# dim_xi None when no target subvariety is involved.
Row = tuple[tuple[int, ...], tuple[int, ...], int, Optional[int]]


def fixed_point_rows(i_set: SimpleSubset) -> Iterator[tuple[SimpleSubset, Iterator[Row]]]:
    """The torus fixed points of the subvariety indexed by special I as
    plain rows, grouped by K: (K, rows over W^K) for each K contained in I
    by lexicographic subset order, w by lexicographic one-line order. Each
    K's rows are to be read before the next K is asked for. I is checked
    before the first group."""
    require_special(i_set)
    return _rows(i_set.subsets(), frozenset(i_set.complement()))


def fixed_point_rows_full_variety(n: int) -> Iterator[tuple[SimpleSubset, Iterator[Row]]]:
    """The torus fixed points of the full rank-n variety as plain rows,
    grouped by special K as in fixed_point_rows; dim_xi is None. n is
    checked before the first group."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    return _rows(enumerate_special(n), None)


def _rows(
    ks: Iterable[SimpleSubset], outside: Optional[frozenset[int]]
) -> Iterator[tuple[SimpleSubset, Iterator[Row]]]:
    for k in ks:
        yield k, _orbit_rows(k, outside)


def _orbit_rows(k: SimpleSubset, outside: Optional[frozenset[int]]) -> Iterator[Row]:
    """Rows over W^K: R by the local rule of `kernel`, ell(w) as carried by
    the search, and dim_xi when the complement of I is given."""
    base = len(k)
    for images, length, r in minimal_coset_rep_images(k, r_references(k.n, k.members)):
        dim_x = length + base + len(r)
        yield images, r, dim_x, None if outside is None else dim_x - len(outside.intersection(r))


def fixed_points(i_set: SimpleSubset) -> list[CellRecord]:
    """One CellRecord per row of fixed_point_rows(i_set), in its order."""
    return [
        CellRecord(k, Permutation(images), r, dim_x, dim_xi)
        for k, rows in fixed_point_rows(i_set)
        for images, r, dim_x, dim_xi in rows
    ]


def fixed_points_full_variety(n: int) -> list[CellRecord]:
    """One CellRecord per row of fixed_point_rows_full_variety(n), in its
    order; dim_xi stays unset."""
    return [
        CellRecord(k, Permutation(images), r, dim_x, dim_xi)
        for k, rows in fixed_point_rows_full_variety(n)
        for images, r, dim_x, dim_xi in rows
    ]
