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
evaluates R through it once per (K, w), against the descents the W^K
search reads off its comparisons of each index with the one before, and
so do the tests, which also build the cell dimensions from it one (K, w)
at a time. The cell sums and the fixed-point listings use the equivalent
local comparison of `quadrics.kernel` instead, with `r_set` as its test
oracle. Each cell sum is one call of `kernel.cell_census`, which folds
the choice of K into its DP: one orbit K is the interval K <= K <= K,
the subvariety indexed by I is {} <= K <= I, and the full variety lets
every special K in. The closed forms the sums are compared with are built
in `qpoly`. The engine keeps nothing between calls. This layer keeps
three memos, each an unbounded lru_cache, so each is bounded only by what
one run asks for; per rank n there are F(n+1) special subsets (F the
Fibonacci numbers):
- `poincare_sum`, the polynomial of each special I asked for: the `km`,
  `duality` and `euler` checks of `verify` each ask for the same I, so it
  runs one census per I, not three;
- `_pairing_supports`, per special K given to `r_set`: n - |K| short
  tuples;
- `_r_and_descents`, per special K of the descent check: the distinct
  (R_K(w), descents of w) pairs, at most |W^K| of them.
The fixed-K censuses of the per-orbit closed-form check are never asked
for twice and are not kept.

The listings are generated as text rows (`fixed_point_rows`,
`fixed_point_rows_full_variety`), in a layout the caller gives as a
separator and two formatters, head(K) and tail(R, dim_x, dim_xi). Each
row is one concatenation: the text the depth-first search yields, which
starts with head(K) (formatted once per K and given as the search's
root) and joins the images with the separator; and the tail. The search
carries ell(w) and, as its hits against the references of
`kernel.r_references` (listed once per K), R_K(w). Each listing keeps two
memos, both dropped when it ends:
- the search's suffixes, the text of every order of each set of four
  values its leaves place, shared by the searches of all its K: at most
  n!/(n-4)! strings (1,680 at n = 8), however large W^K is;
- the tails: a tail depends on (K, w) only through ell(w) + |K| and
  R_K(w), so each distinct pair is formatted once, at most a few thousand
  short strings at n = 8.
No object is built per row, so a caller that writes the rows in
fixed-size chunks (as `quadrics cells` does) holds one chunk at a time.
`fixed_points` and `fixed_points_full_variety` list the same fixed points
as CellRecord objects, from the search's image tuples.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from quadrics.kernel import cell_census, r_references
from quadrics.parabolic import (
    SimpleSubset,
    _coset_rep_search,
    enumerate_special,
    is_minimal_rep,
    longest_element,
    minimal_coset_rep_images,
    minimal_coset_reps,  # not called here; the benchmark tracer wraps it by name
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
    """The distinct pairs (r_set(k, w), right descents of w) over w in W^K.
    The search compares each index i with i - 1, so its hits are the i with
    w(i) > w(i+1), 1-based: the right descents."""
    trusted = Permutation._trusted  # the search yields bijections only
    adjacent = [(i, i - 1) for i in range(1, k.n)]
    return tuple(
        dict.fromkeys(
            (r_set(k, trusted(images)), descents)
            for images, _, descents in minimal_coset_rep_images(k, adjacent)
        )
    )


# The fields of one fixed point (K, w) in a listing: head(K) before the
# one-line images, which are joined by the separator, and tail(R_K(w),
# dim_x, dim_xi) after them, with dim_xi None when no target subvariety is
# involved.
Head = Callable[[SimpleSubset], str]
Tail = Callable[[tuple[int, ...], int, Optional[int]], str]


def fixed_point_rows(i_set: SimpleSubset, separator: str, head: Head, tail: Tail) -> Iterator[str]:
    """The torus fixed points of the subvariety indexed by special I as
    text rows head(K) + images + tail(R, dim_x, dim_xi), K over the subsets
    of I in lexicographic order, w in W^K in lexicographic one-line order.
    I is checked before the first row."""
    require_special(i_set)
    return _text_rows(i_set.subsets(), frozenset(i_set.complement()), separator, head, tail)


def fixed_point_rows_full_variety(n: int, separator: str, head: Head, tail: Tail) -> Iterator[str]:
    """The torus fixed points of the full rank-n variety as text rows, over
    the special K, as in fixed_point_rows; dim_xi is None. n is checked
    before the first row."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    return _text_rows(enumerate_special(n), None, separator, head, tail)


def _dims(forced: int, r: tuple[int, ...], outside: Optional[frozenset[int]]) -> tuple[int, Optional[int]]:
    """(dim_x, dim_xi) of the cell at (K, w) from forced = ell(w) + |K| and
    R = R_K(w): forced + |R|, less the directions of R outside I when I^c
    is given."""
    dim_x = forced + len(r)
    return dim_x, None if outside is None else dim_x - len(outside.intersection(r))


def _text_rows(
    ks: Iterable[SimpleSubset], outside: Optional[frozenset[int]], separator: str, head: Head, tail: Tail
) -> Iterator[str]:
    """Rows over W^K for each K of ks in turn, each one concatenation: the
    search's text, head(K) (formatted once per K) and the images joined,
    then the tail. The searches of all K share one memo of suffixes. The
    tail depends on (K, w) only through ell(w) + |K| and R_K(w), so it is
    formatted once per distinct pair in the listing."""
    tails: dict[tuple[int, tuple[int, ...]], str] = {}
    suffixes: dict = {}
    for k in ks:
        size = len(k)
        for text, length, r in _coset_rep_search(
            k.n, k.members, r_references(k.n, k.members), separator, head(k), suffixes
        ):
            key = length + size, r
            tail_text = tails.get(key)
            if tail_text is None:
                tail_text = tails[key] = tail(r, *_dims(key[0], r, outside))
            yield text + tail_text


def _records(ks: Iterable[SimpleSubset], outside: Optional[frozenset[int]]) -> list[CellRecord]:
    """One CellRecord per w in W^K over ks in turn, with R_K(w) by the local
    rule of `kernel` and ell(w) as carried by the search."""
    return [
        CellRecord(k, Permutation(images), r, *_dims(length + len(k), r, outside))
        for k in ks
        for images, length, r in minimal_coset_rep_images(k, r_references(k.n, k.members))
    ]


def fixed_points(i_set: SimpleSubset) -> list[CellRecord]:
    """The fixed points of fixed_point_rows(i_set), in its order, as
    CellRecords."""
    require_special(i_set)
    return _records(i_set.subsets(), frozenset(i_set.complement()))


def fixed_points_full_variety(n: int) -> list[CellRecord]:
    """The fixed points of fixed_point_rows_full_variety(n), in its order,
    as CellRecords; dim_xi stays unset."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    return _records(enumerate_special(n), None)
