"""Test oracles: brute-force and reference versions of what the package
computes, each independent of the shipped path it is compared against.
Nothing under src/ imports this file.

* enumerate_permutations (all of S_n, from itertools) checks the
  depth-first W^K search of `parabolic` and the classical identity
  sum_w q^ell(w) = [n]_q!; simple_reflection checks right descents as the
  length drops of w s_i, and descents_by_comparison checks
  `Permutation.right_descents` position by position.
* comparison_hits, the comparisons of one finished row, checks the hits
  the W^K search decides as it places each position.
  three_value_leaf_search is that search as it was when it compared
  values and each leaf placed the last three of them one at a time; it
  checks `parabolic._coset_rep_search`, which compares Lehmer digits and
  whose four-value leaves read their orders, digit sums and hits off
  tables shared by leaf pattern and key, and their text off a memo of
  suffixes, item for item.
* parabolic_subgroup (W_K from its commuting generators) checks
  `parabolic.minimal_coset_reps` by the unique length-additive
  factorization w = u x, u in W^K, x in W_K.
* s_value, plus_cell_dim and cell_dim_in_subvariety give cell dimensions
  one (K, w) at a time through the weight-vector `cells.r_set`; they check
  the census of `kernel` and the rows of `cells.fixed_point_rows`.
* census_by_lists is the insertion DP of `kernel.cell_census` with each
  state's polynomial as a dense coefficient list, added into term by term
  for every state and rank; it checks the packed-integer census. Inputs
  that agree on the low bits of their masks share the states of the
  steps that read only those bits.
* height_by_shared_factor is the root-height identity cross-multiplied
  into one division-free polynomial comparison, both sides completed from
  the factor they share; it checks the ratio walk of
  `qpoly.height_identity_check`. closed_form_doubly_cleared is the
  per-orbit closed form with both denominators, (1 + q^2)^|K| and
  (1 + q)^|I|, cleared by dense products; it checks
  `cells.per_orbit_closed_form_check`, whose `qpoly.orbit_product_formula`
  divides them out by the same ratio walk.
* rational_rank and rational_nullspace (dense Gauss-Jordan elimination
  over Fractions) check the fraction-free sparse elimination of `nilfix`:
  its rank `row_echelon_rank` in either column order, and its canonical
  basis `nullspace_basis`, the same vectors in the same order with the
  same signs.
* fixed_flag and fixed_flag_uniqueness_oracle (a count of flags over F_p)
  check that the regular nilpotent fixes one flag of each type K^c.
  block_sizes lists that flag's blocks for any K; the subset walk of the
  classifier oracle in the tests reads them off it, and checks the run
  loop of `nilfix.regularity_classifier`.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Iterator, Optional, Sequence

from quadrics import cells, qpoly
from quadrics.cells import SubsetViolationError, r_set
from quadrics.nilfix import regular_nilpotent
from quadrics.parabolic import SimpleSubset, require_special
from quadrics.qpoly import QPolynomial, monomial, q_integer
from quadrics.symmetric_group import Permutation


# --- symmetric group -----------------------------------------------------

def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n, streamed in lexicographic one-line order.

    >>> [str(w) for w in enumerate_permutations(3)][:3]
    ['123', '132', '213']
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def descents_by_comparison(w: Permutation) -> tuple[int, ...]:
    """The i in [n-1] with w(i) > w(i+1), one comparison at a time."""
    images = w.images
    return tuple(i for i in range(1, w.n) if images[i - 1] > images[i])


def simple_reflection(i: int, n: int) -> Permutation:
    """The adjacent transposition s_i = (i, i+1) in S_n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range [1, {n - 1}]")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(images)


def parabolic_subgroup(k: SimpleSubset) -> list[Permutation]:
    """All 2^|K| elements of W_K for special K: products of subsets of the
    commuting generators (i, i+1), i in K."""
    require_special(k)
    out = []
    for size in range(len(k) + 1):
        for members in itertools.combinations(k.members, size):
            images = list(range(1, k.n + 1))
            for i in members:
                images[i - 1], images[i] = images[i], images[i - 1]
            out.append(Permutation(images))
    return out


def comparison_hits(images: Sequence[int], references: Sequence[tuple[int, int]]) -> list[int]:
    """The i of the (i, p) in references with images[i] < images[p], read
    off the finished one-line images."""
    return [i for i, p in references if images[i] < images[p]]


def three_value_leaf_search(
    n: int, members: tuple[int, ...], references: Iterable[tuple[int, int]], separator: Optional[str]
) -> Iterator[tuple]:
    """The W^K search of `parabolic` as it was before its leaves placed four
    indices from per-K tables: (images, or their text given a separator,
    ell(w), hits) in lexicographic one-line order, each leaf placing the
    last three values one lookup and one concatenation at a time. It checks
    `parabolic._coset_rep_search` item for item."""
    # ascent[p]: position p is in K, so w(p+1) must exceed w(p)
    ascent = [False] * (n + 1)
    for i in members:
        ascent[i] = True
    against = list(map(dict(references).get, range(n)))  # i: the index images[i] is compared with, or None
    if n < 3:
        # S_1 and S_2, too small for the leaves below, which place three indices
        for images in [(1,)] if n == 1 else [(1, 2)] if ascent[1] else [(1, 2), (2, 1)]:
            length = images[0] - 1
            hits = (1,) if length and against[1] == 0 else ()
            yield (images if separator is None else separator.join(map(str, images))), length, hits
        return
    # text: the images joined by separator, one concatenation per placed
    # value; pieces[p][value] is what placing value at index p appends. With
    # no separator every piece is "", which concatenates for free
    if separator is None:
        firsts = inner = [""] * (n + 1)
    else:
        firsts = list(map(str, range(n + 1)))
        inner = [separator + value for value in firsts]
    pieces = [firsts] + [inner] * (n - 1)
    # the leaves place the last three indices q, q+1, q+2 together. What does
    # not depend on the prefix is settled once for each order of the three
    # unplaced values, given as their ranks: whether K allows it, its
    # inversions, and whether q+1 and q+2 are hits against one of the three.
    # below1 and below2: the earlier index q+1 and q+2 are compared with
    q = n - 3
    orders = []
    for order in permutations(range(3)):
        if any(ascent[q + t] and order[t] < order[t - 1] for t in (1, 2)):
            continue
        inversions = sum(order[s] > order[t] for s, t in ((0, 1), (0, 2), (1, 2)))
        inside = [j is not None and j >= q and order[t] < order[j - q] for t, j in enumerate(against[q:])]
        orders.append((*order, inversions, inside[1], inside[2]))
    below1, below2 = (j if j is not None and j < q else None for j in against[q + 1 :])
    # (prefix, text, unplaced values in increasing order, inversions so far,
    # hits so far); children are pushed largest value first so the smallest
    # pops first
    stack = [((), "", tuple(range(1, n + 1)), 0, ())]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, text, unplaced, length, hits = pop()
        p = len(prefix)
        floor = prefix[-1] if ascent[p] else 0
        # a value placed at index p is a hit when below top
        top = 0 if (j := against[p]) is None else prefix[j]
        level = pieces[p]
        if p == q:
            top1 = 0 if below1 is None else prefix[below1]
            top2 = 0 if below2 is None else prefix[below2]
            for rank0, rank1, rank2, inversions, hit1, hit2 in orders:
                x = unplaced[rank0]
                if x > floor:
                    y, z = unplaced[rank1], unplaced[rank2]
                    tail = hits + (q,) if x < top else hits
                    if hit1 or y < top1:
                        tail += (q + 1,)
                    if hit2 or z < top2:
                        tail += (q + 2,)
                    yield (
                        prefix + (x, y, z) if separator is None else text + level[x] + inner[y] + inner[z],
                        length + inversions,
                        tail,
                    )
            continue
        for idx in range(len(unplaced) - 1, -1, -1):
            value = unplaced[idx]
            if value > floor:
                hit = hits + (p,) if value < top else hits
                rest = unplaced[:idx] + unplaced[idx + 1 :]
                push((prefix + (value,), text + level[value], rest, length + idx, hit))


# --- cell dimensions, one fixed point at a time ----------------------------

def s_value(k: SimpleSubset, i_set: SimpleSubset, w: Permutation) -> int:
    """|R_K(w) intersect (I - K)|, the cell-dimension correction inside the
    subvariety indexed by I."""
    require_special(i_set)
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
    require_special(i_set)
    if not k.issubset(i_set):
        raise SubsetViolationError(f"{k} is not contained in {i_set}")
    outside = set(i_set.complement())
    return plus_cell_dim(k, w) - sum(1 for i in r_set(k, w) if i in outside)


def census_by_lists(n: int, forced: int, allowed: int, target: int) -> dict[int, int]:
    """`kernel.cell_census` on coefficient lists: the same states (s, joined),
    each move added into its destination one coefficient at a time, O(n^5)
    additions. Inputs are taken as valid; the tests validate through the
    packed census."""
    states = _list_step(n, n, forced, allowed, target)
    totals = [sum(column) for column in zip(*states.values())]
    return {e: count for e, count in enumerate(totals) if count}


def _list_step(n: int, p: int, forced: int, allowed: int, target: int) -> dict:
    """The states of census_by_lists after step p. Step p reads bit p-2 of
    each mask only, so the states before it come from the masks cut to
    bits 0..p-3, and inputs that agree there share them. Every list has
    room for the highest exponent of any census at rank n, and none is
    modified once made."""
    size = n * (n - 1) // 2 + n
    if p == 1:
        return {(0, False): [1] + [0] * (size - 1)}
    low = (1 << (p - 2)) - 1
    states = _shared_list_step(n, p - 1, forced & low, allowed & low, target & low)
    bit = 1 << (p - 2)
    must, may, counted = forced & bit, allowed & bit, bool(target & bit)
    nxt: dict[tuple[int, bool], list[int]] = {}
    for (s, joined), poly in states.items():
        terms = [(e, c) for e, c in enumerate(poly) if c]
        for r in range(p):
            below = r <= s
            moves = []
            if may and not joined and not below:
                moves.append(((s, True), p - r))
            if not must:
                moves.append(((r, False), p - 1 - r + (below and counted)))
            for key, shift in moves:
                dest = nxt.setdefault(key, [0] * size)
                for e, c in terms:
                    dest[e + shift] += c
    return nxt


# the last step of a census is never shared, so only the earlier ones are
# kept; a caller that takes its inputs in order of their low bits needs
# only the steps of the input before
_shared_list_step = functools.lru_cache(maxsize=256)(_list_step)


# --- closed forms ----------------------------------------------------------

def height_by_shared_factor(n: int) -> bool:
    """The root-height identity

        prod_{1<=i<j<=n} (1 - q^(j-i+1)) / (1 - q^(j-i)) = [n]_q!

    checked with no division, by comparing

        prod(1 - q^(j-i+1)) * (1 - q)^n  ==  [n]_q! * prod(1 - q^(j-i)) * (1 - q)^n

    as exact polynomials. A gap d = j - i occurs n - d times, so both sides
    share the factor C = (1 - q)^n * prod_{d=2}^{n-1} (1 - q^d)^(n-d),
    which is built once; then

        left  = C * prod_{d=2}^{n} (1 - q^d),
        right = C * [n]_q! * (1 - q)^(n-1),

    each completed factor by factor through the O(degree) steps of
    `qpoly` and compared in full.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    times = qpoly._times_one_minus_q_pow
    shared = [1]
    # smallest k first keeps the intermediate lists shortest
    for k in [1] * n + [d for d in range(2, n) for _ in range(n - d)]:
        shared = times(shared, k)
    lhs = shared
    for d in range(2, n + 1):
        lhs = times(lhs, d)
    rhs = shared
    for k in range(2, n + 1):
        rhs = qpoly._times_q_integer(rhs, k)
    for _ in range(n - 1):
        rhs = times(rhs, 1)
    return QPolynomial(lhs) == QPolynomial(rhs)


def closed_form_doubly_cleared(k: SimpleSubset, i_set: SimpleSubset) -> bool:
    """The closed form of the K-addend of the subvariety indexed by I,

        sum_{w in W^K} q^(ell(w)+|K|+s) = (q/(1+q^2))^k ((1+q^2)/(1+q))^l [n]_q!

    with |K| = k and |I| = l, cleared of both denominators to

        addend * (1+q^2)^k * (1+q)^l == q^k * (1+q^2)^l * prod_i [i]_q

    and compared in dense products. The addend is `cells.per_orbit_sum`.
    """
    one_plus_q, one_plus_q2 = QPolynomial([1, 1]), QPolynomial([1, 0, 1])
    left = cells.per_orbit_sum(k, i_set) * one_plus_q2 ** len(k) * one_plus_q ** len(i_set)
    right = monomial(len(k)) * one_plus_q2 ** len(i_set)
    for i in range(1, k.n + 1):
        right = right * q_integer(i)
    return left == right


# --- rational rank and null space ------------------------------------------

def rational_rank(rows: Sequence[Sequence[object]], column_order: Optional[Sequence[int]] = None) -> int:
    """Rank over the rationals by dense Gaussian elimination on Fractions,
    visiting columns in the given order."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    order = list(column_order) if column_order is not None else list(range(ncols))
    rank = 0
    for col in order:
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] * inv
                for c in range(ncols):
                    work[r][c] -= factor * work[rank][c]
        rank += 1
    return rank


def rational_nullspace(rows: Sequence[Sequence[object]], ncols: int) -> list[tuple]:
    """Canonical basis of the solution space of the homogeneous system, one
    vector per free column of the reduced row echelon form, each scaled so
    its first non-zero coordinate is positive. Dense Gauss-Jordan over
    Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -work[r][f]
        if next(x for x in vec if x != 0) < 0:
            vec = [-x for x in vec]
        basis.append(tuple(vec))
    return basis


# --- fixed flags -----------------------------------------------------------

class PrimeTooSmallError(ValueError):
    """Raised when the finite-field flag oracle is given p <= n, where
    unipotent-fixedness and e-stability can diverge."""


def fixed_flag(k: SimpleSubset) -> list[int]:
    """Dimensions of the unique flag fixed by the regular unipotent, of
    type K^c: the space of dimension d is the span of the first d standard
    basis vectors. Each space's e-stability is verified before returning."""
    require_special(k)
    dims = list(k.complement()) + [k.n]
    e = regular_nilpotent(k.n)
    for d in dims:
        # e shifts coordinates up, so the image of the first d coordinates
        # must land in the first max(d - 1, 0) of them
        for j in range(d):
            column = [e[i][j] for i in range(k.n)]
            for i, x in enumerate(column):
                if x != 0 and i >= d:
                    raise RuntimeError(f"span of first {d} coordinates is not stable")
    return dims


def block_sizes(n: int, members: tuple[int, ...]) -> tuple[int, ...]:
    """Sizes of the successive quotients of the fixed flag of type K^c:
    the gaps of {0} + K^c + {n}. Defined for arbitrary K inside [n-1].

    >>> block_sizes(7, (1, 2, 5))
    (3, 1, 2, 1)
    """
    inside = set(members)
    dims = [i for i in range(1, n) if i not in inside] + [n]
    sizes = []
    prev = 0
    for d in dims:
        sizes.append(d - prev)
        prev = d
    return tuple(sizes)


def _all_rref(n: int, d: int, p: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every d-dimensional subspace of F_p^n, as its unique reduced row
    echelon basis matrix."""
    spaces = []
    for pivots in itertools.combinations(range(n), d):
        free_positions = [
            (r, c)
            for r in range(d)
            for c in range(pivots[r] + 1, n)
            if c not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(d)]
            for r in range(d):
                rows[r][pivots[r]] = 1
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = v
            spaces.append(tuple(tuple(row) for row in rows))
    return spaces


def _reduce_mod(vec: list[int], rref: tuple[tuple[int, ...], ...], p: int) -> list[int]:
    out = list(vec)
    for row in rref:
        pivot = next(c for c, x in enumerate(row) if x)
        if out[pivot]:
            f = out[pivot]
            for c in range(len(out)):
                out[c] = (out[c] - f * row[c]) % p
    return out


def _in_span(vec: Sequence[int], rref: tuple[tuple[int, ...], ...], p: int) -> bool:
    return not any(_reduce_mod(list(vec), rref, p))


def _is_stable(rref: tuple[tuple[int, ...], ...], p: int) -> bool:
    for row in rref:
        shifted = list(row[1:]) + [0]
        if not _in_span(shifted, rref, p):
            return False
    return True


def fixed_flag_uniqueness_oracle(n: int, k: SimpleSubset, p: int) -> int:
    """Count, by brute force over F_p, the flags of type K^c whose spaces
    are all stable under the regular nilpotent reduced mod p.

    The expected count is 1. Requires p > n (p prime) so that exp(e) makes
    sense mod p and e-stability matches unipotent-fixedness; small n only,
    since the subspace enumeration is exponential.
    """
    if n > 4:
        raise ValueError("the brute-force oracle is limited to n <= 4")
    require_special(k)
    if k.n != n:
        raise ValueError(f"rank mismatch: {n} vs {k.n}")
    if p <= n:
        raise PrimeTooSmallError(f"need a prime p > {n}, got {p}")
    if any(p % d == 0 for d in range(2, p)):
        raise ValueError(f"{p} is not prime")

    dims = list(k.complement())
    stable_by_level = [
        [s for s in _all_rref(n, d, p) if _is_stable(s, p)] for d in dims
    ]

    def count_chains(level: int, prev) -> int:
        if level == len(dims):
            return 1
        total = 0
        for space in stable_by_level[level]:
            if prev is None or all(_in_span(row, space, p) for row in prev):
                total += count_chains(level + 1, space)
        return total

    return count_chains(0, None)
