"""Test oracles: brute-force and reference versions of what the package
computes, each independent of the shipped path it is compared against.
Nothing under src/ imports this file.

* enumerate_permutations (all of S_n, from itertools) checks the
  depth-first W^K search of `parabolic` and the classical identity
  sum_w q^ell(w) = [n]_q!; simple_reflection checks right descents as the
  length drops of w s_i.
* parabolic_subgroup (W_K from its commuting generators) checks
  `parabolic.minimal_coset_reps` by the unique length-additive
  factorization w = u x, u in W^K, x in W_K.
* s_value, plus_cell_dim and cell_dim_in_subvariety give cell dimensions
  one (K, w) at a time through the weight-vector `cells.r_set`; they check
  the census of `kernel` and the rows of `cells.fixed_point_rows`.
* rational_rank (Gaussian elimination over Fractions) checks the
  fraction-free `nilfix.row_echelon_rank`.
* fixed_flag and fixed_flag_uniqueness_oracle (a count of flags over F_p)
  check that the regular nilpotent fixes one flag of each type K^c, the
  flag whose blocks `nilfix.block_sizes` lists for the classifier.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from quadrics.cells import SubsetViolationError, r_set
from quadrics.nilfix import regular_nilpotent
from quadrics.parabolic import SimpleSubset, require_special
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


# --- rational rank ---------------------------------------------------------

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
            column = [e[(i, j)] for i in range(k.n)]
            for i, x in enumerate(column):
                if x != 0 and i >= d:
                    raise RuntimeError(f"span of first {d} coordinates is not stable")
    return dims


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
