"""Quadrics fixed by a one-dimensional unipotent group, in exact integers.

Everything is driven by the regular nilpotent e with ones on the
superdiagonal. Differentiating the change-of-variables action
g . A = (g^T)^(-1) A g^(-1) along exp(te) shows a symmetric matrix A is
infinitesimally fixed exactly when e^T A + A e = 0; this module solves
that linear system exactly, decides whether the solution family contains
a nondegenerate quadric (by an exact anti-triangular certificate; the grid
sweep is the test oracle), and assembles a regularity classifier for the
boundary strata of the variety of complete quadrics: the stratum indexed
by I is regular (one unipotent fixed point) exactly when I is special,
and the classifier rediscovers that by linear algebra alone.

The classifier reads the blocks of the flag of type K^c fixed by e off
the runs of K: a run of r members is one block of size r + 1, and every
other position is a block of size 1. That this flag is unique is checked
by the tests, which count the e-stable flags over F_p. The fixed-quadric
system is kept in one format, sparse integer rows {column: coefficient},
and one fraction-free forward elimination reduces them: its pivot rows
count the rank, in either column order, and, back-eliminated, give the
basis. The tests widen the rows into dense rows for a solve and a rank
over the rationals. Matrices are tuples of rows of ints, every basis
entry lies in {-1, 0, 1}, and nothing here leaves the integers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

from quadrics.parabolic import SimpleSubset


class NotSymmetricError(ValueError):
    """Raised when a quadric's matrix is not symmetric."""


Matrix = tuple[tuple[int, ...], ...]  # a matrix as its rows of ints


def regular_nilpotent(m: int) -> Matrix:
    """The m-by-m single-Jordan-block nilpotent: ones on the superdiagonal."""
    if m < 1:
        raise ValueError("size must be at least 1")
    return tuple(tuple(int(j == i + 1) for j in range(m)) for i in range(m))


def infinitesimal_fixed_condition(e: Sequence[Sequence[int]], a: Sequence[Sequence[int]]) -> Matrix:
    """e^T A + A e, the derivative at the identity of the quadric action
    along exp(te). A is infinitesimally fixed exactly when this vanishes.
    Only the non-zero entries of e are multiplied: each e[k][l] = x adds
    x * (row k of A) to row l and, A being symmetric, to column l."""
    m = len(a)
    if not m or len(e) != m or any(len(row) != m for row in (*e, *a)):
        raise ValueError("size mismatch")
    if list(zip(*a)) != list(map(tuple, a)):
        raise NotSymmetricError("quadrics are given by symmetric matrices")
    out = [[0] * m for _ in range(m)]
    for k, row in enumerate(e):
        for l, x in enumerate(row):
            if x:
                for j, y in enumerate(a[k]):
                    out[l][j] += x * y
                    out[j][l] += x * y
    return tuple(map(tuple, out))


# --- exact elimination helpers -------------------------------------------

def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int) -> dict[int, int]:
    """p * row - a * pivot, with p and a their entries in col, divided by
    the gcd of its entries; col drops out and zeros are left out."""
    p, a = pivot[col], row[col]
    row = {c: p * row.get(c, 0) - a * pivot.get(c, 0) for c in row.keys() | pivot.keys()}
    g = math.gcd(*row.values())
    return {c: x // g for c, x in row.items() if x}


def _pivot_rows(
    rows: Sequence[dict[int, int]], key: Optional[Callable[[int], int]] = None
) -> dict[int, dict[int, int]]:
    """The pivot rows of a fraction-free forward elimination, by leading
    column. Each row is reduced against the pivot rows found so far,
    leading column first (the least under key). A row that vanishes adds
    nothing; one that leads in a column with no pivot row becomes that
    column's pivot row."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        while row:
            lead = min(row, key=key)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row = _eliminate(row, pivot, lead)
    return pivots


def row_echelon_rank(rows: Sequence[dict[int, int]], column_order: Optional[Sequence[int]] = None) -> int:
    """Rank of an integer matrix given as sparse rows {column: coefficient}:
    the number of pivot rows of the fraction-free forward elimination, with
    leading columns taken in the given order, ascending when none is given
    (the fixed-quadrics check also runs the reversed order, as an
    independent route)."""
    if not all(set(map(type, row.values())) <= {int} for row in rows):
        raise TypeError("row_echelon_rank takes rows of ints")
    key = None if column_order is None else {c: k for k, c in enumerate(column_order)}.__getitem__
    return len(_pivot_rows(rows, key))


def nullspace_basis(rows: Sequence[dict[int, int]], ncols: int) -> list[tuple[int, ...]]:
    """Canonical basis of the solutions of the homogeneous integer system
    given as sparse rows {column: coefficient} on ncols columns: one vector
    per free column of the reduced row echelon form, in column order, with
    that column 1 and the other free columns 0, then negated if need be so
    its first non-zero coordinate is positive.

    The pivot rows of the forward elimination (ascending leading columns)
    are back-eliminated from the last lead down, so each keeps only its
    lead and free columns: p x_lead + sum r_f x_f = 0. Setting free column
    f to 1 gives x_lead = -r_f / p, an exact division; a remainder raises
    RuntimeError rather than being floored.
    """
    pivots = _pivot_rows(rows)
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for col in [c for c in row if c != lead and c in pivots]:
            row = _eliminate(row, pivots[col], col)
        pivots[lead] = row
    entries: dict[int, list[tuple[int, int]]] = {}
    for lead, row in pivots.items():
        for col, x in row.items():
            if col != lead:
                entries.setdefault(col, []).append((lead, x))
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        values = {free: 1}
        for lead, x in entries.get(free, ()):
            values[lead], remainder = divmod(-x, pivots[lead][lead])
            if remainder:
                raise RuntimeError("the null vector of a free column is not integral")
        sign = 1 if values[min(values)] > 0 else -1
        vec = [0] * ncols
        for col, x in values.items():
            vec[col] = sign * x
        basis.append(tuple(vec))
    return basis


# --- fixed quadric families ------------------------------------------------

class FixedQuadricSpace(NamedTuple):
    """Solution space of e^T A + A e = 0 over symmetric m-by-m matrices.

    has_nondegenerate records whether the family contains a matrix with
    non-zero determinant, decided by an exact anti-triangular certificate;
    the grid sweep is the test oracle.
    """

    block_size: int
    basis: tuple[Matrix, ...]
    has_nondegenerate: bool

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _sym_pairs(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i, m)]


def fixed_system_rows(m: int) -> list[dict[int, int]]:
    """The equations of e^T A + A e = 0 with i <= j, each as its non-zero
    terms {column: coefficient} in the upper-triangle coordinates of a
    symmetric m-by-m matrix A.

    (e^T A + A e)[i][j] = A[i-1][j] + A[i][j-1] with out-of-range entries
    zero; the result is symmetric, so only the equations with i <= j are
    kept. Both terms lie on the anti-diagonal i + j - 1; on the diagonal
    (i = j) they are one entry, with coefficient 2.
    """
    pairs = _sym_pairs(m)
    index = {pair: t for t, pair in enumerate(pairs)}
    rows = []
    for (i, j) in pairs:
        terms: dict[int, int] = {}
        for (a, b) in ((i - 1, j), (i, j - 1)):
            if a >= 0 and b >= 0:
                t = index[(a, b) if a <= b else (b, a)]
                terms[t] = terms.get(t, 0) + 1
        if terms:
            rows.append(terms)
    return rows


def _vector_to_symmetric(m: int, vec: Sequence[int]) -> Matrix:
    entries = [[0] * m for _ in range(m)]
    for (i, j), value in zip(_sym_pairs(m), vec):
        entries[i][j] = entries[j][i] = value
    return tuple(map(tuple, entries))


# Kept here because the grid-sweep test oracle evaluates determinants with
# it and the benchmark tracer patches this name to count them.
def _int_det(a: list[list[int]]) -> int:
    """Bareiss determinant of a small integer matrix, each division exact;
    mutates its argument."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


@lru_cache(maxsize=None)
def fixed_quadric_space(m: int) -> FixedQuadricSpace:
    """Solve e^T A + A e = 0 over symmetric m-by-m matrices exactly.

    Nondegeneracy of the family is read off an exact anti-triangular
    certificate; the grid sweep is the test oracle. Every solution
    vanishes above the anti-diagonal (i + j < m - 1): the row-0 equations
    A[0][j-1] = 0 zero A[0][0..m-2], and each equation
    A[i-1][j] + A[i][j-1] = 0 carries that zero down its anti-diagonal.
    This is checked on the basis. Then det(sum t_b B_b) is, up to sign,
    the product of the m anti-diagonal linear forms, which is non-zero
    exactly when no anti-diagonal entry vanishes on every basis matrix.
    """
    if m < 1:
        raise ValueError("size must be at least 1")
    vectors = nullspace_basis(fixed_system_rows(m), m * (m + 1) // 2)
    basis = tuple(_vector_to_symmetric(m, vec) for vec in vectors)
    if any(mat[i][j] for mat in basis for i in range(m) for j in range(m - 1 - i)):
        raise RuntimeError(f"a fixed quadric of size {m} is non-zero above the anti-diagonal")
    has_nondeg = all(any(mat[k][m - 1 - k] for mat in basis) for k in range(m))
    return FixedQuadricSpace(m, basis, has_nondeg)


# --- regularity classifier ---------------------------------------------------

class RegularityWitness(NamedTuple):
    """An orbit K and a block of its fixed flag carrying unipotent-fixed
    nondegenerate quadrics beyond the base point."""

    k: SimpleSubset
    block_start: int
    block_size: int
    family: FixedQuadricSpace


class RegularityResult(NamedTuple):
    regular: bool
    witness: Optional[RegularityWitness] = None


@lru_cache(maxsize=4096)
def _witness(n: int, start: int, size: int) -> RegularityWitness:
    """The witness K = {start, ..., start + size - 2} of rank n: one run,
    so its fixed flag has one block of size at least 2, of this size at
    this start. Many I share their first K, so the witness is assembled
    once per (n, start, size)."""
    return RegularityWitness(
        SimpleSubset(n, range(start, start + size - 1)), start, size, fixed_quadric_space(size)
    )


def regularity_classifier(i_set: SimpleSubset) -> RegularityResult:
    """Decide by exact linear algebra whether the stratum indexed by I has
    a single unipotent fixed point.

    The fixed locus splits over the orbits K contained in I. Over the
    unique fixed flag of type K^c, a fixed point of the K-orbit is a choice
    of unipotent-fixed nondegenerate quadric on every block of the flag, so
    the K-orbit contributes exactly when every block size m has
    fixed_quadric_space(m).has_nondegenerate. A run of r consecutive
    members of K makes one block of size r + 1, and every other position of
    [n] is a block of size 1. A block of size 1 carries a nondegenerate
    fixed quadric (RuntimeError if the solve says otherwise), so K = empty
    contributes the single base point, and any other contributing K is a
    witness against regularity. The first run of a contributing K
    contributes on its own and sorts no later than K, so the first witness
    in the order of I.subsets() is one run: the earliest stretch of
    consecutive members of I that reaches a passing block size, cut at the
    shortest passing size. One loop over the members finds it, testing
    each size once, when a stretch first reaches it. I is deliberately not
    assumed special: agreement of this classifier with the
    no-consecutive-members test is a theorem, re-proved here
    computationally.
    """
    if not fixed_quadric_space(1).has_nondegenerate:
        raise RuntimeError("a block of size 1 carries no nondegenerate fixed quadric")
    tested = run = prev = 0
    for i in i_set.members:
        run = run + 1 if i == prev + 1 else 1
        prev = i
        if run > tested:
            tested = run
            if fixed_quadric_space(run + 1).has_nondegenerate:
                return RegularityResult(False, _witness(i_set.n, i - run + 1, run + 1))
    return RegularityResult(True, None)
