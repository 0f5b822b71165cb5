"""Quadrics fixed by a one-dimensional unipotent group, over exact
rationals.

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

The matching semisimple element is diagonal_h(m) = diag(m-1, m-3, ...),
with [h, e] = 2e; only e enters any computation, h is kept for
orientation and a sanity test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from quadrics.parabolic import NotSpecialError, SimpleSubset


class NotSymmetricError(ValueError):
    """Raised when a quadric's matrix is not symmetric."""


class PrimeTooSmallError(ValueError):
    """Raised when the finite-field flag oracle is given p <= n, where
    unipotent-fixedness and e-stability can diverge."""


class RationalMatrix:
    """Dense matrix with exact Fraction entries."""

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Iterable[object]]):
        entries = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one row and column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        self.entries = entries

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> RationalMatrix:
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> RationalMatrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def transpose(self) -> RationalMatrix:
        return RationalMatrix(zip(*self.entries))

    def __add__(self, other: RationalMatrix) -> RationalMatrix:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("size mismatch")
        return RationalMatrix(
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        )

    def __sub__(self, other: RationalMatrix) -> RationalMatrix:
        return self + other.scale(-1)

    def __mul__(self, other: RationalMatrix) -> RationalMatrix:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("size mismatch")
        cols = other.transpose().entries
        return RationalMatrix(
            [sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in self.entries
        )

    def scale(self, c: object) -> RationalMatrix:
        c = Fraction(c)
        return RationalMatrix([c * x for x in row] for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.entries == self.transpose().entries

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)
        return f"RationalMatrix([{body}])"

    def __str__(self) -> str:
        cells = [[str(x) for x in row] for row in self.entries]
        width = max(len(s) for row in cells for s in row)
        return "\n".join("[" + " ".join(s.rjust(width) for s in row) + "]" for row in cells)


def regular_nilpotent(m: int) -> RationalMatrix:
    """The m-by-m single-Jordan-block nilpotent: ones on the superdiagonal."""
    if m < 1:
        raise ValueError("size must be at least 1")
    return RationalMatrix(
        [[1 if j == i + 1 else 0 for j in range(m)] for i in range(m)]
    )


def diagonal_h(m: int) -> RationalMatrix:
    """diag(m-1, m-3, ..., -(m-1)), the semisimple partner of
    regular_nilpotent(m) in an sl2-triple: [h, e] = 2e."""
    if m < 1:
        raise ValueError("size must be at least 1")
    return RationalMatrix(
        [[m - 1 - 2 * i if i == j else 0 for j in range(m)] for i in range(m)]
    )


def infinitesimal_fixed_condition(e: RationalMatrix, a: RationalMatrix) -> RationalMatrix:
    """e^T A + A e, the derivative at the identity of the quadric action
    along exp(te). A is infinitesimally fixed exactly when this vanishes."""
    if e.rows != e.cols or a.rows != a.cols or e.rows != a.rows:
        raise ValueError("size mismatch")
    if not a.is_symmetric():
        raise NotSymmetricError("quadrics are given by symmetric matrices")
    return e.transpose() * a + a * e


# --- exact elimination helpers -------------------------------------------

def row_echelon_rank(rows: Sequence[Sequence[object]], column_order: Optional[Sequence[int]] = None) -> int:
    """Rank over the rationals by Gaussian elimination, visiting columns in
    the given order (tests use a reversed order as an independent route)."""
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


def nullspace_basis(rows: Sequence[Sequence[object]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the solution space of the homogeneous system, one
    vector per free column of the reduced row echelon form, each scaled so
    its first non-zero coordinate is positive."""
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
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -work[r][f]
        lead = next((x for x in vec if x != 0), Fraction(1))
        if lead < 0:
            vec = [-x for x in vec]
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
    basis: tuple[RationalMatrix, ...]
    has_nondegenerate: bool

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _sym_pairs(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i, m)]


def fixed_system_rows(m: int) -> list[list[int]]:
    """Rows of the linear system e^T A + A e = 0 in the upper-triangle
    coordinates of a symmetric m-by-m matrix A.

    (e^T A + A e)[i][j] = A[i-1][j] + A[i][j-1] with out-of-range entries
    zero; the result is symmetric, so only the equations with i <= j are
    emitted.
    """
    pairs = _sym_pairs(m)
    index = {pair: t for t, pair in enumerate(pairs)}
    rows = []
    for (i, j) in pairs:
        coeff = [0] * len(pairs)
        for (a, b) in ((i - 1, j), (i, j - 1)):
            if a >= 0 and b >= 0:
                key = (a, b) if a <= b else (b, a)
                coeff[index[key]] += 1
        if any(coeff):
            rows.append(coeff)
    return rows


def _vector_to_symmetric(m: int, vec: Sequence[Fraction]) -> RationalMatrix:
    entries = [[Fraction(0)] * m for _ in range(m)]
    for (i, j), value in zip(_sym_pairs(m), vec):
        entries[i][j] = value
        entries[j][i] = value
    return RationalMatrix(entries)


# Kept here because the grid-sweep test oracle evaluates determinants with
# it and the benchmark tracer patches this name to count them.
def _int_det(a: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a small integer matrix;
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
    if any(mat[i, j] for mat in basis for i in range(m) for j in range(m - 1 - i)):
        raise RuntimeError(f"a fixed quadric of size {m} is non-zero above the anti-diagonal")
    has_nondeg = all(any(mat[k, m - 1 - k] for mat in basis) for k in range(m))
    return FixedQuadricSpace(m, basis, has_nondeg)


# --- fixed flags -----------------------------------------------------------

def fixed_flag(k: SimpleSubset) -> list[int]:
    """Dimensions of the unique flag fixed by the regular unipotent, of
    type K^c: the space of dimension d is the span of the first d standard
    basis vectors. Each space's e-stability is verified before returning."""
    if not k.is_special():
        raise NotSpecialError(f"{k} contains consecutive members")
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
    if not k.is_special():
        raise NotSpecialError(f"{k} contains consecutive members")
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


# --- regularity classifier ---------------------------------------------------

def block_sizes(n: int, members: tuple[int, ...]) -> tuple[int, ...]:
    """Sizes of the successive quotients of the fixed flag of type K^c:
    the gaps of {0} + K^c + {n}. Defined for arbitrary K inside [n-1]."""
    inside = set(members)
    dims = [i for i in range(1, n) if i not in inside] + [n]
    sizes = []
    prev = 0
    for d in dims:
        sizes.append(d - prev)
        prev = d
    return tuple(sizes)


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


def _first_witness_members(
    n: int, members: tuple[int, ...], block_ok: Callable[[int], bool]
) -> Optional[tuple[int, ...]]:
    """The lexicographically first non-empty K inside members (sorted)
    whose fixed flag of type K^c has only blocks of sizes m with
    block_ok(m), or None when no such K exists.

    A run of r consecutive members of K makes one block of size r + 1; the
    other n - |K| - runs blocks have size 1. A depth-first search walks
    the members in order with the choices stop (K is what was taken),
    take the next member, skip it, which visits the K in lexicographic
    order. Its state is (next member, open run length, |K|, closed runs);
    a state whose whole subtree fails is remembered in a set local to the
    call, so each state is expanded at most once. The stack is explicit,
    so the depth does not grow with the number of members.
    """
    end = len(members)
    dead: set[tuple[int, int, int, int]] = set()
    chosen: list[int] = []
    # frames [state, next choice: 0 stop, 1 take, 2 skip, 3 done, taken?].
    # Only a take child tries stop, so its run is open: the root's K is
    # empty, and a skip child's stop is the K its parent tried.
    stack = [[(0, 0, 0, 0), 1, False]]
    while stack:
        frame = stack[-1]
        state, choice, taken = frame
        at, run, size, runs = state
        frame[1] += 1
        if choice == 0:
            if block_ok(run + 1) and (size + runs + 1 == n or block_ok(1)):
                return tuple(chosen)
            continue
        if choice == 3 or at == end:
            dead.add(state)
            stack.pop()
            if taken:
                chosen.pop()
            continue
        extends = run > 0 and members[at] == members[at - 1] + 1
        if run and not (choice == 1 and extends) and not block_ok(run + 1):
            continue
        closed = runs + (run > 0)
        if choice == 1:
            child = (at + 1, run + 1, size + 1, runs) if extends else (at + 1, 1, size + 1, closed)
        else:
            child = (at + 1, 0, size, closed)
        if child not in dead:
            stack.append([child, 0 if choice == 1 else 1, choice == 1])
            if choice == 1:
                chosen.append(members[at])
    return None


def regularity_classifier(i_set: SimpleSubset) -> RegularityResult:
    """Decide by exact linear algebra whether the stratum indexed by I has
    a single unipotent fixed point.

    The fixed locus splits over the orbits K contained in I. Over the
    unique fixed flag of type K^c, a fixed point of the K-orbit is a choice
    of unipotent-fixed nondegenerate quadric on every block of the flag, so
    the K-orbit contributes exactly when every block size m has
    fixed_quadric_space(m).has_nondegenerate. K = empty contributes the
    single base point (all blocks of size 1); any other contributing K is a
    witness against regularity, and the witness reported is the first in
    the order of I.subsets(), found by a search over the members of I
    rather than by listing its subsets. I is deliberately not assumed
    special: agreement of this classifier with the no-consecutive-members
    test is a theorem, re-proved here computationally.
    """
    n = i_set.n

    def block_ok(m: int) -> bool:
        return fixed_quadric_space(m).has_nondegenerate

    found = _first_witness_members(n, i_set.members, block_ok)
    if found is None:
        return RegularityResult(True, None)
    k = SimpleSubset(n, found)
    sizes = block_sizes(n, found)
    start = 1
    chosen: Optional[tuple[int, int]] = None
    for m in sizes:
        if fixed_quadric_space(m).dimension >= 2:
            chosen = (start, m)
            break
        start += m
    if chosen is None:
        start = 1
        for m in sizes:
            if m >= 2:
                chosen = (start, m)
                break
            start += m
    assert chosen is not None
    block_start, block_size = chosen
    return RegularityResult(
        False,
        RegularityWitness(k, block_start, block_size, fixed_quadric_space(block_size)),
    )
