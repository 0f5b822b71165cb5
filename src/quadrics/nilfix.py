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

The classifier reads each block of the flag of type K^c fixed by e off
block_sizes; that this flag is unique is checked by the tests, which
count the e-stable flags over F_p. The fixed-quadric system is kept in
one format, sparse integer rows {column: coefficient}: the anti-diagonal
solve splits them by anti-diagonal, and the rank reduces them
fraction-free; the tests widen them into dense rows for a solve and a
rank over the rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from quadrics.parabolic import SimpleSubset


class NotSymmetricError(ValueError):
    """Raised when a quadric's matrix is not symmetric."""


def _plain(x: Fraction):
    """x as an int when it is integral, else x itself."""
    return x.numerator if x.denominator == 1 else x


class RationalMatrix:
    """Dense matrix with exact Fraction entries."""

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Iterable[object]]):
        # a Fraction is immutable, so one given is kept as it is
        entries = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
        )
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
        # a zero summand is skipped, not added
        return RationalMatrix(
            [(a + b if a else b) if b else a for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        )

    def __mul__(self, other: RationalMatrix) -> RationalMatrix:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("size mismatch")
        # only the non-zero entries of either factor are multiplied, and
        # integral ones as ints
        right = [
            [(c, _plain(b)) for c, b in enumerate(row) if b] for row in other.entries
        ]
        product = []
        for row in self.entries:
            acc = [0] * other.cols
            for k, a in enumerate(row):
                if a:
                    a = _plain(a)
                    for c, b in right[k]:
                        acc[c] += a * b
            product.append(acc)
        return RationalMatrix(product)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.entries == tuple(zip(*self.entries))

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


def infinitesimal_fixed_condition(e: RationalMatrix, a: RationalMatrix) -> RationalMatrix:
    """e^T A + A e, the derivative at the identity of the quadric action
    along exp(te). A is infinitesimally fixed exactly when this vanishes."""
    if e.rows != e.cols or a.rows != a.cols or e.rows != a.rows:
        raise ValueError("size mismatch")
    if not a.is_symmetric():
        raise NotSymmetricError("quadrics are given by symmetric matrices")
    return e.transpose() * a + a * e


# --- exact elimination helpers -------------------------------------------

def row_echelon_rank(rows: Sequence[dict[int, int]], column_order: Optional[Sequence[int]] = None) -> int:
    """Rank of an integer matrix given as sparse rows {column: coefficient},
    by fraction-free forward elimination with leading columns taken in the
    given order, ascending when none is given (the fixed-quadrics check
    also runs the reversed order, as an independent route).

    Each row is reduced against the pivot rows found so far, leading column
    first: with p the pivot row's entry and a the row's, the row becomes
    p * row - a * pivot row, divided by the gcd of its entries. A row that
    vanishes adds nothing; one that leads in a column with no pivot row
    becomes that column's pivot row. The rank is the number of pivot rows.
    """
    if not all(set(map(type, row.values())) <= {int} for row in rows):
        raise TypeError("row_echelon_rank takes rows of ints")
    key = None if column_order is None else {c: k for k, c in enumerate(column_order)}.__getitem__
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        while row:
            lead = min(row, key=key)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            p, a = pivot[lead], row[lead]
            row = {c: p * row.get(c, 0) - a * pivot.get(c, 0) for c in row.keys() | pivot.keys()}
            g = math.gcd(*row.values())
            row = {c: x // g for c, x in row.items() if x}
    return len(pivots)


def nullspace_basis(rows: Sequence[Sequence[object]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the solution space of the homogeneous system, one
    vector per free column of the reduced row echelon form, each scaled so
    its first non-zero coordinate is positive. Dense Gauss-Jordan over
    Fractions; the test oracle of anti_diagonal_basis."""
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


def anti_diagonal_basis(m: int) -> list[tuple[Fraction, ...]]:
    """The basis nullspace_basis returns on fixed_system_rows(m) widened to
    dense rows of m(m+1)/2 columns, the same vectors in the same order with
    the same signs, solved one anti-diagonal at a time in O(m^2) instead of
    by dense elimination.

    Each equation involves one anti-diagonal s = i + j only, so the system
    splits into one small system per s, on at most ceil(m/2) unknowns. Its
    equations are links c x + c' x' = 0 between neighbouring unknowns (in
    column order) and pins c x = 0 on one unknown. A chain of k unknowns
    has k - 1 links, which make every unknown a fixed non-zero multiple of
    the last. So the reduced row echelon form pivots on the first k - 1
    columns, and the last column is free: the dense solve's vector sets it
    to 1, then flips the sign so the first coordinate is positive. A pin
    forces the whole chain to zero. (The row-0 equation A[0][s] = 0 pins
    each s < m - 1, and the diagonal equation 2 A[(s-1)/2][(s+1)/2] = 0
    each odd s; each even s >= m - 1 gives one vector of alternating signs.)
    The last column of s, A[s//2][s - s//2], comes later in column order as
    s grows, so the vectors come out ordered by free column, as the dense
    solve lists them.
    """
    pairs = _sym_pairs(m)
    chains: list[list[int]] = [[] for _ in range(2 * m - 1)]
    for t, (i, j) in enumerate(pairs):
        chains[i + j].append(t)
    equations: list[list[dict[int, int]]] = [[] for _ in chains]
    for terms in fixed_system_rows(m):
        i, j = pairs[next(iter(terms))]
        equations[i + j].append(terms)
    zero = Fraction(0)
    basis = []
    for chain, eqs in zip(chains, equations):
        values = _chain_null_vector(chain, eqs)
        if values is not None:
            vec = [zero] * len(pairs)
            for t, x in zip(chain, values):
                vec[t] = x
            basis.append(tuple(vec))
    return basis


def _chain_null_vector(chain: list[int], equations: list[dict[int, int]]) -> Optional[list[Fraction]]:
    """The values on the columns of chain (ascending) of the one solution of
    its equations with last value 1, sign-flipped to a positive first
    value; None when a pin forces the chain to zero."""
    position = {t: r for r, t in enumerate(chain)}
    links: dict[int, tuple[int, int]] = {}
    pinned = False
    for terms in equations:
        if len(terms) == 1:
            pinned = True
            continue
        (t0, c0), (t1, c1) = sorted(terms.items())
        r = position.get(t1)
        if r is None or position.get(t0) != r - 1 or r in links:
            raise RuntimeError("the equations of an anti-diagonal are not a chain")
        links[r] = (c0, c1)
    if len(links) != len(chain) - 1:
        raise RuntimeError("the equations of an anti-diagonal are not a chain")
    if pinned:
        return None
    values = [Fraction(1)]
    for r in range(len(chain) - 1, 0, -1):
        c0, c1 = links[r]
        values.append(-c1 * values[-1] / c0)
    values.reverse()
    if values[0] < 0:
        values = [-x for x in values]
    return values


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
    vectors = anti_diagonal_basis(m)
    basis = tuple(_vector_to_symmetric(m, vec) for vec in vectors)
    if any(mat[i, j] for mat in basis for i in range(m) for j in range(m - 1 - i)):
        raise RuntimeError(f"a fixed quadric of size {m} is non-zero above the anti-diagonal")
    has_nondeg = all(any(mat[k, m - 1 - k] for mat in basis) for k in range(m))
    return FixedQuadricSpace(m, basis, has_nondeg)


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

    A run of r consecutive members of K makes one block of size r + 1, and
    every other position of [n] is a block of size 1.

    When block_ok(1) holds, the first run of a passing K passes on its own
    and is a prefix of K, so the first K is one run: the earliest stretch
    of consecutive members that reaches a passing size, cut at the shortest
    passing size. A size is tested when a stretch first reaches it.

    Otherwise the blocks tile [n] with sizes at least 2, so K is [n-1]
    minus the cuts between blocks. The block after a cut holds a later
    member of K, so a K that includes a member sorts before one that cuts
    it, and the first K makes each block as long as the rest of [n] can
    still be tiled. longest[a] is that length for a block starting at a,
    0 when none fits; it is filled in from the right, then walked.
    """
    if block_ok(1):
        tested = run = prev = 0
        for i in members:
            run = run + 1 if i == prev + 1 else 1
            prev = i
            if run > tested:
                tested = run
                if block_ok(run + 1):
                    return tuple(range(i - run + 1, i + 1))
        return None
    inside = set(members)
    passes = [False, False]
    longest = [0] * (n + 1)
    reach = 0
    for a in range(n, 0, -1):
        # reach: how many of a, a + 1, ... are members in a row, so a block
        # starting at a spans at most reach + 1 positions
        reach = reach + 1 if a in inside else 0
        while len(passes) <= reach + 1:
            passes.append(block_ok(len(passes)))
        longest[a] = next(
            (m for m in range(reach + 1, 1, -1) if passes[m] and (a + m > n or longest[a + m])), 0
        )
    if not longest[1]:
        return None
    found: list[int] = []
    a = 1
    while a <= n:
        found.extend(range(a, a + longest[a] - 1))
        a += longest[a]
    return tuple(found)


@lru_cache(maxsize=4096)
def _witness(n: int, found: tuple[int, ...]) -> RegularityWitness:
    """The witness for the orbit K = found of rank n: the first block of
    its fixed flag whose fixed quadrics form a family of dimension at
    least 2, else its first block of size at least 2. Many I share their
    first K, so the witness is assembled once per (n, K)."""
    start = 1
    fallback = None
    for m in block_sizes(n, found):
        if fixed_quadric_space(m).dimension >= 2:
            break
        if fallback is None and m >= 2:
            fallback = (start, m)
        start += m
    else:
        start, m = fallback
    return RegularityWitness(SimpleSubset(n, found), start, m, fixed_quadric_space(m))


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
    the order of I.subsets(), read off the runs of the members of I rather
    than by listing its subsets. I is deliberately not assumed
    special: agreement of this classifier with the no-consecutive-members
    test is a theorem, re-proved here computationally.
    """
    found = _first_witness_members(
        i_set.n, i_set.members, lambda m: fixed_quadric_space(m).has_nondegenerate
    )
    if found is None:
        return RegularityResult(True, None)
    return RegularityResult(False, _witness(i_set.n, found))
