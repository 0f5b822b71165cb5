"""Special subsets of [n-1], the longest element w_{0,K} of the parabolic
subgroup W_K of S_n they generate, and the minimal coset representatives
W^K for W / W_K.

A subset of [n-1] is special when it contains no two consecutive integers.
For special K the longest element w_{0,K} of W_K is simply the product of
the pairwise disjoint adjacent transpositions (i, i+1), i in K, and the
minimal coset representatives are the permutations with no descent inside
K. Only the special case is supported; the guard is enforced here, at the
API boundary, for every consumer of W_K machinery. W_K itself is never
listed by the package; the tests build it from its generators to check
W^K by the unique factorization w = u x with u in W^K and x in W_K.

W^K is generated directly, never by filtering S_n: a depth-first search
fills the one-line images left to right in increasing order of value,
placing a value at position p+1 only above w(p) when p is in K. The
search carries ell(w) as the sum of the Lehmer-code digits, the index of
each chosen value among those still unplaced, and keeps at most
n(n+1)/2 partial permutations pending.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from quadrics.symmetric_group import Permutation


class NotSpecialError(ValueError):
    """Raised when an operation defined only for special subsets is given a
    subset with two consecutive members."""


class SimpleSubset:
    """A subset of [n-1], indexing boundary divisors and group orbits.

    >>> SimpleSubset(4, (1, 3)).is_special()
    True
    >>> SimpleSubset(4, (2, 3)).is_special()
    False
    """

    def __init__(self, n: int, members: Iterable[int] = ()):
        if n < 1:
            raise ValueError("ambient rank must be at least 1")
        members = tuple(sorted(members))
        # the members are walked only to name the first offending one
        if len(set(members)) != len(members):
            for a, b in zip(members, members[1:]):
                if a == b:
                    raise ValueError(f"duplicate member {a}")
        if members and not (1 <= members[0] and members[-1] <= n - 1):
            for m in members:
                if not 1 <= m <= n - 1:
                    raise ValueError(f"member {m} out of range [1, {n - 1}]")
        self.n = n
        self.members = members

    def is_special(self) -> bool:
        """True when no two members are consecutive integers."""
        return all(b - a >= 2 for a, b in zip(self.members, self.members[1:]))

    def complement(self) -> tuple[int, ...]:
        """[n-1] minus this subset, increasing."""
        inside = set(self.members)
        return tuple(i for i in range(1, self.n) if i not in inside)

    def issubset(self, other: SimpleSubset) -> bool:
        if other.n != self.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        return set(self.members) <= set(other.members)

    def difference(self, other: SimpleSubset) -> tuple[int, ...]:
        """Members of self not in other, increasing."""
        exclude = set(other.members)
        return tuple(i for i in self.members if i not in exclude)

    @property
    def mask(self) -> int:
        """Bitmask with bit i-1 set for each member i."""
        m = 0
        for i in self.members:
            m |= 1 << (i - 1)
        return m

    def subsets(self) -> Iterator[SimpleSubset]:
        """All subsets of this subset, in lexicographic member order."""
        for members in _lex_subsets(self.members):
            yield SimpleSubset(self.n, members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimpleSubset)
            and self.n == other.n
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __repr__(self) -> str:
        return f"SimpleSubset({self.n}, {self.members!r})"

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.members) + "}"


def _lex_chains(items: tuple[int, ...], gap: int) -> Iterator[tuple[int, ...]]:
    """Every subsequence of items whose chosen positions lie at least gap
    apart, the empty one first, in lexicographic order. The chosen
    positions are kept on an explicit stack, so no length overflows the
    interpreter's recursion limit."""
    yield ()
    stack: list[int] = []
    following = 0  # the smallest position that may be chosen next
    while True:
        if following < len(items):
            stack.append(following)
            yield tuple(map(items.__getitem__, stack))
            following += gap
        elif stack:
            following = stack.pop() + 1
        else:
            return


def _lex_subsets(items: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    return _lex_chains(items, 1)


def _special_members(start: int, n: int) -> Iterator[tuple[int, ...]]:
    """The special subsets of {start, ..., n-1}, in lexicographic order."""
    return _lex_chains(tuple(range(start, n)), 2)


def require_special(subset: SimpleSubset) -> None:
    """Refuse a subset with two consecutive members."""
    if not subset.is_special():
        raise NotSpecialError(f"{subset} contains consecutive members")


def enumerate_special(n: int) -> list[SimpleSubset]:
    """All special subsets of [n-1] in lexicographic member order.

    Counts follow the Fibonacci recurrence c(m) = c(m-1) + c(m-2) with
    c(0) = 1, c(1) = 2, where m = n - 1.

    >>> [str(s) for s in enumerate_special(4)]
    ['{}', '{1}', '{1,3}', '{2}', '{3}']
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    return [SimpleSubset(n, members) for members in _special_members(1, n)]


def special_count(n: int) -> int:
    """len(enumerate_special(n)) by the recurrence, without listing.

    >>> special_count(4)
    5
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    count, following = 1, 2  # c(m), c(m+1) at m = 0
    for _ in range(n - 1):
        count, following = following, count + following
    return count


def longest_element(k: SimpleSubset) -> Permutation:
    """w_{0,K}: the product of the disjoint adjacent transpositions (i, i+1)
    over i in K. Defined only for special K, where the factors commute."""
    require_special(k)
    images = list(range(1, k.n + 1))
    for i in k.members:
        images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(images)


def is_minimal_rep(k: SimpleSubset, w: Permutation) -> bool:
    """True when w is the shortest element of its coset w W_K, i.e. has no
    descent inside K."""
    if w.n != k.n:
        raise ValueError(f"rank mismatch: {k.n} vs {w.n}")
    return all(w.images[i - 1] < w.images[i] for i in k.members)


def minimal_coset_rep_images(k: SimpleSubset) -> Iterator[tuple[tuple[int, ...], int]]:
    """(w.images, ell(w)) for each w in W^K, in lexicographic one-line
    order, generated one at a time. K is checked before the first item.

    >>> list(minimal_coset_rep_images(SimpleSubset(3, (1,))))
    [((1, 2, 3), 0), ((1, 3, 2), 1), ((2, 3, 1), 2)]
    """
    require_special(k)
    return _coset_rep_search(k.n, k.members)


def _coset_rep_search(n: int, members: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], int]]:
    if n == 1:
        yield (1,), 0
        return
    # ascent[p]: position p is in K, so w(p+1) must exceed w(p)
    ascent = [False] * (n + 1)
    for i in members:
        ascent[i] = True
    # (prefix, unplaced values in increasing order, inversions so far);
    # children are pushed largest value first so the smallest pops first
    stack = [((), tuple(range(1, n + 1)), 0)]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, unplaced, length = pop()
        p = len(prefix)
        floor = prefix[-1] if ascent[p] else 0
        if len(unplaced) == 2:
            # the last two values are placed together, one stack entry per pair of leaves
            a, b = unplaced
            if a > floor:
                yield prefix + (a, b), length
            if b > floor and not ascent[p + 1]:
                yield prefix + (b, a), length + 1
            continue
        for idx in range(len(unplaced) - 1, -1, -1):
            value = unplaced[idx]
            if value > floor:
                push((prefix + (value,), unplaced[:idx] + unplaced[idx + 1 :], length + idx))


def minimal_coset_reps(k: SimpleSubset) -> list[Permutation]:
    """The set W^K = {w : w(i) < w(i+1) for all i in K} in lexicographic
    one-line order; there are n!/2^|K| of them for special K."""
    return [Permutation(images) for images, _ in minimal_coset_rep_images(k)]


@lru_cache(maxsize=None)
def minimal_coset_rep_count(k: SimpleSubset) -> int:
    """|W^K|, by a recursive count rather than the n!/2^|K| formula, so it
    stays an independent cross-check of the latter. Only counts are kept,
    one int per K and per reduced (n, K)."""
    require_special(k)
    return _coset_rep_count(k.n, k.members)


@lru_cache(maxsize=None)
def _coset_rep_count(n: int, members: tuple[int, ...]) -> int:
    """The number of permutations of [n] ascending at every position in
    members, counted by the position p of the entry n. p is not a member,
    since nothing exceeds n; deleting p satisfies the pair (p-1, p) and
    shifts the later pairs down by one."""
    if n == 1:
        return 1
    total = 0
    for p in range(1, n + 1):
        if p not in members:
            rest = tuple(i if i < p else i - 1 for i in members if i != p - 1)
            total += _coset_rep_count(n - 1, rest)
    return total


__all__ = [
    "NotSpecialError",
    "SimpleSubset",
    "enumerate_special",
    "special_count",
    "longest_element",
    "is_minimal_rep",
    "minimal_coset_rep_images",
    "minimal_coset_reps",
]
