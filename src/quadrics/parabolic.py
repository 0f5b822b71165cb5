"""Special subsets of [n-1], the parabolic subgroups W_K of S_n they
generate, and minimal coset representatives for W / W_K.

A subset of [n-1] is special when it contains no two consecutive integers.
For special K the longest element w_{0,K} of W_K is simply the product of
the pairwise disjoint adjacent transpositions (i, i+1), i in K, and the
minimal coset representatives are the permutations with no descent inside
K. Only the special case is supported; the guard is enforced here, at the
API boundary, for every consumer of W_K machinery.
"""

from __future__ import annotations

import itertools
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
        for a, b in zip(members, members[1:]):
            if a == b:
                raise ValueError(f"duplicate member {a}")
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


def _lex_subsets(items: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    yield ()
    for idx, x in enumerate(items):
        for rest in _lex_subsets(items[idx + 1 :]):
            yield (x,) + rest


def _special_members(start: int, n: int) -> Iterator[tuple[int, ...]]:
    yield ()
    for i in range(start, n):
        for rest in _special_members(i + 2, n):
            yield (i,) + rest


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
    if not k.is_special():
        raise NotSpecialError(f"{k} contains consecutive members")
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


def _minimal_coset_rep_images(n: int, members: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    positions = tuple(i - 1 for i in members)
    for images in itertools.permutations(range(1, n + 1)):
        if all(images[p] < images[p + 1] for p in positions):
            yield images


def minimal_coset_reps(k: SimpleSubset) -> list[Permutation]:
    """The set W^K = {w : w(i) < w(i+1) for all i in K} in lexicographic
    one-line order; there are n!/2^|K| of them for special K."""
    if not k.is_special():
        raise NotSpecialError(f"{k} contains consecutive members")
    return [Permutation(images) for images in _minimal_coset_rep_images(k.n, k.members)]


@lru_cache(maxsize=None)
def minimal_coset_rep_count(k: SimpleSubset) -> int:
    """|W^K|, counted from the filtered enumeration rather than the
    n!/2^|K| formula, so it stays an independent cross-check of the
    latter. Only the count is kept, one int per K."""
    if not k.is_special():
        raise NotSpecialError(f"{k} contains consecutive members")
    return sum(1 for _ in _minimal_coset_rep_images(k.n, k.members))


def parabolic_subgroup(k: SimpleSubset) -> list[Permutation]:
    """All 2^|K| elements of W_K for special K: products of subsets of the
    commuting generators (i, i+1), i in K."""
    if not k.is_special():
        raise NotSpecialError(f"{k} contains consecutive members")
    out = []
    for members in _lex_subsets(k.members):
        images = list(range(1, k.n + 1))
        for i in members:
            images[i - 1], images[i] = images[i], images[i - 1]
        out.append(Permutation(images))
    return out


__all__ = [
    "NotSpecialError",
    "SimpleSubset",
    "enumerate_special",
    "special_count",
    "longest_element",
    "is_minimal_rep",
    "minimal_coset_reps",
    "parabolic_subgroup",
]
