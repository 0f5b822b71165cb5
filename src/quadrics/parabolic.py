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

Subsets are listed by one lexicographic walk, `_lex_chains`, which yields
each member tuple with its label, the members joined by a separator
(comma by default), and whether it is special. Each tuple and label extend
their parent's by one concatenation, and each specialness is read off the
parent's and the one member added, so no listing re-joins or re-scans a
whole subset: `verify` and `special` write the labels as they come, and
the walk's members become SimpleSubsets through `SimpleSubset._trusted`,
which skips the checks the walk already guarantees (increasing, in range)
and takes the walk's specialness as given.

W^K is generated directly, never by filtering S_n: a depth-first search
fills the one-line images left to right in increasing order of value,
placing a value at position p+1 only above w(p) when p is in K. The
search carries ell(w) as the sum of the Lehmer-code digits, the index of
each chosen value among those still unplaced, and, given pairs (i, p),
the hits: the i with images[i] < images[p], each decided as index i is
placed. Each leaf places the last three values at once, in the orders
of three that K allows, which are settled once per search with their
inversions and the hits they decide among themselves. Given a separator,
the search carries the images as text, joined by it, one concatenation
per placed value, and yields that in place of the tuple: `cells` builds
its listing rows from it, and with the pairs (i, i-1) the hits are the
right descents the descent check reads. It keeps at most n(n+1)/2
partial permutations pending.
"""

from __future__ import annotations

from itertools import accumulate, permutations
from operator import sub
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
            raise ValueError("rank must be at least 1")
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
        # settled once, as r_set asks per coset rep; members increase, so a gap of 1 is a consecutive pair
        self._special = 1 not in map(sub, members[1:], members)

    def is_special(self) -> bool:
        """True when no two members are consecutive integers."""
        return self._special

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

    @classmethod
    def _trusted(cls, n: int, members: tuple[int, ...], special: bool) -> SimpleSubset:
        """A subset of members known to increase and lie in [1, n-1], with
        their specialness, all taken as given."""
        subset = object.__new__(cls)
        subset.n = n
        subset.members = members
        subset._special = special
        return subset

    def subsets(self) -> Iterator[SimpleSubset]:
        """All subsets of this subset, in lexicographic member order."""
        n, trusted = self.n, SimpleSubset._trusted
        for members, _, special in _lex_subsets(self.members):
            yield trusted(n, members, special)

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
        return subset_str(self.members)


def subset_str(members: Iterable[int]) -> str:
    """The members as a set, e.g. {1,3}: the label of a subset in every
    report."""
    return "{" + ",".join(map(str, members)) + "}"


def _lex_chains(items: tuple[int, ...], gap: int, separator: str = ",") -> Iterator[tuple[tuple[int, ...], str, bool]]:
    """(chain, label, special) for every subsequence of items whose chosen
    positions lie at least gap apart, the empty one first, in
    lexicographic order; the label is the chain's members joined by
    separator, and special says no two members are consecutive integers.
    Each chain and label extend their parent's by one concatenation, and a
    chain is special when its parent is and the member added is not one
    more than the parent's last. The parents are kept on an explicit
    stack, so no length overflows the interpreter's recursion limit."""
    heads = list(map(str, items))
    tails = [separator + head for head in heads]
    chain: tuple[int, ...] = ()
    label = ""
    special = True
    yield chain, label, special
    # (position chosen, the parent's chain, its label, its specialness)
    stack: list[tuple[int, tuple[int, ...], str, bool]] = []
    following = 0  # the smallest position that may be chosen next
    size = len(items)
    while True:
        if following < size:
            stack.append((following, chain, label, special))
            item = items[following]
            if chain:
                special = special and chain[-1] + 1 != item
                label += tails[following]
            else:
                label = heads[following]
            chain += (item,)
            yield chain, label, special
            following += gap
        elif stack:
            following, chain, label, special = stack.pop()
            following += 1
        else:
            return


def _lex_subsets(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], str, bool]]:
    """(subset, label, special) for every subset of items, in lexicographic
    order."""
    return _lex_chains(items, 1)


def _special_members(n: int, separator: str = ",") -> Iterator[tuple[tuple[int, ...], str, bool]]:
    """(members, label, True) for the special subsets of [n-1], in
    lexicographic order."""
    return _lex_chains(tuple(range(1, n)), 2, separator)


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
    return [SimpleSubset._trusted(n, members, True) for members, _, _ in _special_members(n)]


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
    images = w.images
    if len(images) != k.n:
        raise ValueError(f"rank mismatch: {k.n} vs {len(images)}")
    for i in k.members:  # a plain loop: r_set asks once per coset rep
        if images[i - 1] > images[i]:
            return False
    return True


# One item of the W^K search: (w.images, or their text given a separator,
# ell(w), hits).
CosetRep = tuple[tuple[int, ...] | str, int, tuple[int, ...]]


def minimal_coset_rep_images(
    k: SimpleSubset, references: Iterable[tuple[int, int]] = (), separator: str | None = None
) -> Iterator[CosetRep]:
    """(w.images, ell(w), hits) for each w in W^K, in lexicographic one-line
    order, generated one at a time. references holds (i, p) pairs with
    p < i, each i at most once, in the form `kernel.r_references` returns;
    hits holds the i, ascending, with images[i] < images[p]. Given a
    separator, each item carries the images joined by it in place of the
    tuple. K is checked before the first item.

    >>> list(minimal_coset_rep_images(SimpleSubset(3, (1,)), [(2, 0)]))
    [((1, 2, 3), 0, ()), ((1, 3, 2), 1, ()), ((2, 3, 1), 2, (2,))]
    >>> [text for text, _, _ in minimal_coset_rep_images(SimpleSubset(3, (1,)), separator="-")]
    ['1-2-3', '1-3-2', '2-3-1']
    """
    require_special(k)
    return _coset_rep_search(k.n, k.members, references, separator)


def _coset_rep_search(
    n: int, members: tuple[int, ...], references: Iterable[tuple[int, int]], separator: str | None
) -> Iterator[CosetRep]:
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


def minimal_coset_reps(k: SimpleSubset) -> Iterator[Permutation]:
    """The set W^K = {w : w(i) < w(i+1) for all i in K} in lexicographic
    one-line order, generated one at a time; there are n!/2^|K| of them
    for special K. K is checked before the first item."""
    trusted = Permutation._trusted  # the search yields bijections only
    return (trusted(images) for images, _, _ in minimal_coset_rep_images(k))


def minimal_coset_rep_count(k: SimpleSubset) -> int:
    """|W^K|, counted by placing w(1), ..., w(n) left to right rather than
    by the n!/2^|K| formula, so it stays an independent cross-check of the
    latter. counts[r] is the number of relative orders of the first p
    entries with exactly r of them below the last; entry p+1 must lie
    above entry p when p is in K. O(n^2) additions, nothing stored."""
    require_special(k)
    counts = [1]
    for p in range(1, k.n):
        if p in k:
            counts = list(accumulate(counts, initial=0))
        else:
            counts = [sum(counts)] * (p + 1)
    return sum(counts)

