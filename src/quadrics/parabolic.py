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
choosing at each index its Lehmer digit, the index of its value among
those still unplaced. Every test compares digits, and ell(w) is their
sum: i in K needs digit[i] >= digit[i-1], so each node's children start
at that floor. The search also decides R_K(w), by the local rule of
`r_references`: i outside K is in R_K(w) when images[i] < images[p],
p = i-2 if i-1 is in K and i-1 otherwise, which holds exactly when
digit[i] < digit[p], as every entry between p and i lies above
images[p]. Where i-1 is outside K that comparison is a right descent of
w, which the descent check reads.
Each leaf places the last four values at once (all n of them when n <= 4)
from a table per pattern (its size and comparisons) and key (the digits
of the prefix entries it reads): each order K allows, with its digit sum
and hits. Tables are built on first use and kept for the 64 patterns used
last, so the searches of a process share them. The leaf's images are read
off a memo of suffixes, each order of each set of unplaced values as a
tuple or as text; it does not depend on K, so a listing shares it across
its K and holds at most n!/(n-4)! suffixes. The images are carried as a
tuple or, given a separator, as text joined by it after a root text, one
concatenation per placed value: `cells` builds its listing rows from it,
with head(K) as the root. It keeps at most n(n-1)/2 partial permutations
pending.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, permutations, product
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
        # type, not isinstance: a bool or a float equal to an int is refused
        if type(n) is not int:
            raise ValueError(f"rank {n!r} is not an int")
        if n < 1:
            raise ValueError("rank must be at least 1")
        members = tuple(members)
        for m in members:
            if type(m) is not int:
                raise ValueError(f"member {m!r} is not an int")
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
        return type(i) is int and i in self.members

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


def r_references(n: int, k_members: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(i, p) for each i outside K, where w(i+1) is compared with the
    one-line entry images[p]: p = i-2 (w(i-1)) if i-1 is in K, else i-1
    (w(i)). i is in R_K(w) when w(i+1) is the smaller.

    This is the local rule for R_K(w): the pairing vector
    alpha_i + w_{0,K}(alpha_i) is supported on positions i-1..i+2, and
    since w has no descent inside K its leading sign after w acts is
    negative exactly when w(i+1) < images[p].

    >>> r_references(5, (1, 3))
    ((2, 0), (4, 2))
    """
    in_k = set(k_members)
    return tuple(
        (i, i - 2 if i - 1 in in_k else i - 1) for i in range(1, n) if i not in in_k
    )


# One item of the W^K search: (w.images, or in a listing their text,
# ell(w), R_K(w)).
CosetRep = tuple[tuple[int, ...] | str, int, tuple[int, ...]]


def minimal_coset_rep_images(k: SimpleSubset) -> Iterator[CosetRep]:
    """(w.images, ell(w), R_K(w)) for each w in W^K, in lexicographic
    one-line order, generated one at a time, R_K(w) by the local rule of
    r_references. K is checked before the first item.

    >>> list(minimal_coset_rep_images(SimpleSubset(3, (1,))))
    [((1, 2, 3), 0, ()), ((1, 3, 2), 1, ()), ((2, 3, 1), 2, (2,))]
    """
    require_special(k)
    return _coset_rep_search(k.n, k.members, None)


def _coset_rep_search(
    n: int,
    members: tuple[int, ...],
    separator: str | None,
    root: str = "",
    suffixes: dict | None = None,
) -> Iterator[CosetRep]:
    """The items of minimal_coset_rep_images, K taken as special. Given a
    separator, each item carries the images joined by it after root in
    place of the tuple. suffixes maps each set of values a leaf places to
    the tuples (or texts) of its orders; searches with one rank and one
    separator may share it.

    >>> [text for text, _, _ in _coset_rep_search(3, (1,), "-", "w=")]
    ['w=1-2-3', 'w=1-3-2', 'w=2-3-1']
    """
    # the earlier index each index is compared with, or None: digit[i] must
    # be at least digit[below[i]], and is a hit below digit[against[i]]
    below = [None] * n
    for i in members:
        below[i] = i - 1
    against = list(map(dict(r_references(n, members)).get, range(n)))
    # the leaves place indices q, ..., n-1 (all n when n <= 4) and compare
    # digits, order + key: the order's for the leaf's indices, the key's for
    # the prefix entries read, j's at where[j]
    q = max(n - 4, 0)
    read = sorted({j for j in below[q:] + against[q:] if j is not None and j < q})
    where = dict(zip([*range(q, n), *read], range(n)))
    k_pairs, comparisons = (
        tuple((i, where[i], where[j]) for i, j in enumerate(earlier[q:], q) if j is not None)
        for earlier in (below, against)
    )
    tables = _leaf_tables(n - q, k_pairs, comparisons)
    # the images, one concatenation per placed value: pieces[p][value] is
    # what placing value at index p appends, a one-value tuple or the text
    # of value after separator (none before the first)
    if separator is None:
        firsts = inner = [(value,) for value in range(n + 1)]
        root = ()
    else:
        firsts = list(map(str, range(n + 1)))
        inner = [separator + value for value in firsts]
        lead = separator if q else ""
    pieces = [firsts] + [inner] * (n - 1)
    suffixes = {} if suffixes is None else suffixes
    # (digits so far, images so far, unplaced values in increasing order,
    # ell so far, hits so far); children are pushed largest digit first so
    # the smallest pops first
    stack = [((), root, tuple(range(1, n + 1)), 0, ())]
    pop, push = stack.pop, stack.append
    while stack:
        digits, images, unplaced, length, hits = pop()
        p = len(digits)
        if p == q:
            key = tuple([digits[j] for j in read])
            rows = tables.get(key)
            if rows is None:
                rows = tables[key] = _leaf_rows(n - q, k_pairs, comparisons, key)
            ends = suffixes.get(unplaced)
            if ends is None:
                orders = permutations(unplaced if separator is None else map(firsts.__getitem__, unplaced))
                ends = list(orders) if separator is None else [lead + separator.join(o) for o in orders]
                suffixes[unplaced] = ends
            for index, inversions, leaf_hits in rows:
                yield images + ends[index], length + inversions, hits + leaf_hits
            continue
        # the digit at index p is at least floor, and a hit under top
        floor = 0 if (j := below[p]) is None else digits[j]
        top = 0 if (j := against[p]) is None else digits[j]
        level = pieces[p]
        for idx in range(len(unplaced) - 1, floor - 1, -1):
            hit = hits + (p,) if idx < top else hits
            rest = unplaced[:idx] + unplaced[idx + 1 :]
            push((digits + (idx,), images + level[unplaced[idx]], rest, length + idx, hit))


@lru_cache(maxsize=64)
def _leaf_tables(size: int, k_pairs: tuple, comparisons: tuple) -> dict:
    """{key: _leaf_rows(...)} for one leaf pattern, filled as searches meet
    each key; the 64 patterns used last are kept."""
    return {}


def _leaf_rows(size: int, k_pairs: tuple, comparisons: tuple, key: tuple[int, ...]) -> list:
    """(index, inversions, hits) for each order of size values, given by
    its Lehmer digits (product lists them lexicographically, as the index
    counts) and not refused by a K pair; its inversions are their sum. Each
    pair (i, t, s) asks digits[t] < digits[s] of digits = order + key: a K
    pair so refuses the order, and a comparison makes i a hit."""
    rows = []
    for index, order in enumerate(product(*map(range, range(size, 0, -1)))):
        digits = order + key
        if not any(digits[t] < digits[s] for _, t, s in k_pairs):
            hits = tuple([i for i, t, s in comparisons if digits[t] < digits[s]])
            rows.append((index, sum(order), hits))
    return rows


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

