"""The cell engine: cell-dimension counts over W^K by an insertion DP.

For special K and w in W^K, whether i (outside K) lies in R_K(w) is a
local comparison: the pairing vector alpha_i + w_{0,K}(alpha_i) is
supported on positions i-1..i+2, and since w has no descent inside K its
leading sign after w acts is negative exactly when

    w(i+1) < w(i-1)  if i-1 is in K,
    w(i+1) < w(i)    otherwise.

`r_members` applies this rule to one w, for the fixed-point listings.
For the census, w is built from left to right by relative rank, as in
the inversion table behind sum_w q^ell(w) = [n]_q!: the entry at
position p, placed with rank r among the first p entries, adds p-1-r
inversions. At step p the census also decides whether p-1 joins K. A
join needs p-2 outside K and the new entry above w(p-1), and adds 1 to
the exponent; otherwise the new entry is compared with the reference of
the R-test at i = p-1 (w(p-2) if p-2 is in K, else w(p-1)) and becomes
the next reference. So the only state is the reference's rank and one
bit for the last join, and one pass sums the cells of every special K in
an interval forced <= K <= allowed: one orbit, the orbits inside a
subvariety, or the whole variety. A census takes O(n^5) integer
additions instead of a scan of all n! permutations per K.
"""

from __future__ import annotations

from functools import lru_cache

# the engine's name, as `quadrics.kernel_backend` and benchmark records report it
BACKEND = "pure-python"


def _validate(n: int, forced: int, allowed: int, target: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"rank must be a positive integer, got {n!r}")
    for mask in (forced, allowed, target):
        if not isinstance(mask, int) or not 0 <= mask < 1 << (n - 1):
            raise ValueError(f"mask {mask!r} out of range for rank {n}")
    if forced & (forced >> 1):
        raise ValueError(f"forced mask {forced:#b} is not special")
    if forced & ~allowed:
        raise ValueError(f"forced mask {forced:#b} is not inside allowed {allowed:#b}")


@lru_cache(maxsize=None)
def _r_references(n: int, k_members: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(i, p) for each i outside K, where w(i+1) is compared with the
    one-line entry images[p]: p = i-2 (w(i-1)) if i-1 is in K, else i-1
    (w(i))."""
    in_k = set(k_members)
    return tuple(
        (i, i - 2 if i - 1 in in_k else i - 1) for i in range(1, n) if i not in in_k
    )


def r_members(k_members: tuple[int, ...], images: tuple[int, ...]) -> tuple[int, ...]:
    """R_K(w) by the local rule, for special K and w in W^K given by its
    one-line images. Inputs are not validated; `cells.r_set` is the
    weight-vector definition this rule is tested against."""
    return tuple(
        i for i, p in _r_references(len(images), k_members) if images[i] < images[p]
    )


@lru_cache(maxsize=None)
def cell_census(n: int, forced: int, allowed: int, target: int) -> dict[int, int]:
    """Tally the cells (K, w) by ell(w) + |K| + |R_K(w) intersect target|,
    over the special K with forced <= K <= allowed and w in W^K.

    Bit i-1 of a mask selects i; target bits inside K never count, since
    R_K(w) avoids K. forced = allowed = K is the census of one orbit, its
    multiplicities summing to n!/2^|K|. Returns {exponent: multiplicity};
    treat the dict as read-only, it is cached and shared between callers.
    """
    _validate(n, forced, allowed, target)
    size = n * (n - 1) // 2 + (allowed | target).bit_count() + 1
    # states[s, joined]: coefficients of the prefixes whose reference entry
    # has rank s, where joined says whether the last decided i joined K
    states = {(0, False): [1] + [0] * (size - 1)}
    for p in range(2, n + 1):
        bit = 1 << (p - 2)  # i = p-1 is decided at this step
        must, may, counted = forced & bit, allowed & bit, bool(target & bit)
        nxt: dict[tuple[int, bool], list[int]] = {}
        for (s, joined), poly in states.items():
            terms = [(e, c) for e, c in enumerate(poly) if c]
            for r in range(p):
                below = r <= s
                moves = []
                if may and not joined and not below:
                    # p-1 joins K: w(p) > w(p-1) keeps the reference's rank,
                    # and w(p-1) stays the reference for position p+1
                    moves.append(((s, True), p - r))
                if not must:
                    moves.append(((r, False), p - 1 - r + (below and counted)))
                for key, shift in moves:
                    dest = nxt.setdefault(key, [0] * size)
                    for e, c in terms:
                        dest[e + shift] += c
        states = nxt
    totals = [sum(column) for column in zip(*states.values())]
    return {e: count for e, count in enumerate(totals) if count}
