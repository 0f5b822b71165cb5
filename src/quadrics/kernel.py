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
inversions. Each step compares the new entry with one reference entry
(w(p-1) when p-1 is in K, where the new entry must lie above it;
otherwise the reference of the R-test at i = p-1), so the only state is
the reference's rank. A census takes O(n^5) integer additions instead of
a scan of all n! permutations.
"""

from __future__ import annotations

from functools import lru_cache

# the engine's name, as `quadrics.kernel_backend` and benchmark records report it
BACKEND = "pure-python"


def _validate(n: int, k_members: tuple[int, ...], target_mask: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"rank must be a positive integer, got {n!r}")
    prev = 0
    for i in k_members:
        if not isinstance(i, int) or not 1 <= i <= n - 1:
            raise ValueError(f"member {i!r} out of range [1, {n - 1}]")
        if i <= prev:
            raise ValueError(f"{k_members} is not strictly increasing")
        if prev and i - prev < 2:
            raise ValueError(f"{k_members} is not special")
        prev = i
    if not isinstance(target_mask, int) or not 0 <= target_mask < 1 << (n - 1):
        raise ValueError(f"target mask {target_mask!r} out of range for rank {n}")


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
def cell_census(
    n: int, k_members: tuple[int, ...] = (), target_mask: int = 0
) -> dict[int, int]:
    """Tally W^K by ell(w) + |R_K(w) intersect target|.

    Bit i-1 of target_mask selects i; bits inside K never count, since
    R_K(w) avoids K. Returns {exponent: multiplicity}, the multiplicities
    summing to n!/2^|K|. Treat the returned dict as read-only; it is cached
    and shared between callers.
    """
    _validate(n, k_members, target_mask)
    in_k = [False] * (n + 1)
    for i in k_members:
        in_k[i] = True
    size = n * (n - 1) // 2 + target_mask.bit_count() + 1
    # states[s]: coefficients of the prefixes whose reference entry has rank s
    states = [[1] + [0] * (size - 1)]
    for p in range(2, n + 1):
        ascent = in_k[p - 1]
        counted = not ascent and (target_mask >> (p - 2)) & 1
        nxt = [[0] * size for _ in range(p)]
        for s, poly in enumerate(states):
            for r in range(p):
                below = r <= s
                if ascent:
                    if below:
                        continue
                    # w(p) > w(p-1) leaves the reference's rank unchanged,
                    # and w(p-1) stays the reference for position p+1
                    dest, shift = nxt[s], p - 1 - r
                else:
                    dest, shift = nxt[r], p - 1 - r + (below and counted)
                for e in range(size - shift):
                    if poly[e]:
                        dest[e + shift] += poly[e]
        states = nxt
    totals = [sum(column) for column in zip(*states)]
    return {e: count for e, count in enumerate(totals) if count}
