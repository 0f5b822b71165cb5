"""The cell engine: cell-dimension counts over W^K by an insertion DP.

The census encodes on its own the local rule for R_K(w) that
`parabolic.r_references` lists for the W^K search: for special K and w
in W^K, i outside K lies in R_K(w) exactly when

    w(i+1) < w(i-1)  if i-1 is in K,
    w(i+1) < w(i)    otherwise.

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
subvariety, or the whole variety.

Each state holds its polynomial as one integer, the coefficients in
fixed-width slots (Kronecker substitution): times q^k is a shift by k
slots and adding polynomials is adding integers. A coefficient counts
pairs (relative ranks of a prefix, join choices), so it stays below
n! * 2^(n-1); a slot of that bit length plus one, rounded up to whole
bytes, holds every coefficient of every state, sum and product below,
and all of them are non-negative, so no slot ever carries into the next.
The moves to rank r outside K take the suffix sum over the reference
ranks s >= r, and the join moves out of one state are one product with
q + ... + q^(p-1-s). A census is O(n^2) operations on integers of
O(n^2 * n log n) bits, instead of a scan of all n! permutations per K.

The engine keeps nothing between calls: each census is computed afresh
and returned as a new dict. The one answer reports ask for again, the
polynomial of a subvariety, is remembered by `cells.poincare_sum`.
"""

from __future__ import annotations

from math import factorial

# the engine's name, as benchmark records report it
BACKEND = "pure-python"


def _validate(n: int, forced: int, allowed: int, target: int) -> None:
    # type, not isinstance: a bool is refused
    if type(n) is not int or n < 1:
        raise ValueError(f"rank must be a positive integer, got {n!r}")
    for mask in (forced, allowed, target):
        if type(mask) is not int or not 0 <= mask < 1 << (n - 1):
            raise ValueError(f"mask {mask!r} out of range for rank {n}")
    if forced & (forced >> 1):
        raise ValueError(f"forced mask {forced:#b} is not special")
    if forced & ~allowed:
        raise ValueError(f"forced mask {forced:#b} is not inside allowed {allowed:#b}")


def cell_census(n: int, forced: int, allowed: int, target: int) -> dict[int, int]:
    """Tally the cells (K, w) by ell(w) + |K| + |R_K(w) intersect target|,
    over the special K with forced <= K <= allowed and w in W^K.

    Bit i-1 of a mask selects i; target bits inside K never count, since
    R_K(w) avoids K. forced = allowed = K is the census of one orbit, its
    multiplicities summing to n!/2^|K|. Returns a new dict
    {exponent: multiplicity}; nothing is kept between calls.
    """
    _validate(n, forced, allowed, target)
    size = n * (n - 1) // 2 + (allowed | target).bit_count() + 1
    # slot width in bytes: the bit length of n! * 2^(n-1), plus one, rounded up
    slot = (factorial(n) << (n - 1)).bit_length() // 8 + 1
    width = 8 * slot
    # free[s], held[s]: the packed polynomials of the prefixes whose reference
    # entry has rank s, where the last decided i is outside K (free) or in K
    free, held = [1], [0]
    for p in range(2, n + 1):
        bit = 1 << (p - 2)  # i = p-1 is decided at this step
        must, may, counted = forced & bit, allowed & bit, target & bit
        next_held = [0] * p
        if may:
            # p-1 joins K: w(p) > w(p-1), rank r > s, adds p-r; the reference
            # keeps its rank s and stays the reference for position p+1
            joins = 0  # q + ... + q^(p-1-s)
            for s in range(p - 2, -1, -1):
                joins += 1 << (width * (p - 1 - s))
                if free[s]:
                    next_held[s] = free[s] * joins
        next_free = [0] * p
        if not must:
            # w(p) of rank r becomes the reference and adds p-1-r, plus one
            # for i = p-1 in R when counted and w(p) is below the old
            # reference (r <= s): the states with s >= r sum to below
            total = sum(free) + sum(held)
            below = 0
            for r in range(p - 1, -1, -1):
                if counted:
                    if r < p - 1:
                        below += free[r] + held[r]
                    poly = (below << width) + total - below
                else:
                    poly = total
                next_free[r] = poly << (width * (p - 1 - r))
        free, held = next_free, next_held
    data = (sum(free) + sum(held)).to_bytes(size * slot, "little")
    counts = (int.from_bytes(data[i : i + slot], "little") for i in range(0, len(data), slot))
    return {e: count for e, count in enumerate(counts) if count}
