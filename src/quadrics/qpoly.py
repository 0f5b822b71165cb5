"""Dense polynomials in q with exact integer coefficients: q-integers,
q-factorials, and the closed product forms behind the Poincare
polynomials of the special subvarieties of complete quadrics.

Rational functions are never represented. Every closed form here is
[n]_q! (or 1) times a product of ratios (1 - q^a) / (1 - q^b), and one
walk, `_walk`, takes the ratios one at a time on a plain coefficient
list: one O(degree) step times 1 - q^a, then one exact O(degree) step
over 1 - q^b, ordered so that every partial product is a polynomial. The
running list then never grows much past the final degree. [n]_q! itself
is built one O(degree) prefix-sum step per factor [k]_q.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import sub
from typing import Iterable

from quadrics.parabolic import SimpleSubset, require_special


class InexactDivisionError(ArithmeticError):
    """Raised by exact_div when the quotient is not a polynomial; upstream
    this signals a violated identity rather than a rounding problem."""


class QPolynomial:
    """Polynomial in q with arbitrary-precision integer coefficients.

    coeffs[k] is the coefficient of q^k; trailing zeros are trimmed so the
    representation is canonical and equality is plain tuple equality.

    >>> QPolynomial([1, 2, 0, 0]).coeffs
    (1, 2)
    >>> str(q_factorial(3))
    '1 + 2q + 2q^2 + q^3'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:  # type, not isinstance: a bool is refused
                raise TypeError(f"integer coefficients only, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate_at_one(self) -> int:
        return sum(self.coeffs)

    def coeff_strings(self) -> list[str]:
        """Ascending coefficients as decimal strings, the wire form used by
        the command line reports."""
        return [str(c) for c in self.coeffs]

    def __add__(self, other: QPolynomial) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __neg__(self) -> QPolynomial:
        return QPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: QPolynomial) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: QPolynomial) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPolynomial(out)

    def __pow__(self, exponent: int) -> QPolynomial:
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = ONE
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                var = "q" if k == 1 else f"q^{k}"
                term = f"{mag}{var}"
                parts.append(term if c > 0 else f"-{term}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


ZERO = QPolynomial()
ONE = QPolynomial([1])


def monomial(k: int, coeff: int = 1) -> QPolynomial:
    if k < 0:
        raise ValueError("negative exponent")
    return QPolynomial([0] * k + [coeff])


def one_minus_q_pow(k: int) -> QPolynomial:
    """1 - q^k, the building block of every product identity here."""
    if k < 1:
        raise ValueError("exponent must be positive")
    return QPolynomial([1] + [0] * (k - 1) + [-1])


def q_integer(k: int) -> QPolynomial:
    """[k]_q = 1 + q + ... + q^(k-1)."""
    if k < 1:
        raise ValueError("q-integers are defined for k >= 1")
    return QPolynomial([1] * k)


def q_factorial(n: int) -> QPolynomial:
    """[n]_q! = prod_{k=1}^{n} [k]_q, with [0]_q! = 1."""
    if n < 0:
        raise ValueError("q-factorials are defined for n >= 0")
    coeffs = [1]
    for k in range(2, n + 1):
        coeffs = _times_q_integer(coeffs, k)
    return QPolynomial(coeffs)


def _times_q_integer(coeffs: list[int], k: int) -> list[int]:
    """coeffs * [k]_q on coefficient lists, in O(degree): coefficient i of
    the product is the sum of the window coeffs[i-k+1 .. i], read off
    prefix sums of the zero-padded list."""
    pad = [0] * (k - 1)
    prefix = [0, *accumulate(pad + coeffs + pad)]
    return list(map(sub, prefix[k:], prefix[:-k]))


def exact_div(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    """The polynomial c with a = b * c, or InexactDivisionError when no such
    polynomial exists.

    >>> exact_div(one_minus_q_pow(3) * QPolynomial([1, 1]), one_minus_q_pow(2))
    QPolynomial([1, 1, 1])
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return ZERO
    if a.degree < b.degree:
        raise InexactDivisionError(f"degree {a.degree} < {b.degree}")
    rem = list(a.coeffs)
    bc = b.coeffs
    bd = b.degree
    lead = bc[-1]
    quot = [0] * (a.degree - bd + 1)
    for k in range(a.degree - bd, -1, -1):
        c = rem[k + bd]
        if c == 0:
            continue
        qk, r = divmod(c, lead)
        if r:
            raise InexactDivisionError("leading coefficient does not divide")
        quot[k] = qk
        for i, bcoef in enumerate(bc):
            rem[k + i] -= qk * bcoef
    if any(rem[:bd]):
        raise InexactDivisionError("non-zero remainder")
    return QPolynomial(quot)


def is_palindromic(p: QPolynomial) -> bool:
    """coeff(k) == coeff(deg - k) for all k; Poincare duality makes this hold
    for every smooth projective variety's Poincare polynomial."""
    return p.coeffs == p.coeffs[::-1]


def _times_one_minus_q_pow(coeffs: list[int], k: int) -> list[int]:
    """coeffs * (1 - q^k) on coefficient lists, in O(degree)."""
    out = coeffs + [0] * k
    # out[i] -= coeffs[i - k] for every i >= k, in one pass
    out[k:] = map(sub, out[k:], coeffs)
    return out


def _over_one_minus_q_pow(coeffs: list[int], k: int) -> list[int]:
    """coeffs / (1 - q^k) on coefficient lists, in O(degree); the inverse
    of _times_one_minus_q_pow. The quotient c satisfies
    c[i] = coeffs[i] + c[i - k], and the division is exact exactly when
    that recurrence leaves zeros in its top k places."""
    out = list(coeffs)
    # along each residue class mod k the recurrence is a running sum
    for r in range(k):
        out[r::k] = accumulate(out[r::k])
    top = max(len(out) - k, 0)
    if any(out[top:]):
        raise InexactDivisionError(f"not a multiple of 1 - q^{k}")
    return out[:top]


def _walk(coeffs: list[int], ratios: Iterable[tuple[int, int]]) -> list[int]:
    """coeffs times (1 - q^a) / (1 - q^b) for each (a, b) of ratios in
    order: one O(degree) step times 1 - q^a, then one exact step over
    1 - q^b, which raises InexactDivisionError on a remainder."""
    for a, b in ratios:
        coeffs = _over_one_minus_q_pow(_times_one_minus_q_pow(coeffs, a), b)
    return coeffs


def product_formula(subset: SimpleSubset) -> QPolynomial:
    """Closed form of the q-Poincare polynomial of the special subvariety
    indexed by subset I inside the rank-n variety of complete quadrics:

        ((1 - q^3) / (1 - q^2))^|I| * prod_{k=1}^{n} (1 - q^k) / (1 - q).

    Walks the |I| ratios (3, 2) from [n]_q!. Each division is exact: a
    special I has |I| <= floor(n/2), the number of even k <= n, and each
    such [k]_q carries one factor 1 + q. An InexactDivisionError escaping
    this function means an implementation bug.
    """
    require_special(subset)
    return QPolynomial(_walk(list(q_factorial(subset.n).coeffs), [(3, 2)] * len(subset)))


@lru_cache(maxsize=None)
def orbit_product_formula(n: int, size_k: int, size_i: int) -> QPolynomial:
    """Closed form of the K-addend of the cell sum of the subvariety
    indexed by I, with |K| = k contained in |I| = l in rank n:

        (q/(1+q^2))^k ((1+q^2)/(1+q))^l [n]_q! = q^k (1+q^2)^(l-k) [n]_q! / (1+q)^l.

    Walks (4, 2), that is 1 + q^2, l - k times from [n]_q!, then (1, 2),
    that is 1 / (1 + q), l times, and shifts by q^k. Each step over
    1 - q^2 is exact for l <= floor(n/2), the number of factors 1 + q in
    [n]_q!. Remembered per (n, k, l): at most (n // 2 + 1)^2 polynomials
    of degree about n^2 / 2 per rank.
    """
    if not 0 <= size_k <= size_i <= n // 2:
        raise ValueError(f"need 0 <= |K| <= |I| <= {n // 2}, got {size_k}, {size_i}")
    ratios = [(4, 2)] * (size_i - size_k) + [(1, 2)] * size_i
    return QPolynomial([0] * size_k + _walk(list(q_factorial(n).coeffs), ratios))


def height_identity_check(n: int) -> bool:
    """The root-height identity behind the product formula:

        prod_{1<=i<j<=n} (1 - q^(j-i+1)) / (1 - q^(j-i)) = [n]_q!

    A gap d = j - i occurs n - d times, and the ratios (d + 1, d) are
    walked from [1] with the gaps in increasing order. Every partial
    product is a polynomial: after the gaps below d and t ratios of gap d
    it is n - 1 factors 1 - q^k over (1 - q)^(n-1), and each factor
    carries one 1 - q. So a step that leaves a remainder means the
    identity fails, as does a walk that ends anywhere but [n]_q!.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    try:
        coeffs = _walk([1], ((d + 1, d) for d in range(1, n) for _ in range(n - d)))
    except InexactDivisionError:
        return False
    return QPolynomial(coeffs) == q_factorial(n)
