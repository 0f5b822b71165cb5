"""Permutations of [n] in one-line notation and their action on integer
weight vectors in the epsilon basis.

Conventions, shared by every module in this package:

* permutations are 1-based, so ``w(i)`` is the image of i in {1, ..., n};
* composition is (u * v)(i) = u(v(i));
* a weight vector sum(c_i eps_i) counts as positive when its lowest-index
  non-zero coefficient is positive.
"""

from __future__ import annotations

import itertools
from operator import gt
from typing import Iterable


class Permutation:
    """A permutation of [n] = {1, ..., n} stored in one-line notation.

    >>> w = Permutation((2, 3, 1))
    >>> w(1), w(2), w(3)
    (2, 3, 1)
    >>> w.length
    2
    >>> w.right_descents
    (2,)
    """

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ValueError("a permutation needs rank at least 1")
        for value in images:
            if type(value) is not int:  # a bool or a float equal to an int is refused
                raise ValueError(f"image {value!r} is not an int")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of [{n}]: {images!r}")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> Permutation:
        """A permutation of images known to be a bijection, unchecked."""
        w = object.__new__(cls)
        w.images = images
        return w

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if type(i) is not int:  # a bool or a float equal to an int is refused
            raise ValueError(f"index {i!r} is not an int")
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range [1, {self.n}]")
        return self.images[i - 1]

    @property
    def length(self) -> int:
        """Inversion count |{(i, j) : i < j, w(i) > w(j)}|."""
        images = self.images
        return sum(
            1 for a, b in itertools.combinations(images, 2) if a > b
        )

    @property
    def right_descents(self) -> tuple[int, ...]:
        """Positions i in [n-1] with w(i) > w(i+1).

        Equivalently the i for which right multiplication by the adjacent
        transposition s_i shortens w.
        """
        images = self.images
        return tuple(itertools.compress(range(1, len(images)), map(gt, images, images[1:])))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for i, im in enumerate(self.images):
            inv[im - 1] = i + 1
        return Permutation(inv)

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition (self * other)(i) = self(other(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        mine = self.images
        return Permutation(mine[j - 1] for j in other.images)

    def act(self, v: WeightVector) -> WeightVector:
        """Send eps_i to eps_{w(i)}: the output coefficient at position
        w(i) is the input coefficient at position i."""
        if v.rank != self.n:
            raise ValueError(f"rank mismatch: {self.n} vs {v.rank}")
        out = [0] * self.n
        for i, c in enumerate(v.coeffs):
            out[self.images[i] - 1] = c
        return WeightVector(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: Permutation) -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"

    def __str__(self) -> str:
        return one_line_separator(self.n).join(str(i) for i in self.images)


def one_line_separator(n: int) -> str:
    """What str(Permutation) puts between the one-line images at rank n:
    nothing while every image is one digit, else a hyphen."""
    return "" if n <= 9 else "-"


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


class WeightVector:
    """An integer vector sum(coeffs[i] eps_{i+1}) in the epsilon basis.

    >>> (simple_root(1, 3) + simple_root(2, 3)).coeffs
    (1, 0, -1)
    """

    def __init__(self, coeffs: Iterable[int]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a weight vector needs rank at least 1")
        if not all(isinstance(c, int) for c in coeffs):
            raise TypeError("coefficients must be integers")
        self.coeffs = coeffs

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def sign(self) -> int:
        """1, -1 or 0 by the sign of the lowest-index non-zero coefficient."""
        for c in self.coeffs:
            if c > 0:
                return 1
            if c < 0:
                return -1
        return 0

    def __add__(self, other: WeightVector) -> WeightVector:
        if not isinstance(other, WeightVector):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return WeightVector(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> WeightVector:
        return WeightVector(-c for c in self.coeffs)

    def __sub__(self, other: WeightVector) -> WeightVector:
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeightVector) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"WeightVector({self.coeffs!r})"


def simple_root(i: int, n: int) -> WeightVector:
    """alpha_i = eps_i - eps_{i+1}."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range [1, {n - 1}]")
    coeffs = [0] * n
    coeffs[i - 1] = 1
    coeffs[i] = -1
    return WeightVector(coeffs)

