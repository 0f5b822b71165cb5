"""The benchmark's workloads and the correctness gate for their output.

A workload is a fixed list of quadrics CLI commands. The seed only picks
the `--subset` arguments, always a special subset of a fixed size, so every
seed does the same amount of work. Commands the seed does not touch are
checked against stdout digests recorded from the program (`digests.json`);
seeded commands are checked against invariants that hold for any special
subset of that size.

Why these workloads:

* census-sweep: every command spends most of its time in the S_8 census of
  `kernel`; it is also the only workload that fans out with `--jobs`.
* cell-listing: the element-wise path (`cells.r_set` over `parabolic` coset
  representatives and `symmetric_group` weight vectors) and large reports;
  `kernel` is never called, so a kernel change must leave it unchanged.
* closed-forms: `qpoly` products and `nilfix` linear algebra; nothing
  enumerates S_n, so a change to `kernel` or `cells` must not move it.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

# the `--jobs` fan-out never asks for more workers than the machine has
JOBS = min(2, os.cpu_count() or 1)

# check(stdout) returns None when the output is right, else the reason
Check = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Optional[Check] = None  # None: compare with the recorded digest

    def digest_key(self) -> str:
        """The argv without `--jobs N`: the report bytes do not depend on it."""
        argv = list(self.argv)
        if "--jobs" in argv:
            at = argv.index("--jobs")
            del argv[at : at + 2]
        return " ".join(argv)


def special_subset(rng: random.Random, n: int, size: int) -> tuple[int, ...]:
    """A uniformly random special subset of [n-1] with `size` members:
    `size` distinct gaps chosen from the n - size slots, then spread apart."""
    picks = sorted(rng.sample(range(1, n - size + 1), size))
    return tuple(p + j for j, p in enumerate(picks))


def _arg(members: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in members)


def _subsets(members: tuple[int, ...]):
    for size in range(len(members) + 1):
        yield from combinations(members, size)


def parse_polynomial(text: str) -> list[int]:
    """Dense coefficients of a report polynomial such as `1 + 3q + q^2`.
    Poincare polynomials have positive coefficients only."""
    coeffs: dict[int, int] = {}
    for term in text.split(" + "):
        head, q, power = term.partition("q")
        if not q:
            exponent, coeff = 0, int(term)
        else:
            exponent = int(power[1:]) if power else 1
            coeff = int(head) if head else 1
        if coeff <= 0 or exponent in coeffs:
            raise ValueError(f"bad term {term!r}")
        coeffs[exponent] = coeff
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def _report_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def poincare_check(n: int, members: tuple[int, ...]) -> Check:
    """The product form of special I has degree n(n-1)/2 + |I|, Euler number
    n! (3/2)^|I| and palindromic coefficients; `verdict: ok` also means the
    cell sum, when printed, agreed with it."""
    size = len(members)
    degree = n * (n - 1) // 2 + size
    euler = math.factorial(n) * 3**size // 2**size

    def check(stdout: str) -> Optional[str]:
        fields = _report_fields(stdout)
        if fields.get("verdict") != "ok":
            return "verdict is not ok"
        try:
            coeffs = parse_polynomial(fields["product"])
        except (KeyError, ValueError) as exc:
            return f"no product polynomial: {exc}"
        if fields.get("degree") != str(degree) or len(coeffs) - 1 != degree:
            return f"degree is not {degree}"
        if fields.get("euler") != str(euler) or sum(coeffs) != euler:
            return f"euler number is not {euler}"
        if coeffs != coeffs[::-1]:
            return "coefficients are not palindromic"
        return None

    return check


def cells_subset_check(n: int, members: tuple[int, ...]) -> Check:
    """`cells --subset I` lists n!/2^|K| fixed points for every K inside I."""
    expected = Counter(
        {"{" + _arg(k) + "}": math.factorial(n) // 2 ** len(k) for k in _subsets(members)}
    )
    total = sum(expected.values())

    def check(stdout: str) -> Optional[str]:
        lines = stdout.splitlines()
        if not lines or lines[-1] != f"total: {total} fixed points":
            return f"total is not {total}"
        seen = Counter(line.split(" ", 1)[0][2:] for line in lines[:-1] if line.startswith("K="))
        if seen != expected or len(lines) != total + 1:
            return "fixed points per K do not match n!/2^|K|"
        return None

    return check


def census_sweep(rng: random.Random, tiny: bool) -> list[Command]:
    n, size = (5, 2) if tiny else (8, 3)
    i_set = special_subset(rng, n, size)
    return [
        Command(("poincare", "--n", str(n))),
        Command(
            ("poincare", "--n", str(n), "--subset", _arg(i_set), "--method", "both"),
            poincare_check(n, i_set),
        ),
        Command(("verify", "--n", str(n), "--checks", "km,closed-form,duality", "--jobs", str(JOBS))),
        Command(("verify", "--n", str(n), "--checks", "euler")),
    ]


def cell_listing(rng: random.Random, tiny: bool) -> list[Command]:
    big, small = (4, 4) if tiny else (7, 6)
    i_set = special_subset(rng, small, 2)
    return [
        Command(("cells", "--n", str(big), "--format", "csv")),
        Command(("cells", "--n", str(big), "--format", "json")),
        Command(("cells", "--n", str(small), "--subset", _arg(i_set)), cells_subset_check(small, i_set)),
        Command(("verify", "--n", str(small), "--checks", "descent")),
    ]


def closed_forms(rng: random.Random, tiny: bool) -> list[Command]:
    height_n, poly_n, size, block, regular_n = (6, 8, 2, 3, 5) if tiny else (30, 60, 15, 9, 14)
    i_set = special_subset(rng, poly_n, size)
    return [
        Command(("verify", "--n", str(height_n), "--checks", "height")),
        Command(
            ("poincare", "--n", str(poly_n), "--subset", _arg(i_set), "--method", "product"),
            poincare_check(poly_n, i_set),
        ),
        Command(("fixed-quadrics", "--block", str(block), "--format", "json")),
        Command(("verify", "--n", str(block), "--checks", "fixed-quadrics")),
        Command(("verify", "--n", str(regular_n), "--checks", "regularity")),
    ]


WORKLOADS = {
    "census-sweep": census_sweep,
    "cell-listing": cell_listing,
    "closed-forms": closed_forms,
}


def commands(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The command list of one workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(seed), tiny)


def check_output(command: Command, stdout: bytes, digests: dict[str, str]) -> Optional[str]:
    """None when the command printed the right report, else the reason."""
    if command.check is not None:
        return command.check(stdout.decode())
    expected = digests.get(command.digest_key())
    if expected is None:
        return "no digest recorded for this command"
    if hashlib.sha256(stdout).hexdigest() != expected:
        return "stdout differs from the recorded digest"
    return None
