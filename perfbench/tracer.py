"""Run one quadrics CLI command with per-layer spans and counters.

usage: python3 perfbench/tracer.py TRACE_FILE ARGV...

Behaves like `python -m quadrics ARGV...` (same stdout, stderr and exit
code) but first wraps the public names one quadrics module imports from
another, e.g. `quadrics.cli.fixed_points_full_variety` or
`quadrics.cells.cell_census`, so every call into a layer records a span
(id, name, start, end, parent id) or bumps a counter. Spans and counters
stay in memory and are written to TRACE_FILE once, when the command ends.
Nothing under `src/` is changed.

Spans recorded inside `--jobs` pool workers are lost with the workers: only
the parent process is traced, and the pooled work shows as `cli.pmap` self
time.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.next_id = 0
        self.seen: dict[object, set] = {}

    def span(self, fn, name, on_exit=None):
        """fn recording a span per call; on_exit(args, result) runs after."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
            self.spans.append((sid, name, start, end, parent))
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def cached(self, fn, name, on_miss=None):
        """An unbounded lru_cache'd fn: every call counts as `<name>_calls`,
        only the first call per key (the cache miss) records a span."""
        seen = self.seen.setdefault(fn, set())
        traced = self.span(fn, name, on_miss)
        calls = f"{name}_calls"
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[calls] += 1
            if args in seen:
                return fn(*args)
            seen.add(args)
            return traced(*args)

        return wrapper

    def counter(self, fn, name):
        """fn counting its calls as `name`, with no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name, value):
        self.counts[name] += value


def install(tracer: Tracer) -> set[tuple[int, tuple[int, ...]]]:
    """Wrap the layer boundaries of the imported quadrics package; returns
    the set that collects the (n, K) keys of the coset-rep cache."""
    import quadrics.cells as cells
    import quadrics.cli as cli
    import quadrics.nilfix as nilfix
    import quadrics.qpoly as qpoly
    import quadrics.symmetric_group as symmetric_group

    def patch(module, attr, wrap, *args):
        setattr(module, attr, wrap(getattr(module, attr), *args))

    def census_miss(args, result):
        tracer.add("kernel.perms_scanned", math.factorial(args[0]))
        tracer.add("kernel.reps_kept", sum(result.values()))

    coset_keys = set()

    def coset_key(args, result):
        coset_keys.add((args[0].n, args[0].members))

    def records(args, result):
        tracer.add("cells.records", len(result))

    def pool(args, result):
        jobs = args[2]
        tracer.add("cli.pmap_tasks", len(result))
        if jobs > 1 and len(result) > 1:
            tracer.add("cli.workers", jobs)

    patch(cells, "cell_census", tracer.cached, "kernel.census", census_miss)
    for module, attr in (
        (cli, "per_orbit_sum"),
        (cli, "full_variety_orbit_sum"),
        (cli, "poincare_sum"),
        (cells, "per_orbit_sum"),
        (cells, "poincare_sum"),
    ):
        patch(module, attr, tracer.span, "cells.orbit_sum")
    patch(cells, "r_set", tracer.span, "cells.r_set")
    patch(cli, "fixed_points", tracer.span, "cells.fixed_points", records)
    patch(cli, "fixed_points_full_variety", tracer.span, "cells.fixed_points", records)
    patch(cli, "descent_characterization_check", tracer.span, "cells.descent")
    patch(cells, "minimal_coset_reps", tracer.span, "parabolic.coset_reps", coset_key)
    patch(cli, "minimal_coset_rep_count", tracer.span, "parabolic.coset_reps", coset_key)
    patch(symmetric_group.Permutation, "act", tracer.counter, "symmetric_group.act_calls")
    patch(qpoly.QPolynomial, "__mul__", tracer.span, "qpoly.mul")
    patch(cli, "product_formula", tracer.span, "qpoly.product_formula")
    patch(cells, "product_formula", tracer.span, "qpoly.product_formula")
    patch(qpoly, "exact_div", tracer.span, "qpoly.exact_div")
    patch(cli, "height_identity_check", tracer.span, "qpoly.height")
    patch(nilfix, "nullspace_basis", tracer.span, "nilfix.nullspace")
    patch(cli, "row_echelon_rank", tracer.span, "nilfix.rank")
    patch(cli, "fixed_quadric_space", tracer.cached, "nilfix.nondegeneracy")
    patch(nilfix, "fixed_quadric_space", tracer.cached, "nilfix.nondegeneracy")
    patch(nilfix, "_int_det", tracer.counter, "nilfix.det_evals")
    patch(cli, "regularity_classifier", tracer.span, "nilfix.classifier")
    for attr in ("cmd_poincare", "cmd_verify", "cmd_cells", "cmd_special", "cmd_fixed_quadrics"):
        patch(cli, attr, tracer.span, "cli.format")
    patch(cli, "_emit", tracer.span, "cli.emit")
    patch(cli, "_pmap", tracer.span, "cli.pmap", pool)
    return coset_keys


def main(trace_file: str, argv: list[str]) -> int:
    start = perf_counter()
    import quadrics.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    coset_keys = install(tracer)
    try:
        return quadrics.cli.main(argv)
    finally:
        tracer.counts["parabolic.coset_reps_held"] = sum(
            math.factorial(n) // 2 ** len(members) for n, members in coset_keys
        )
        with open(trace_file, "w") as handle:
            json.dump(
                {
                    "argv": argv,
                    "import_s": import_s,
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                },
                handle,
            )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2:]))
