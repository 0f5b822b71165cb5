"""Command line front end.

Subcommands:

* poincare        polynomial of a subvariety (closed product form, cell
                  enumeration, or both with an equality verdict)
* verify          run identity and classification checks across subsets
* cells           list torus fixed points with their cell dimensions
* special         list or count the special subsets of [n-1]
* fixed-quadrics  basis and nondegeneracy of the fixed-quadric space of
                  one block size

Exit codes: 0 success, 1 a requested check or verdict failed, 2 invalid
input (including a bad $QUADRICS_FORMAT or an unwritable --out), 3 n
exceeds --max-n in a command that runs the cell layer (raise the cap with
--max-n), 141 (128 + SIGPIPE) the reader closed stdout before the report
ended, e.g. `| head`; nothing is printed then.
Every command runs in one process. --jobs is accepted for compatibility
and ignored, so the same invocation produces the same bytes for any value.

The process entry is run: `python -m quadrics`, `python -m quadrics.cli`
and the `quadrics` console script all call it. It calls main, then
gc.freeze(), so the interpreter's exit-time collections skip the heap
that is left once the report is out; the process still flushes its
streams and runs its atexit handlers as before. main itself never
freezes: tests and library callers run it inside their own process, whose
heap must stay collectable.

A command imports only the layers it runs. `parabolic` (with
`symmetric_group` under it) is imported here, since every command uses it,
directly or through `nilfix`; `cells`, `qpoly` and `nilfix` are imported by _load in
the commands and checks that run them (CHECKS for verify), and `json`
by the JSON reports alone. The binding rule: each name cli calls from those
three layers (_LAYERS) is a module global of cli, bound when a command
first loads its layer and never rebound, so a name set on this module
before a command runs (a test's monkeypatch, the benchmark tracer's
wrapper) is the one called; a lookup from outside binds the layer through
the module __getattr__.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from importlib import import_module
from itertools import chain, islice
from typing import Callable, NamedTuple

from quadrics.parabolic import (
    SimpleSubset,
    _lex_subsets,
    _special_members,
    minimal_coset_rep_count,
    require_special,
    special_count,
    subset_str,
)
from quadrics.symmetric_group import one_line_separator

# The names cli binds from each lazily imported layer (see the binding rule
# above).
_LAYERS = {
    "quadrics.cells": (
        "descent_characterization_check",
        "fixed_point_rows",
        "fixed_point_rows_full_variety",
        "per_orbit_closed_form_check",
        "poincare_full_variety",
        "poincare_sum",
        "verify_km",
        # not called by cli, since cmd_cells streams the plain rows and
        # each cell sum is one engine call; the benchmark tracer wraps them
        "fixed_points",
        "fixed_points_full_variety",
        "full_variety_orbit_sum",
        "per_orbit_sum",
    ),
    "quadrics.nilfix": (
        "fixed_quadric_space",
        "fixed_system_rows",
        "infinitesimal_fixed_condition",
        "regular_nilpotent",
        "regularity_classifier",
        "row_echelon_rank",
    ),
    "quadrics.qpoly": (
        "height_identity_check",
        "is_palindromic",
        "product_formula",
    ),
}


def _load(*modules: str) -> None:
    """Import each layer and bind the names cli calls from it, keeping a
    binding already there (e.g. one a test or the tracer put in place)."""
    namespace = globals()
    for module in modules:
        layer = import_module(module)
        for name in _LAYERS[module]:
            namespace.setdefault(name, getattr(layer, name))


def __getattr__(name: str):
    for module, names in _LAYERS.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_CAP = 3

FORMAT_ENV_VAR = "QUADRICS_FORMAT"
FORMATS = ("text", "json", "csv")


class CapExceededError(Exception):
    pass


def _load_capped(args: argparse.Namespace, *modules: str) -> None:
    """Load the layers a command runs. The cell layer enumerates S_n, so a
    command that runs it first refuses n below 1 as invalid input, then n
    above --max-n: a command exits 3 exactly when it runs the cell layer."""
    if "quadrics.cells" in modules:
        if args.n < 1:
            raise ValueError("rank must be at least 1")
        if args.n > args.max_n:
            raise CapExceededError(
                f"n={args.n} exceeds --max-n {args.max_n}, the cap on commands that "
                f"run the cell layer; pass --max-n {args.n} to acknowledge the cost"
            )
    _load(*modules)


def _parse_subset(text: str, n: int) -> SimpleSubset:
    if text.strip().lower() == "none":
        return SimpleSubset(n, ())
    try:
        members = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse subset {text!r}; expected e.g. 1,3 or none")
    return SimpleSubset(n, members)


def _resolve_format(args: argparse.Namespace) -> str:
    if args.format:
        return args.format
    env = os.environ.get(FORMAT_ENV_VAR, "").strip().lower()
    if not env:
        return "text"
    if env not in FORMATS:
        raise ValueError(
            f"invalid {FORMAT_ENV_VAR} value {env!r}; choose from {', '.join(FORMATS)}"
        )
    return env


# Records joined into each string handed to writelines. One write per chunk
# instead of one per record, while a chunk (about 60 kB of JSON for `cells`
# at n = 7) stays small beside the interpreter.
CHUNK_RECORDS = 256


def _emit(args: argparse.Namespace, parts) -> None:
    """The one report writer: the report's parts, strings, to --out or
    stdout, CHUNK_RECORDS parts per write. Reports are generated as they
    are written, so memory stays flat however long they are; every command
    raises its input errors before calling this."""
    chunks = _chunks(parts)
    if args.out:
        with open(args.out, "w") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _chunks(parts):
    """The parts joined CHUNK_RECORDS at a time."""
    parts = iter(parts)
    while chunk := "".join(islice(parts, CHUNK_RECORDS)):
        yield chunk


def _emit_json(args: argparse.Namespace, doc) -> None:
    import json  # imported by the JSON reports alone

    _emit(args, [json.dumps(doc, indent=2) + "\n"])


def _json_array(opening: str, items, closing):
    """The parts of a streamed JSON document that holds one non-empty array,
    as json.dumps(doc, indent=2) lays it out: opening, ending in the array's
    "[\n", the items, then closing, an iterable of strings. Every item opens
    with the ",\n" json.dumps puts between items, so each is passed on as it
    comes and only the first loses it. Nothing is drawn from items or closing
    before the writer asks for it."""
    items = iter(items)
    first = (opening + item.removeprefix(",\n") for item in islice(items, 1))
    return chain(first, items, closing)


def _json_ints(values, indent: str) -> str:
    """A list of ints laid out as json.dumps(..., indent=2) lays it out
    when the list opens at the given indent."""
    if not values:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(map(str, values)) + "\n" + indent + "]"


# Not called by any command: the benchmark tracer wraps it by name. jobs
# is unused but stays positional because the tracer reads it.
def _pmap(fn, items, jobs: int) -> list:
    return [fn(item) for item in items]


# --- poincare ----------------------------------------------------------------

def cmd_poincare(args: argparse.Namespace) -> int:
    n = args.n
    subset = _parse_subset(args.subset, n) if args.subset is not None else None
    method = args.method or ("both" if subset is not None else "cells")
    if subset is None and method != "cells":
        raise ValueError(
            "the full variety (no --subset) has no closed product form; use --method cells"
        )
    if subset is not None:
        require_special(subset)
    _load_capped(args, *{
        "cells": ("quadrics.cells",),
        "product": ("quadrics.qpoly",),
        "both": ("quadrics.cells", "quadrics.qpoly"),
    }[method])

    product = product_formula(subset) if method in ("product", "both") else None
    if method == "product":
        cells_poly = None
    elif subset is None:
        cells_poly = poincare_full_variety(n)
    else:
        cells_poly = poincare_sum(subset)

    if method == "both":
        verdict = "ok" if product == cells_poly else "mismatch"
    else:
        verdict = "ok"
    shown = cells_poly if cells_poly is not None else product
    assert shown is not None

    if args.format == "json":
        doc = {
            "n": n,
            "subset": list(subset.members) if subset is not None else None,
            "method": method,
            "coeffs": shown.coeff_strings(),
            "degree": shown.degree,
            "euler": str(shown.evaluate_at_one()),
            "verdict": verdict,
        }
        _emit_json(args, doc)
    elif args.format == "csv":
        subset_field = ";".join(str(i) for i in subset.members) if subset is not None else "full"
        lines = [
            "n,subset,method,degree,euler,verdict,coeffs",
            ",".join(
                [
                    str(n),
                    subset_field,
                    method,
                    str(shown.degree),
                    str(shown.evaluate_at_one()),
                    verdict,
                    ";".join(shown.coeff_strings()),
                ]
            ),
        ]
        _emit(args, [line + "\n" for line in lines])
    else:
        lines = [f"n={n} subset={subset if subset is not None else 'full'}"]
        if product is not None:
            lines.append(f"product: {product}")
        if cells_poly is not None:
            lines.append(f"cells: {cells_poly}")
        lines.append(f"degree: {shown.degree}")
        lines.append(f"euler: {shown.evaluate_at_one()}")
        lines.append(f"verdict: {verdict}")
        _emit(args, [line + "\n" for line in lines])
    return EXIT_OK if verdict == "ok" else EXIT_CHECK_FAILED


# --- verify --------------------------------------------------------------------

def _i_items(special: bool):
    """A check's report items (label, I): one per I, or per special I when
    special, or the --subset I alone, refused here when special and it is
    not."""
    def items(n: int, subset):
        if subset is not None:
            if special:
                require_special(subset)
            return [(f"I={subset}", subset)]
        trusted = SimpleSubset._trusted
        if special:
            return (("I={" + label + "}", trusted(n, m, True)) for m, label, _ in _special_members(n))
        return (("I={" + label + "}", trusted(n, m, s)) for m, label, s in _lex_subsets(tuple(range(1, n))))
    return items


def _duality(i_set: SimpleSubset) -> bool:
    poly = poincare_sum(i_set)
    n = i_set.n
    return is_palindromic(poly) and poly.degree == n * (n - 1) // 2 + len(i_set)


def _euler(i_set: SimpleSubset) -> bool:
    size = len(i_set)
    count = sum(minimal_coset_rep_count(k) for k in i_set.subsets())
    return (
        product_formula(i_set).evaluate_at_one()
        == poincare_sum(i_set).evaluate_at_one()
        == count
    ) and count << size == math.factorial(i_set.n) * 3**size


def _fixed_quadrics(m: int) -> bool:
    space = fixed_quadric_space(m)
    e = regular_nilpotent(m)
    if any(any(map(any, infinitesimal_fixed_condition(e, b))) for b in space.basis):
        return False
    rows = fixed_system_rows(m)
    ncols = m * (m + 1) // 2
    forward = row_echelon_rank(rows)
    backward = row_echelon_rank(rows, column_order=range(ncols - 1, -1, -1))
    return forward == backward and space.dimension == ncols - forward


class Check(NamedTuple):
    """One verify check: the layers it runs, its report items (label,
    payload) for n and --subset, and its test of one payload. The tests
    look up each layer name on cli when called (the binding rule)."""

    layers: tuple[str, ...]
    items: Callable
    test: Callable


CHECKS = {
    "km": Check(("quadrics.cells",), _i_items(True), lambda i_set: verify_km(i_set)),
    "descent": Check(("quadrics.cells",), _i_items(True), lambda i_set: all(
        descent_characterization_check(k, i_set) for k in i_set.subsets())),
    "closed-form": Check(("quadrics.cells",), _i_items(True), lambda i_set: all(
        per_orbit_closed_form_check(k, i_set) for k in i_set.subsets())),
    "duality": Check(("quadrics.cells", "quadrics.qpoly"), _i_items(True), _duality),
    "euler": Check(("quadrics.cells", "quadrics.qpoly"), _i_items(True), _euler),
    "height": Check(("quadrics.qpoly",), lambda n, subset: [(f"n={n}", n)],
                    lambda n: height_identity_check(n)),
    "regularity": Check(("quadrics.nilfix",), _i_items(False), lambda i_set: (
        regularity_classifier(i_set).regular == i_set.is_special())),
    "fixed-quadrics": Check(("quadrics.nilfix",), lambda n, subset: (
        (f"m={m}", m) for m in range(1, n + 1)), _fixed_quadrics),
}
ALL_CHECKS = tuple(CHECKS)


def _verify_rows(reports, tally: list, head, tails, quote_commas: bool = False):
    """Each row of the report, head(check) + label + tails[ok], each item
    checked as the report reaches it and counted in tally[ok]; head(check)
    is formatted once per check, and tails is the format's (fail, pass)
    pair. With quote_commas a label that holds a comma is quoted, as CSV
    needs. No check name or label holds a quote or a line break (the tests
    pin this), so nothing else is escaped."""
    for check, items in reports:
        test, start = CHECKS[check].test, head(check)
        for label, payload in items:
            ok = test(payload)
            tally[ok] += 1
            if quote_commas and "," in label:
                label = '"' + label + '"'
            yield start + label + tails[ok]


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    if args.checks.strip().lower() == "all":
        checks = list(ALL_CHECKS)
    else:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not checks:
            raise ValueError(f"no checks given; choose from {', '.join(ALL_CHECKS)}")
        for c in checks:
            if c not in ALL_CHECKS:
                raise ValueError(f"unknown check {c!r}; choose from {', '.join(ALL_CHECKS)}")
            if checks.count(c) > 1:
                raise ValueError(f"check {c!r} given twice")
    if n < 1:
        raise ValueError("rank must be at least 1")
    subset = _parse_subset(args.subset, n) if args.subset is not None else None
    # listing the items refuses a --subset that a check needs special
    reports = [(check, CHECKS[check].items(n, subset)) for check in checks]
    _load_capped(args, *chain.from_iterable(CHECKS[c].layers for c in checks))
    tally = [0, 0]  # failures and passes, complete once the last row is out
    # each closing is formatted from the tally when the writer reaches it
    if args.format == "json":
        names = '",\n    "'.join(checks)
        report = _json_array(
            f'{{\n  "n": {n},\n  "checks": [\n    "{names}"\n  ],\n  "results": [\n',
            _verify_rows(reports, tally, ',\n    {{\n      "check": "{}",\n      "label": "'.format,
                         ('",\n      "ok": false\n    }', '",\n      "ok": true\n    }')),
            map(_verify_json_closing, [tally]),
        )
    elif args.format == "csv":
        report = chain(["check,label,ok\n"], _verify_rows(
            reports, tally, "{},".format, (",FAIL\n", ",pass\n"), quote_commas=True))
    else:
        report = chain(_verify_rows(reports, tally, "{} ".format, (": FAIL\n", ": pass\n")),
                       map("result: {0[1]} passed, {0[0]} failed\n".format, [tally]))
    _emit(args, report)
    return EXIT_OK if tally[False] == 0 else EXIT_CHECK_FAILED


def _verify_json_closing(tally: list) -> str:
    failed, passed = tally
    verdict = "fail" if failed else "ok"
    return f'\n  ],\n  "passed": {passed},\n  "failed": {failed},\n  "verdict": "{verdict}"\n}}\n'


# --- cells ---------------------------------------------------------------------

# Each report row is one concatenation made in `cells`: the writer's head
# for K, formatted once per K, the images as the W^K search joins them, and
# the writer's tail for (R, dim_X, dim_XI), formatted once per distinct tail
# in the listing. The JSON and CSV writers pass the rows on as they come.
def cmd_cells(args: argparse.Namespace) -> int:
    n = args.n
    subset = _parse_subset(args.subset, n) if args.subset is not None else None
    if subset is not None:
        require_special(subset)
    _load_capped(args, "quadrics.cells")

    def rows(separator, head, tail):
        if subset is None:
            return fixed_point_rows_full_variety(n, separator, head, tail)
        return fixed_point_rows(subset, separator, head, tail)

    if args.format == "json":
        _emit(args, _cells_json(n, subset, rows))
    elif args.format == "csv":
        _emit(args, _cells_csv(n, rows))
    else:
        _emit(args, _cells_text(n, rows))
    return EXIT_OK


def _cells_json(n: int, subset, rows):
    subset_field = "null" if subset is None else _json_ints(subset.members, "  ")
    opening = f'{{\n  "n": {n},\n  "subset": {subset_field},\n  "records": [\n'
    return _json_array(opening, rows(",\n        ", _json_head, _json_tail), ["\n  ]\n}\n"])


def _json_head(k: SimpleSubset) -> str:
    return f',\n    {{\n      "K": {_json_ints(k.members, "      ")},\n      "w": [\n        '


def _json_tail(r, dim_x: int, dim_xi) -> str:
    return (
        f'\n      ],\n      "R": {_json_ints(r, "      ")},\n'
        f'      "dim_X": {dim_x},\n'
        f'      "dim_XI": {"null" if dim_xi is None else dim_xi}\n'
        "    }"
    )


def _cells_csv(n: int, rows):
    return chain(["K,w,R,dim_X,dim_XI\n"], rows(one_line_separator(n), _csv_head, _csv_tail))


def _csv_head(k: SimpleSubset) -> str:
    return ";".join(map(str, k.members)) + ","


def _csv_tail(r, dim_x: int, dim_xi) -> str:
    return f",{';'.join(map(str, r))},{dim_x},{'' if dim_xi is None else dim_xi}\n"


def _cells_text(n: int, rows):
    count = 0
    for count, row in enumerate(rows(one_line_separator(n), _text_head, _text_tail), 1):
        yield row
    yield f"total: {count} fixed points\n"


def _text_head(k: SimpleSubset) -> str:
    return f"K={k} w="


def _text_tail(r, dim_x: int, dim_xi) -> str:
    xi_part = "" if dim_xi is None else f" dim_XI={dim_xi}"
    return f" R={subset_str(r)} dim_X={dim_x}{xi_part}\n"


# --- special ---------------------------------------------------------------------

def _all_digits(value: int) -> str:
    """str(value) with every digit. Past n = 20,500 the special count
    exceeds the interpreter's default 4,300-digit limit on int-to-str
    conversion, so the limit is lifted for this one conversion and then
    put back: the process, and any caller of main, keeps its own."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_special(args: argparse.Namespace) -> int:
    n = args.n
    count = special_count(n)  # refuses n < 1 before the first byte
    if args.count:
        digits = _all_digits(count)
        if args.format == "json":
            # as json.dumps(doc, indent=2) lays out {"n": n, "count": count}
            _emit(args, [f'{{\n  "n": {n},\n  "count": {digits}\n}}\n'])
        elif args.format == "csv":
            _emit(args, [f"count\n{digits}\n"])
        else:
            _emit(args, [f"{digits}\n"])
        return EXIT_OK
    # each format walks the subsets with its own separator, so every label
    # is one concatenation from its parent's (see _json_ints for the JSON)
    if args.format == "json":
        _emit(args, _json_array(
            f'{{\n  "n": {n},\n  "count": {count},\n  "subsets": [\n',
            (",\n    [\n      " + label + "\n    ]" if label else ",\n    []"
             for _, label, _ in _special_members(n, ",\n      ")),
            ["\n  ]\n}\n"],
        ))
    elif args.format == "csv":
        # the empty subset is one empty field, written "" as csv.writer does
        _emit(args, chain(["I\n"], ((label or '""') + "\n" for _, label, _ in _special_members(n, ";"))))
    else:
        _emit(args, ("{" + label + "}\n" for _, label, _ in _special_members(n)))
    return EXIT_OK


# --- fixed-quadrics -----------------------------------------------------------------

def _matrix_text(mat) -> str:
    """The rows of an int matrix in brackets, entries right-aligned to the
    widest one."""
    cells = [[str(x) for x in row] for row in mat]
    width = max(len(s) for row in cells for s in row)
    return "\n".join("[" + " ".join(s.rjust(width) for s in row) + "]" for row in cells)


def cmd_fixed_quadrics(args: argparse.Namespace) -> int:
    m = args.block
    if m < 1:
        raise ValueError("block size must be at least 1")
    _load("quadrics.nilfix")
    space = fixed_quadric_space(m)
    if args.format == "json":
        doc = {
            "block": m,
            "dimension": space.dimension,
            "nondegenerate": space.has_nondegenerate,
            "basis": [[[str(x) for x in row] for row in mat] for mat in space.basis],
        }
        _emit_json(args, doc)
    elif args.format == "csv":
        lines = [
            "block,dimension,nondegenerate",
            f"{m},{space.dimension},{'yes' if space.has_nondegenerate else 'no'}",
        ]
        _emit(args, [line + "\n" for line in lines])
    else:
        lines = [
            f"block size {m}: dimension {space.dimension}, "
            f"nondegenerate member: {'yes' if space.has_nondegenerate else 'no'}"
        ]
        for idx, mat in enumerate(space.basis):
            lines.append(f"basis[{idx}]:")
            lines.append(_matrix_text(mat))
        _emit(args, [line + "\n" for line in lines])
    return EXIT_OK


# --- entry point -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadrics",
        description="Exact Poincare polynomials and regularity checks for the "
        "variety of complete quadrics and its special subvarieties.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=FORMATS,
        default=None,
        help=f"output format (default: ${FORMAT_ENV_VAR} or text)",
    )
    common.add_argument("--out", metavar="PATH", help="write the report to a file")
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted and ignored: every command runs in one process",
    )
    common.add_argument(
        "--max-n",
        type=int,
        default=9,
        dest="max_n",
        help="cap on n for commands that run the cell layer: cells, poincare "
        "--method cells or both, verify km, descent, closed-form, duality, euler "
        "(default 9)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poincare", parents=[common], help="compute a Poincare polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--subset", help="comma-separated members, or none for the empty subset; omit for the full variety")
    p.add_argument("--method", choices=("product", "cells", "both"))
    p.set_defaults(func=cmd_poincare)

    v = sub.add_parser("verify", parents=[common], help="run identity and classification checks")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--subset", help="restrict per-subset checks to one subset")
    v.add_argument(
        "--checks",
        default="all",
        help="comma-separated list from: " + ", ".join(ALL_CHECKS) + " (default all)",
    )
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("cells", parents=[common], help="list torus fixed points and cell dimensions")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--subset", help="target subvariety; omit for the full variety")
    c.set_defaults(func=cmd_cells)

    s = sub.add_parser("special", parents=[common], help="list or count special subsets of [n-1]")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--count", action="store_true", help="print only the count")
    s.set_defaults(func=cmd_special)

    f = sub.add_parser(
        "fixed-quadrics",
        parents=[common],
        help="fixed-quadric space of one block size",
    )
    f.add_argument("--block", type=int, required=True)
    f.set_defaults(func=cmd_fixed_quadrics)

    return parser


def _loaded_arithmetic_errors() -> tuple[type[Exception], ...]:
    """InexactDivisionError when qpoly, the one layer that raises it, has
    been imported; main evaluates this only when an exception reaches it,
    so a command that never loaded qpoly does not load it to report one."""
    qpoly = sys.modules.get("quadrics.qpoly")
    return (qpoly.InexactDivisionError,) if qpoly is not None else ()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.format = _resolve_format(args)
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    # a reader that stopped early (`| head`) is not invalid input: end as a
    # process killed by SIGPIPE would, silently, with fd 1 on the null
    # device so the interpreter's last flush of stdout cannot fail
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141
    # ValueError covers the package's own input errors; OSError is e.g. an
    # unwritable --out: bad input, not a failed check
    except (ValueError, OSError, *_loaded_arithmetic_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def run(argv=None) -> int:
    """main(argv) as a whole process: its exit code, with the heap frozen
    however main ends, as the process will only exit after it."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
