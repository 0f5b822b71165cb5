import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quadrics.cli as cli

from quadrics.cells import (
    fixed_points,
    fixed_points_full_variety,
    poincare_full_variety,
    poincare_sum,
)
from quadrics.cli import ALL_CHECKS, main
from quadrics.parabolic import SimpleSubset, enumerate_special, special_count
from quadrics.qpoly import QPolynomial, product_formula

# stdout digests of the benchmark's unseeded commands
DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("QUADRICS_FORMAT", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "quadrics.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_poincare_both_methods_agree(capsys):
    code, out = run_main(capsys, "poincare", "--n", "3", "--subset", "1", "--method", "both")
    assert code == 0
    assert "product: 1 + 2q + 3q^2 + 2q^3 + q^4" in out
    assert "cells: 1 + 2q + 3q^2 + 2q^3 + q^4" in out
    assert "verdict: ok" in out


def test_poincare_full_variety(capsys):
    code, out = run_main(capsys, "poincare", "--n", "3", "--method", "cells")
    assert code == 0
    assert "cells: 1 + 2q + 3q^2 + 3q^3 + 2q^4 + q^5" in out


def test_cells_method_at_n7(capsys):
    code, out = run_main(capsys, "poincare", "--n", "7", "--method", "cells")
    assert code == 0
    assert f"cells: {poincare_full_variety(7)}\n" in out
    code, out = run_main(
        capsys, "poincare", "--n", "7", "--subset", "1,3,6", "--method", "cells"
    )
    assert code == 0
    assert f"cells: {poincare_sum(SimpleSubset(7, (1, 3, 6)))}\n" in out


def test_poincare_empty_subset_spelled_none(capsys):
    code, out = run_main(capsys, "poincare", "--n", "3", "--subset", "none")
    assert code == 0
    assert "1 + 2q + 2q^2 + q^3" in out


def test_poincare_rejects_non_special_subset():
    code, out, err = run_cli("poincare", "--n", "3", "--subset", "1,2")
    assert code == 2
    assert "consecutive" in err


def test_poincare_product_method_needs_subset():
    code, out, err = run_cli("poincare", "--n", "3", "--method", "product")
    assert code == 2


def test_cap_exceeded_and_override():
    code, out, err = run_cli("poincare", "--n", "10")
    assert code == 3
    assert "max-n" in err or "max_n" in err
    # the cap is stated by its one rule; the census behind poincare enumerates nothing
    assert "exceeds --max-n 9, the cap on commands that run the cell layer" in err
    assert "pass --max-n 10" in err
    assert "enumeration" not in err
    code, out, err = run_cli("poincare", "--n", "10", "--method", "product", "--subset", "none")
    assert code == 0  # closed form does not enumerate S_n


@pytest.mark.parametrize("subset, named", [("1,x", "'1,x'"), ("1,2", "{1,2}")], ids=["unparsed", "not-special"])
@pytest.mark.parametrize(
    "command", [("poincare",), ("cells",), ("verify", "--checks", "km")], ids=["poincare", "cells", "verify"]
)
def test_invalid_subset_above_the_cap_is_invalid_input(command, subset, named, capsys):
    # the subset is checked before the cap, so bad input exits 2 at any n
    code = main([*command, "--n", "12", "--subset", subset])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert named in captured.err
    # a valid subset at the same n still meets the cap
    assert main([*command, "--n", "12", "--subset", "1,3"]) == 3
    assert "--max-n 12" in capsys.readouterr().err


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_a_check_meets_the_cap_exactly_when_it_runs_the_cell_layer(check, capsys):
    runs_cells = check in ("km", "descent", "closed-form", "duality", "euler")
    assert ("quadrics.cells" in cli.CHECKS[check].layers) == runs_cells
    assert run_main(capsys, "verify", "--n", "10", "--checks", check)[0] == (3 if runs_cells else 0)
    # those checks alone take a special I, so they alone refuse a --subset that is not
    code = run_main(capsys, "verify", "--n", "5", "--checks", check, "--subset", "1,2")[0]
    assert code == (2 if runs_cells else 0)


SUBCOMMANDS = ("poincare", "verify", "cells", "special", "fixed-quadrics")


@st.composite
def small_invocations(draw):
    """(argv, n, max_n) for one subcommand with n <= 6, so that no draw
    walks more than S_6."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    n = draw(st.integers(-1, 6))
    max_n = draw(st.integers(0, 6))
    argv = [command, "--block" if command == "fixed-quadrics" else "--n", str(n)]
    argv += ["--max-n", str(max_n)]
    if command in ("poincare", "verify", "cells"):
        subset = draw(st.sampled_from([None, "none", "", "1", "1,2", "1,3", "0", "x"]))
        if subset is not None:
            argv += ["--subset", subset]
    if command == "poincare":
        method = draw(st.sampled_from([None, "product", "cells", "both"]))
        if method is not None:
            argv += ["--method", method]
    elif command == "verify":
        checks = draw(st.lists(st.sampled_from(ALL_CHECKS), min_size=1, max_size=3, unique=True))
        argv += ["--checks", ",".join(checks)]
    elif command == "special" and draw(st.booleans()):
        argv.append("--count")
    argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    return argv, n, max_n


@settings(max_examples=150, deadline=None)
@given(small_invocations())
def test_every_subcommand_exits_with_a_documented_code(invocation):
    argv, n, max_n = invocation
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    # the cap is the only source of exit 3
    assert code != 3 or n > max_n, argv


def test_poincare_json_round_trip(capsys):
    code, out = run_main(
        capsys, "poincare", "--n", "4", "--subset", "1,3", "--method", "both",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["subset"] == [1, 3]
    recomputed = product_formula(SimpleSubset(4, (1, 3)))
    assert [int(s) for s in doc["coeffs"]] == list(recomputed.coeffs)
    assert doc["degree"] == recomputed.degree
    assert int(doc["euler"]) == recomputed.evaluate_at_one()
    assert doc["verdict"] == "ok"
    parsed = QPolynomial([int(s) for s in doc["coeffs"]])
    assert ("ok" if parsed == recomputed else "mismatch") == doc["verdict"]


def test_verify_km(capsys):
    code, out = run_main(capsys, "verify", "--n", "4", "--checks", "km")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "result: 5 passed, 0 failed"
    assert lines[0] == "km I={}: pass"


def test_verify_regularity_covers_all_subsets(capsys):
    code, out = run_main(capsys, "verify", "--n", "6", "--checks", "regularity")
    assert code == 0
    assert "result: 32 passed, 0 failed" in out


def test_verify_height_is_not_capped(capsys):
    code, out = run_main(capsys, "verify", "--n", "10", "--checks", "height")
    assert code == 0
    assert "height n=10: pass" in out


def test_verify_unknown_check():
    code, out, err = run_cli("verify", "--n", "4", "--checks", "nonsense")
    assert code == 2


def test_verify_refuses_a_check_given_twice(capsys):
    for checks in ("km,km", "height, km,height"):
        code = main(["verify", "--n", "2", "--checks", checks])
        captured = capsys.readouterr()
        assert code == 2, checks
        assert captured.out == ""
        assert captured.err == f"error: check {checks.split(',')[0].strip()!r} given twice\n"


def test_verify_csv_rows_parse_into_check_label_ok(capsys):
    # labels such as I={1,3} hold commas and are quoted
    for n in (4, 7):
        code, out = run_main(capsys, "verify", "--n", str(n), "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["check", "label", "ok"]
        assert len(rows) == len(out.splitlines()) - 1
        assert all(len(row) == 3 and row[2] == "pass" for row in rows), rows
        assert ["km", "I={1,3}", "pass"] in rows


@pytest.mark.parametrize("spelling", [",", " "])
def test_verify_empty_check_list_is_invalid_input(spelling, capsys):
    code = main(["verify", "--n", "4", "--checks", spelling])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: no checks given; choose from km, ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("n", ["0", "-2"])
@pytest.mark.parametrize("check", ALL_CHECKS)
def test_verify_rejects_rank_below_one(check, n, capsys):
    code = main(["verify", "--n", n, "--checks", check, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: rank must be at least 1\n"


@pytest.mark.parametrize("n", ["0", "-2"])
@pytest.mark.parametrize("command", ["poincare", "cells"])
def test_subset_commands_reject_rank_below_one_in_the_same_words(command, n, capsys):
    # the subset is parsed against n, so the rank check there must read
    # as it does on every other path
    code = main([command, "--n", n, "--subset", "none"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: rank must be at least 1\n"


def test_verify_regularity_of_a_large_special_subset(capsys):
    # 1,200 members: the witness search must neither list subsets nor
    # recurse once per member
    members = ",".join(str(i) for i in range(1, 2400, 2))
    code, out = run_main(capsys, "verify", "--n", "2401", "--subset", members, "--checks", "regularity")
    assert code == 0
    assert out.endswith(": pass\nresult: 1 passed, 0 failed\n")


def test_verify_all_checks_small(capsys):
    code, out = run_main(capsys, "verify", "--n", "3")
    assert code == 0
    assert ", 0 failed" in out


def test_cells_listing_csv(capsys):
    code, out = run_main(
        capsys, "cells", "--n", "3", "--subset", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "K,w,R,dim_X,dim_XI"
    rows = lines[1:]
    assert len(rows) == 9
    dims = sorted(int(row.split(",")[4]) for row in rows)
    assert dims == [0, 1, 1, 2, 2, 2, 3, 3, 4]
    assert rows[0] == ",123,,0,0"


def cells_report_oracle(n, subset, fmt):
    """The `cells` report as the list-building formatter wrote it before
    the listing streamed: every record, one dict per record, the whole
    document and its string held at once."""
    records = fixed_points(subset) if subset is not None else fixed_points_full_variety(n)
    if fmt == "json":
        doc = {
            "n": n,
            "subset": list(subset.members) if subset is not None else None,
            "records": [
                {
                    "K": list(rec.k.members),
                    "w": list(rec.w.images),
                    "R": list(rec.r),
                    "dim_X": rec.dim_x,
                    "dim_XI": rec.dim_xi,
                }
                for rec in records
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        lines = ["K,w,R,dim_X,dim_XI"]
        for rec in records:
            k_field = ";".join(str(i) for i in rec.k.members)
            r_field = ";".join(str(i) for i in rec.r)
            xi_field = "" if rec.dim_xi is None else str(rec.dim_xi)
            lines.append(f"{k_field},{rec.w},{r_field},{rec.dim_x},{xi_field}")
        return "\n".join(lines) + "\n"
    lines = []
    for rec in records:
        parts = [
            f"K={rec.k}",
            f"w={rec.w}",
            "R={" + ",".join(str(i) for i in rec.r) + "}",
            f"dim_X={rec.dim_x}",
        ]
        if rec.dim_xi is not None:
            parts.append(f"dim_XI={rec.dim_xi}")
        lines.append(" ".join(parts))
    lines.append(f"total: {len(records)} fixed points")
    return "\n".join(lines) + "\n"


def assert_cells_reports_match_oracle(fmt, tmp_path, capsys):
    """stdout and --out of every `cells` listing with n <= 6, the full
    variety and every special I, against cells_report_oracle."""
    for n in range(1, 7):
        for subset in [None, *enumerate_special(n)]:
            argv = ["cells", "--n", str(n), "--format", fmt]
            if subset is not None:
                argv += ["--subset", ",".join(map(str, subset.members)) or "none"]
            expected = cells_report_oracle(n, subset, fmt)
            assert run_main(capsys, *argv) == (0, expected), argv
            target = tmp_path / "report"
            assert run_main(capsys, *argv, "--out", str(target)) == (0, ""), argv
            assert target.read_text() == expected, argv


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_streamed_cells_report_matches_list_formatter(fmt, tmp_path, capsys):
    assert_cells_reports_match_oracle(fmt, tmp_path, capsys)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("chunk", [1, 7])
def test_cells_report_across_chunk_boundaries(chunk, fmt, tmp_path, capsys, monkeypatch):
    # one record per write, and chunks that end inside a K, across K
    # boundaries and with the header or the closing line
    monkeypatch.setattr(cli, "CHUNK_RECORDS", chunk)
    assert_cells_reports_match_oracle(fmt, tmp_path, capsys)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cells_n7_matches_the_benchmark_digest(fmt):
    digests = json.loads(DIGESTS.read_text())
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        assert main(["cells", "--n", "7", "--format", fmt]) == 0
    digest = hashlib.sha256(sink.getvalue().encode()).hexdigest()
    assert digest == digests[f"cells --n 7 --format {fmt}"]


def special_report_oracle(n, fmt, count_only):
    """The `special` report as the list-building formatter wrote it before
    the listing streamed, every subset held at once. Each report but the
    csv ends in one added newline; the csv is written by csv.writer, which
    writes the empty subset's one empty field as ""."""
    if count_only:
        count = special_count(n)
        if fmt == "json":
            return json.dumps({"n": n, "count": count}, indent=2) + "\n"
        return f"count\n{count}\n" if fmt == "csv" else f"{count}\n"
    subsets = enumerate_special(n)
    if fmt == "json":
        doc = {"n": n, "count": len(subsets), "subsets": [list(s.members) for s in subsets]}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        sink = io.StringIO()
        rows = [["I"]] + [[";".join(str(i) for i in s.members)] for s in subsets]
        csv.writer(sink, lineterminator="\n").writerows(rows)
        return sink.getvalue()
    return "\n".join(str(s) for s in subsets) + "\n"


def verify_report_oracle(n, checks, subset, fmt):
    """The `verify` report as the list-building formatter wrote it before
    the report streamed: the item list, the result list and the whole
    document held at once."""
    items = []
    for check in checks:
        if check == "height":
            items.append((check, n, f"n={n}"))
        elif check == "fixed-quadrics":
            items += [(check, m, f"m={m}") for m in range(1, n + 1)]
        else:
            if subset is not None:
                universe = [subset]
            elif check == "regularity":
                universe = list(SimpleSubset(n, range(1, n)).subsets())
            else:
                universe = enumerate_special(n)
            items += [(check, i_set, f"I={i_set}") for i_set in universe]
    for check in checks:
        cli._load(*cli.CHECKS[check].layers)
    results = [cli.CHECKS[check].test(payload) for check, payload, _ in items]
    passed = sum(1 for ok in results if ok)
    failed = len(results) - passed
    if fmt == "json":
        doc = {
            "n": n,
            "checks": checks,
            "results": [
                {"check": item[0], "label": item[2], "ok": ok}
                for item, ok in zip(items, results)
            ],
            "passed": passed,
            "failed": failed,
            "verdict": "ok" if failed == 0 else "fail",
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["check", "label", "ok"])
        for item, ok in zip(items, results):
            writer.writerow([item[0], item[2], "pass" if ok else "FAIL"])
        return out.getvalue()
    lines = [
        f"{item[0]} {item[2]}: {'pass' if ok else 'FAIL'}"
        for item, ok in zip(items, results)
    ]
    lines.append(f"result: {passed} passed, {failed} failed")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def verify_results():
    """Each check's result per (check, payload), shared by the whole test run."""
    return {}


@pytest.fixture
def remembered_checks(verify_results, monkeypatch):
    """Each cli.CHECKS test answering from verify_results, so the report
    comparisons below run each check once, not once per format, chunk size
    and output target."""
    for check, entry in cli.CHECKS.items():

        def remembered(payload, check=check, real=entry.test):
            if (check, payload) not in verify_results:
                verify_results[check, payload] = real(payload)
            return verify_results[check, payload]

        monkeypatch.setitem(cli.CHECKS, check, entry._replace(test=remembered))


def special_and_verify_runs(fmt):
    """(argv, expected report) for every `special` and `verify` report
    compared with the oracles: each n <= 7, with and without --count, every
    check alone and all of them, and --subset runs."""
    for n in range(1, 8):
        for count_only in (False, True):
            argv = ["special", "--n", str(n), "--format", fmt] + ["--count"] * count_only
            yield argv, special_report_oracle(n, fmt, count_only)
        runs = [(check, None) for check in ("all", *ALL_CHECKS)]
        runs += [("all", "none"), ("all", ",".join(map(str, range(1, n, 2))) or "none")]
        if n >= 3:
            runs.append(("regularity,height", "1,2"))
        for checks, members in runs:
            argv = ["verify", "--n", str(n), "--checks", checks, "--format", fmt]
            subset = None
            if members is not None:
                argv += ["--subset", members]
                subset = SimpleSubset(n, () if members == "none" else map(int, members.split(",")))
            names = list(ALL_CHECKS) if checks == "all" else checks.split(",")
            yield argv, verify_report_oracle(n, names, subset, fmt)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_streamed_special_and_verify_reports_match_list_formatter(
    chunk, fmt, tmp_path, capsys, monkeypatch, remembered_checks
):
    if chunk is not None:
        monkeypatch.setattr(cli, "CHUNK_RECORDS", chunk)
    target = tmp_path / "report"
    for argv, expected in special_and_verify_runs(fmt):
        assert run_main(capsys, *argv) == (0, expected), argv
        assert run_main(capsys, *argv, "--out", str(target)) == (0, ""), argv
        assert target.read_text() == expected, argv


def test_special_csv_keeps_the_row_of_the_empty_subset(capsys):
    # n = 1 has one special subset, the empty one: one empty field under the
    # header, which a blank line would not be
    assert run_main(capsys, "special", "--n", "1", "--format", "csv") == (0, 'I\n""\n')
    for n in range(1, 8):
        out = run_main(capsys, "special", "--n", str(n), "--format", "csv")[1]
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == special_count(n), n
        assert rows[0] == {"I": ""}


# sha256 of the reports for n = 1..top, concatenated in order, as the
# formatters wrote them before each label was built along the walk; the
# special csv digest is of the report with the empty subset's row blank
LABELLED_WALK_DIGESTS = {
    ("verify", "text"): "ae01dce6bf52e956ec3d6c03743d49a71a54b7717446b2aa656be779a0183cea",
    ("verify", "csv"): "c1869d074abbfbe529a89f0fec629cf85f188d3ffa26bed85aae08c6577d3027",
    ("verify", "json"): "ec4f1076331d14dbc3716c1a39473abb3e2037354d90943deb8dcce8c2fd2e87",
    ("special", "text"): "51b4b8a1754f5c0f6f49d328cf6178675d8e0b233c32dac3e74990b8de1acbe5",
    ("special", "csv"): "9fbaab08f0f943311cfc13f22f964e088bea3a1584034dd53c3030cb47c4b2a9",
    ("special", "json"): "30e7ca21d5f07a7665731cd43956330ee8fe21791b55b2e908830698e199aeb4",
}


@pytest.mark.parametrize("command, fmt", sorted(LABELLED_WALK_DIGESTS))
def test_labelled_walk_keeps_the_reports(command, fmt, capsys):
    top, argv = (16, ["verify", "--checks", "regularity"]) if command == "verify" else (20, ["special"])
    digest = hashlib.sha256()
    for n in range(1, top + 1):
        code, out = run_main(capsys, *argv, "--n", str(n), "--format", fmt)
        assert code == 0, n
        if (command, fmt) == ("special", "csv"):
            assert out.startswith('I\n""\n'), n
            out = "I\n\n" + out[len('I\n""\n'):]
        digest.update(out.encode())
    assert digest.hexdigest() == LABELLED_WALK_DIGESTS[command, fmt]


def test_regularity_classifies_each_subset_once(monkeypatch, capsys):
    original = cli.regularity_classifier
    calls = []

    def counted(i_set):
        calls.append(i_set.members)
        return original(i_set)

    monkeypatch.setattr(cli, "regularity_classifier", counted)
    for n in range(1, 11):
        calls.clear()
        assert run_main(capsys, "verify", "--n", str(n), "--checks", "regularity")[0] == 0
        assert len(calls) == len(set(calls)) == 2 ** (n - 1), n


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (("cells", "--n", "0"), 2),
        (("cells", "--n", "10"), 3),
        (("cells", "--n", "5", "--subset", "1,x"), 2),
        (("cells", "--n", "5", "--subset", "1,2"), 2),
        (("special", "--n", "0"), 2),
        (("verify", "--n", "0"), 2),
        (("verify", "--n", "5", "--checks", "nope"), 2),
        (("verify", "--n", "5", "--subset", "1,x"), 2),
        (("verify", "--n", "5", "--subset", "1,2", "--checks", "km"), 2),
        (("verify", "--n", "10", "--checks", "descent"), 3),
    ],
)
def test_cells_input_errors_write_nothing(argv, code, fmt, tmp_path, capsys):
    # and those of the other streamed reports, special and verify
    target = tmp_path / "report"
    for out in ((), ("--out", str(target))):
        assert main([*argv, "--format", fmt, *out]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not target.exists()


class CountingSink(io.TextIOBase):
    """A stdout that keeps only the size and the tail of what it is sent."""

    def __init__(self):
        self.chars = 0
        self.tail = ""

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        self.tail = (self.tail + text)[-64:]
        return len(text)


def run_counted(monkeypatch, *argv):
    """The exit code, the CountingSink stdout and the peak traced memory
    of one command."""
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, sink, peak


def test_streamed_cells_json_holds_no_listing(monkeypatch):
    # 35,280 records; building the document peaked near 100 MB
    code, sink, peak = run_counted(monkeypatch, "cells", "--n", "7", "--format", "json")
    assert code == 0
    assert sink.tail.endswith('"dim_XI": null\n    }\n  ]\n}\n')
    assert sink.chars > 35280 * 100
    assert peak < 2_000_000


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_streamed_cells_csv_and_text_hold_no_listing(fmt, monkeypatch):
    tail = {"csv": "6,7654312,1;2;3;4;5,26,\n", "text": "total: 35280 fixed points\n"}[fmt]
    code, sink, peak = run_counted(monkeypatch, "cells", "--n", "7", "--format", fmt)
    assert code == 0
    assert sink.tail.endswith(tail)
    assert sink.chars > 35280 * 15
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "argv, tail, floor",
    [
        # 28,657 subsets; building the document peaked near 24.5 MB
        (
            ("special", "--n", "22", "--format", "json"),
            "    [\n      21\n    ]\n  ]\n}\n",
            28657 * 65,
        ),
        # 32,768 results; building the report peaked near 14.2 MB
        (
            ("verify", "--n", "16", "--checks", "regularity"),
            "regularity I={15}: pass\nresult: 32768 passed, 0 failed\n",
            32768 * 35,
        ),
        # 233 results over 2,731 (K, I) censuses; caching every census
        # peaked near 11.8 MB
        (
            ("verify", "--n", "12", "--max-n", "12", "--checks", "closed-form"),
            "closed-form I={11}: pass\nresult: 233 passed, 0 failed\n",
            233 * 22,
        ),
        # the 40,320 reps of K = {}; holding them as a list peaked near 13.6 MB
        (
            ("verify", "--n", "8", "--checks", "descent", "--subset", "none"),
            "descent I={}: pass\nresult: 1 passed, 0 failed\n",
            40,
        ),
    ],
    ids=["special", "verify", "verify-closed-form", "verify-descent"],
)
def test_streamed_special_and_verify_hold_no_report(argv, tail, floor, monkeypatch):
    code, sink, peak = run_counted(monkeypatch, *argv)
    assert code == 0
    assert sink.tail.endswith(tail)
    assert sink.chars > floor
    assert peak < 2_000_000


def test_cells_full_variety(capsys):
    code, out = run_main(capsys, "cells", "--n", "2")
    assert code == 0
    assert "total: 3 fixed points" in out


def test_special_listing_and_count(capsys):
    code, out = run_main(capsys, "special", "--n", "8", "--count")
    assert code == 0
    assert out.strip() == "34"
    code, out = run_main(capsys, "special", "--n", "8", "--count", "--format", "csv")
    assert code == 0
    assert out == "count\n34\n"
    code, out = run_main(capsys, "special", "--n", "8", "--count", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 8, "count": 34}
    code, out = run_main(capsys, "special", "--n", "4")
    assert code == 0
    assert out.strip().splitlines() == ["{}", "{1}", "{1,3}", "{2}", "{3}"]


def test_special_count_does_not_list(capsys):
    # Fibonacci-many subsets: listing them at n = 200 would never finish
    code, out = run_main(capsys, "special", "--n", "200", "--count")
    assert code == 0
    assert out == "453973694165307953197296969697410619233826\n"  # F(201)


@pytest.fixture
def int_digit_limit():
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    saved = get_limit() if get_limit else None
    yield
    if saved is not None:
        sys.set_int_max_str_digits(saved)


def test_special_count_prints_every_digit(capsys, int_digit_limit):
    # 4,389 digits: past the interpreter's default int-to-str limit of 4,300
    expected = special_count(21000)
    code, out = run_main(capsys, "special", "--n", "21000", "--count")
    assert code == 0
    assert len(out) == 4389 + 1
    assert int(out) == expected
    code, out = run_main(capsys, "special", "--n", "21000", "--count", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["count", str(expected)]
    code, out = run_main(capsys, "special", "--n", "21000", "--count", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 21000, "count": expected}


def test_fixed_quadrics_block_two(capsys):
    code, out = run_main(capsys, "fixed-quadrics", "--block", "2")
    assert code == 0
    assert "dimension 1" in out
    assert "nondegenerate member: no" in out
    assert "[0 0]" in out and "[0 1]" in out


def test_fixed_quadrics_json(capsys):
    code, out = run_main(capsys, "fixed-quadrics", "--block", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 2
    assert doc["nondegenerate"] is True
    assert doc["basis"][0] == [["0", "0", "1"], ["0", "-1", "0"], ["1", "0", "0"]]


def test_fixed_quadrics_blocks_past_the_old_grid_sweep(capsys):
    code, out = run_main(capsys, "fixed-quadrics", "--block", "10")
    assert code == 0
    assert "dimension 5, nondegenerate member: no" in out
    code, out = run_main(capsys, "fixed-quadrics", "--block", "11")
    assert code == 0
    assert "dimension 6, nondegenerate member: yes" in out


def test_fixed_quadrics_reports_keep_their_bytes(capsys):
    # recorded from the reports of the Fraction-entry matrices, whose text
    # block was str(RationalMatrix)
    out = []
    for m in (1, 2, 3, 5, 9, 12):
        for fmt in ("text", "json", "csv"):
            code, text = run_main(capsys, "fixed-quadrics", "--block", str(m), "--format", fmt)
            assert code == 0
            out.append(text)
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "9eb591a3fe3179225aabf8ae6d85932eafc6d1e42f655065abef7c1f88381ff1"


def test_format_environment_variable():
    code, out, err = run_cli(
        "special", "--n", "4", "--count", env_extra={"QUADRICS_FORMAT": "json"}
    )
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_invalid_format_environment_variable():
    code, out, err = run_cli(
        "special", "--n", "3", "--count", env_extra={"QUADRICS_FORMAT": "yaml"}
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "QUADRICS_FORMAT" in err
    assert len(err.splitlines()) == 1


def test_out_to_missing_directory_is_invalid_input(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code = main(["special", "--n", "3", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert not target.exists()


def test_closed_stdout_pipe_exits_141_silently():
    # `special --n 26 | head -1`: the report is megabytes, so the writer
    # meets the closed pipe; a reader that stopped early is not bad input
    env = dict(os.environ)
    env.pop("QUADRICS_FORMAT", None)
    child = subprocess.Popen(
        [sys.executable, "-m", "quadrics.cli", "special", "--n", "26"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline() == b"{}\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 141
    assert err == b""


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_main(
        capsys, "special", "--n", "5", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["count"] == 8


def test_output_is_deterministic_across_jobs():
    base = run_cli("verify", "--n", "5", "--checks", "km,descent,duality")
    fanned = run_cli(
        "verify", "--n", "5", "--checks", "km,descent,duality", "--jobs", "8"
    )
    assert base[0] == fanned[0] == 0
    assert base[1] == fanned[1]


def test_descent_check_deterministic_across_jobs():
    base = run_cli("verify", "--n", "6", "--checks", "descent", "--jobs", "1")
    fanned = run_cli("verify", "--n", "6", "--checks", "descent", "--jobs", "2")
    assert base[0] == fanned[0] == 0
    assert base[1] == fanned[1]


def test_poincare_deterministic_across_jobs():
    base = run_cli("poincare", "--n", "6", "--subset", "1,3,5", "--format", "json")
    fanned = run_cli(
        "poincare", "--n", "6", "--subset", "1,3,5", "--format", "json", "--jobs", "4"
    )
    assert base[0] == fanned[0] == 0
    assert base[1] == fanned[1]


def test_no_command_starts_a_process(monkeypatch, capsys):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a command started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for argv, jobs in (
        (("verify", "--n", "5", "--checks", "km,descent,duality"), "8"),
        (("poincare", "--n", "6"), "4"),
        (("poincare", "--n", "6", "--subset", "1,3,5", "--method", "cells"), "4"),
    ):
        serial = run_main(capsys, *argv, "--jobs", "1")
        fanned = run_main(capsys, *argv, "--jobs", jobs)
        assert serial[0] == fanned[0] == 0
        assert serial[1] == fanned[1]


def test_verify_failure_exit_code_is_one(monkeypatch, capsys):
    import quadrics.cli as cli_mod

    monkeypatch.setitem(cli_mod.CHECKS, "km", cli_mod.CHECKS["km"]._replace(test=lambda i_set: False))
    code = cli_mod.main(["verify", "--n", "3", "--checks", "km", "--jobs", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_euler_check_fails_on_a_miscounted_coset_rep_set(monkeypatch, capsys):
    count = cli.minimal_coset_rep_count

    def miscounted(k):
        return count(k) + (k.members == (3,))

    monkeypatch.setattr(cli, "minimal_coset_rep_count", miscounted)
    code, out = run_main(capsys, "verify", "--n", "4", "--checks", "euler")
    assert code == 1
    # only the I containing K = {3} sum the miscount
    assert [line for line in out.splitlines() if line.endswith("FAIL")] == [
        "euler I={1,3}: FAIL",
        "euler I={3}: FAIL",
    ]


def fixed_quadrics_report(capsys):
    code, out = run_main(capsys, "verify", "--n", "4", "--checks", "fixed-quadrics")
    return code, out.splitlines()


def test_fixed_quadrics_check_fails_on_a_basis_matrix_that_is_not_fixed(monkeypatch, capsys):
    from quadrics import nilfix

    def not_fixed(m):
        space = nilfix.fixed_quadric_space(m)
        if m != 3:
            return space
        # symmetric, but e^T I + I e = e^T + e is not zero
        identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        return space._replace(basis=(identity,) + space.basis[1:])

    monkeypatch.setattr(cli, "fixed_quadric_space", not_fixed)
    code, lines = fixed_quadrics_report(capsys)
    assert code == 1
    assert "fixed-quadrics m=3: FAIL" in lines
    assert lines[-1] == "result: 3 passed, 1 failed"


def test_fixed_quadrics_check_fails_on_a_dropped_basis_vector(monkeypatch, capsys):
    from quadrics import nilfix

    def dropped(m):
        space = nilfix.fixed_quadric_space(m)
        return space._replace(basis=space.basis[:-1]) if m == 3 else space

    monkeypatch.setattr(cli, "fixed_quadric_space", dropped)
    code, lines = fixed_quadrics_report(capsys)
    assert code == 1
    assert "fixed-quadrics m=3: FAIL" in lines
    assert lines[-1] == "result: 3 passed, 1 failed"


@pytest.mark.parametrize("reversed_only", [False, True])
def test_fixed_quadrics_check_fails_on_a_rank_off_in_one_column_order(reversed_only, monkeypatch, capsys):
    from quadrics import nilfix

    def off_by_one(rows, column_order=None):
        rank = nilfix.row_echelon_rank(rows, column_order=column_order)
        return rank + 1 if (column_order is not None) == reversed_only else rank

    monkeypatch.setattr(cli, "row_echelon_rank", off_by_one)
    code, lines = fixed_quadrics_report(capsys)
    assert code == 1
    assert lines == [f"fixed-quadrics m={m}: FAIL" for m in range(1, 5)] + ["result: 0 passed, 4 failed"]


def test_regularity_items_are_listed_without_building_subsets(monkeypatch, capsys):
    expected = [str(k) for k in SimpleSubset(6, range(1, 6)).subsets()]

    def refuse(self):
        raise AssertionError("the regularity items were listed through SimpleSubset.subsets")

    monkeypatch.setattr(SimpleSubset, "subsets", refuse)
    code, out = run_main(capsys, "verify", "--n", "6", "--checks", "regularity")
    assert code == 0
    lines = out.splitlines()
    assert lines[:-1] == [f"regularity I={label}: pass" for label in expected]
    assert lines[-1] == "result: 32 passed, 0 failed"


@pytest.mark.parametrize(
    "argv",
    [
        ("special", "--n", "0"),
        ("fixed-quadrics", "--block", "0"),
        ("cells", "--n", "3", "--subset", "1,2"),
        ("poincare", "--n", "4", "--subset", "1,2", "--method", "product"),
        ("verify", "--n", "3", "--checks", "nope"),
    ],
    ids=lambda argv: argv[0],
)
def test_invalid_input_exits_two_in_a_fresh_process(argv):
    # each command reports bad input before, or without, loading the layers
    # that other commands run
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


def test_inexact_division_is_invalid_input(monkeypatch, capsys):
    from quadrics.qpoly import InexactDivisionError

    def inexact(subset):
        raise InexactDivisionError("remainder 1")

    monkeypatch.setattr(cli, "product_formula", inexact)
    code = main(["poincare", "--n", "3", "--subset", "1", "--method", "product"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: remainder 1\n"


def test_a_height_step_with_a_remainder_is_a_failed_check(monkeypatch, capsys):
    # unlike product_formula, the height check reads a remainder as the
    # identity failing: exit 1, not invalid input
    from quadrics import qpoly
    from quadrics.qpoly import InexactDivisionError, height_identity_check

    over = qpoly._over_one_minus_q_pow

    def inexact(coeffs, k):
        if k == 2:
            raise InexactDivisionError(f"not a multiple of 1 - q^{k}")
        return over(coeffs, k)

    monkeypatch.setattr(qpoly, "_over_one_minus_q_pow", inexact)
    assert height_identity_check(5) is False
    code, out = run_main(capsys, "verify", "--n", "5", "--checks", "height")
    assert code == 1
    assert "height n=5: FAIL\n" in out


# A name the benchmark tracer wraps on cli, with a small command calling it.
TRACED_NAMES = {
    "poincare_sum": ("poincare", "--n", "3", "--subset", "1"),
    "product_formula": ("poincare", "--n", "3", "--subset", "1", "--method", "product"),
    "descent_characterization_check": ("verify", "--n", "3", "--checks", "descent"),
    "minimal_coset_rep_count": ("verify", "--n", "3", "--checks", "euler"),
    "height_identity_check": ("verify", "--n", "3", "--checks", "height"),
    "row_echelon_rank": ("verify", "--n", "2", "--checks", "fixed-quadrics"),
    "fixed_quadric_space": ("fixed-quadrics", "--block", "2"),
    "regularity_classifier": ("verify", "--n", "3", "--checks", "regularity"),
}


def forget_lazy_bindings(monkeypatch):
    """Unbind every layer name cli binds on first use, as in a fresh process."""
    for names in cli._LAYERS.values():
        for name in names:
            monkeypatch.delitem(vars(cli), name, raising=False)


@pytest.mark.parametrize("name", sorted(TRACED_NAMES))
def test_a_name_set_on_cli_is_the_one_called(name, monkeypatch, capsys):
    argv = TRACED_NAMES[name]
    expected = run_main(capsys, *argv)
    forget_lazy_bindings(monkeypatch)
    original = getattr(cli, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    assert run_main(capsys, *argv) == expected
    assert calls


@pytest.mark.parametrize(
    "name",
    ["per_orbit_sum", "full_variety_orbit_sum", "fixed_points", "fixed_points_full_variety"],
)
def test_tracer_only_names_resolve_on_cli(name, monkeypatch):
    import quadrics.cells as cells

    forget_lazy_bindings(monkeypatch)
    assert getattr(cli, name) is getattr(cells, name)


def test_unknown_cli_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
