import json
import os
import subprocess
import sys

from quadrics.cli import main
from quadrics.parabolic import SimpleSubset
from quadrics.qpoly import QPolynomial, product_formula


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
    code, out, err = run_cli("poincare", "--n", "10", "--method", "product", "--subset", "none")
    assert code == 0  # closed form does not enumerate S_n


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


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_main(
        capsys, "special", "--n", "5", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["count"] == 8


def test_worker_count_is_clamped(monkeypatch):
    import quadrics.cli as cli_mod

    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 2)
    assert cli_mod._worker_count(8, 100) == 2
    assert cli_mod._worker_count(8, 1) == 1
    assert cli_mod._worker_count(1, 100) == 1
    assert cli_mod._worker_count(0, 100) == 1
    assert cli_mod._worker_count(-3, 100) == 1
    assert cli_mod._worker_count(4, 0) == 1
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 16)
    assert cli_mod._worker_count(8, 100) == 8
    assert cli_mod._worker_count(8, 3) == 3
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: None)
    assert cli_mod._worker_count(8, 100) == 1


def test_output_is_deterministic_across_jobs():
    base = run_cli("verify", "--n", "5", "--checks", "km,descent,duality")
    fanned = run_cli(
        "verify", "--n", "5", "--checks", "km,descent,duality", "--jobs", "8"
    )
    assert base[0] == fanned[0] == 0
    assert base[1] == fanned[1]


def test_descent_check_deterministic_across_jobs():
    # each pool worker fills its own per-K memo
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


def test_verify_failure_exit_code_is_one(monkeypatch, capsys):
    import quadrics.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_verify_one", lambda item: False)
    code = cli_mod.main(["verify", "--n", "3", "--checks", "km", "--jobs", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
