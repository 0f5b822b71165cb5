"""Tests of the benchmark itself.

usage: python3 -m pytest perfbench

The smoke tests run every workload's command list once at tiny n through
the same launcher and correctness gate as a benchmark run.
"""

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
import workloads

ALL = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def launcher():
    with run.Launcher() as launcher:
        yield launcher


@pytest.mark.parametrize("workload", ALL)
def test_tiny_command_lists_pass_the_gate(launcher, workload):
    commands = workloads.commands(workload, seed=7, tiny=True)
    samples = run.run_pass(launcher, commands, run.load_digests())
    assert [s.error for s in samples] == [None] * len(commands)
    assert all(s.wall_s > 0 and s.rss_kb > 0 for s in samples)


@pytest.mark.parametrize("workload", ALL)
def test_tracing_leaves_stdout_byte_identical(launcher, tmp_path, workload):
    for i, command in enumerate(workloads.commands(workload, seed=3, tiny=True)):
        trace_file = tmp_path / f"{i}.json"
        plain = launcher.run([sys.executable, "-m", "quadrics", *command.argv])
        traced = launcher.run([sys.executable, str(run.TRACER), str(trace_file), *command.argv])
        assert plain[0] == traced[0] == 0
        assert traced[1] == plain[1], command.argv
        assert json.loads(trace_file.read_text())["spans"]


def test_no_command_exceeds_the_jobs_or_max_n_caps():
    cpus = os.cpu_count() or 1
    for workload in ALL:
        for seed in range(40):
            for tiny in (False, True):
                for command in workloads.commands(workload, seed, tiny):
                    argv = command.argv
                    for flag, cap in (("--jobs", cpus), ("--max-n", 9)):
                        if flag in argv:
                            assert int(argv[argv.index(flag) + 1]) <= cap, argv


def test_seed_only_picks_subsets_of_a_fixed_size():
    for workload in ALL:
        first = workloads.commands(workload, 1)
        assert [c.argv for c in first] == [c.argv for c in workloads.commands(workload, 1)]
        for seed in range(2, 30):
            for a, b in zip(first, workloads.commands(workload, seed)):
                if "--subset" not in a.argv:
                    assert a.argv == b.argv
                    continue
                at = a.argv.index("--subset") + 1
                assert a.argv[:at] == b.argv[:at] and a.argv[at + 1 :] == b.argv[at + 1 :]
                assert len(a.argv[at].split(",")) == len(b.argv[at].split(","))


def test_special_subsets_are_special_and_sized():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randrange(5, 70)
        size = rng.randrange(0, n // 2 + 1)
        members = workloads.special_subset(rng, n, size)
        assert len(members) == size
        assert all(1 <= i <= n - 1 for i in members)
        assert all(b - a >= 2 for a, b in zip(members, members[1:]))


POINCARE_N4_I13 = (
    "n=4 subset={1,3}\n"
    "product: 1 + 3q + 7q^2 + 10q^3 + 12q^4 + 10q^5 + 7q^6 + 3q^7 + q^8\n"
    "degree: 8\n"
    "euler: 54\n"
    "verdict: ok\n"
)


def test_gate_rejects_wrong_output():
    check = workloads.poincare_check(4, (1, 3))
    assert check(POINCARE_N4_I13) is None
    assert check(POINCARE_N4_I13.replace("verdict: ok", "verdict: mismatch"))
    assert check(POINCARE_N4_I13.replace("12q^4", "13q^4"))  # Euler number
    assert check(POINCARE_N4_I13.replace("3q + 7q^2", "4q + 6q^2"))  # palindrome
    assert check(POINCARE_N4_I13.replace(" + q^8", ""))  # degree

    cells = workloads.cells_subset_check(3, (1,))
    lines = [f"K={{}} w={i}" for i in range(6)] + [f"K={{1}} w={i}" for i in range(3)]
    assert cells("\n".join(lines + ["total: 9 fixed points"])) is None
    assert cells("\n".join(lines[1:] + ["total: 9 fixed points"]))
    assert cells("\n".join(lines + ["total: 10 fixed points"]))

    command = workloads.Command(("verify", "--n", "3", "--jobs", "2"))
    digests = {"verify --n 3": hashlib.sha256(b"ok\n").hexdigest()}
    assert workloads.check_output(command, b"ok\n", digests) is None
    assert workloads.check_output(command, b"ok \n", digests)
    assert workloads.check_output(command, b"ok\n", {})


def test_span_times_take_self_time_or_outermost_total():
    spans = [
        # id, name, start, end, parent
        (0, "cli.format", 0.0, 10.0, None),
        (1, "cells.orbit_sum", 1.0, 7.0, 0),
        (2, "cells.orbit_sum", 2.0, 6.0, 1),
        (3, "kernel.census", 3.0, 5.0, 2),
        (4, "qpoly.mul", 7.0, 8.0, 0),
        (5, "qpoly.mul", 8.0, 8.5, 0),
    ]
    times = run.span_times(spans)
    assert times["cli.format"] == pytest.approx(10 - 6 - 1 - 0.5)
    assert times["cells.orbit_sum"] == pytest.approx((6 - 4) + (4 - 2))
    assert times["kernel.census"] == pytest.approx(2)
    assert times["qpoly.mul"] == pytest.approx(1.5)


def test_times_are_scaled_to_the_reference_host_speed():
    slow = 2 * run.REFERENCE_S

    def sample(wall, cpu, rss_kb, reference):
        return run.Sample(("x",), wall, cpu, rss_kb, 0, None, reference=reference)

    probes = [sample(0.2, 0.2, 1, (slow, slow)), sample(0.3, 0.3, 1, (run.REFERENCE_S, run.REFERENCE_S))]
    passes = [
        [sample(10.0, 12.0, 100 * 1024, (slow, 2 * slow)), sample(1.0, 1.0, 50 * 1024, (slow, slow))],
        [sample(3.0, 4.0, 100 * 1024, (run.REFERENCE_S, run.REFERENCE_S)), sample(0.5, 0.5, 50 * 1024, (slow, slow))],
    ]
    assert run.end_to_end(passes, probes) == pytest.approx(
        {"setup_s": (0.1 + 0.3) / 2, "wall_s": (5.0 + 3.0) / 2 + 0.75 / 2, "cpu_s": (3.0 + 4.0) / 2 + 0.75 / 2, "peak_rss_mb": 100.0}
    )
    assert run.end_to_end(passes, probes, scaled=False)["wall_s"] == pytest.approx(6.5 + 0.75)


def test_checkout_without_the_program_is_refused(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
