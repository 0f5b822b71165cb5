#!/usr/bin/env python3
"""The quadrics benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --record-digests

Run from the root of a source checkout; the program is imported from its
`src/` directory. One client runs a workload (see `workloads.py`) as a
closed loop: every CLI command runs in a fresh `python -m quadrics`
subprocess, the next one starts when the previous one has exited, and each
is timed with `os.wait4`. Whole passes over the command list repeat until
S seconds have gone by. Every command's exit code and stdout go through the
correctness gate; any miss counts as failed and makes the exit code 1.

With `--trace 0` the end-to-end metrics are reported:

* setup_s: median cold start of `quadrics special --n 2 --count`
  (interpreter, `import quadrics`, argparse), five probes per pass;
* wall_s / cpu_s: one pass over the command list, taken as the sum over
  commands of each command's median wall time / user+sys CPU time over the
  passes (CPU time includes `--jobs` pool workers, which the command reaps);
* peak_rss_mb: the largest per-child peak RSS of a pass, median over passes.

The failure share (failed / attempted, all commands and probes) is printed
with them; the final JSON line carries it as `failed` and `attempted`.

The three times are taken at a fixed host speed. On a shared host, other
tenants slow a process by up to half again, in spells of a few seconds and
in a mix that drifts over minutes, and CPU time slows with wall time; raw
seconds from runs minutes apart differ more than any change worth
detecting. So the benchmark times a fixed pure-Python job of its own
(`reference_job`) right before and right after every probe batch and every
command, and scales each sample by REFERENCE_S over the mean of the two job
times around it: a time reads as it would on a host where the job takes
REFERENCE_S. The job is not part of the program, so a faster program still
reads faster. The raw medians and the job's times go to the run record;
the raw medians are printed beside the scaled ones.

With `--trace 1` untraced and traced passes alternate, the traced commands
running under `tracer.py`, and the per-layer metrics are reported: counts
from a traced pass (they must repeat exactly in every traced pass), times
as the median over traced passes of the per-pass sum over commands. A
metric named `<span>_s` is the total time of the outermost spans of that
name, or their self time (duration minus child spans) for the names in
SELF_TIMED. Spans inside `--jobs` pool workers are not recorded.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. The run record (revision, Python, CPU count, kernel backend,
seed, argv, per-command samples) goes to `.perfbench-out/`, along with the
spans of the last traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"
TRACER = HERE / "tracer.py"
LAUNCHER = HERE / "launcher.py"

SETUP_ARGV = ("special", "--n", "2", "--count")
SETUP_STDOUT = b"2\n"
SETUP_PROBES_PER_PASS = 5
COMMAND_TIMEOUT_S = 60.0
SELF_TIMED = {"cells.orbit_sum", "nilfix.nondegeneracy", "cli.format", "cli.pmap"}
POOL_NOTE = "spans inside --jobs pool workers are not recorded"
TIMES = ("setup_s", "wall_s", "cpu_s")  # scaled to the reference host speed
# about the time reference_job takes on a 2 GHz Xeon vCPU under Python 3.11
REFERENCE_S = 0.375


class SetupError(Exception):
    """The checkout cannot run the benchmark at all."""


@dataclass
class Sample:
    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout_bytes: int
    error: Optional[str]
    trace: Optional[dict] = None
    # wall and CPU seconds of reference_job around the sample
    reference: tuple[float, float] = (REFERENCE_S, REFERENCE_S)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("QUADRICS_FORMAT", None)  # it would change the report format
    return env


ENV = child_env()


class Launcher:
    """Runs commands through `launcher.py` (see there why) and collects
    their exit code, stdout, stderr, wall time, CPU time and peak RSS."""

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.stdout = OUT / "stdout.tmp"
        self.stderr = OUT / "stderr.tmp"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(LAUNCHER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=ENV,
            cwd=ROOT,
            text=True,
        )

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for path in (self.stdout, self.stderr):
            path.unlink(missing_ok=True)

    def run(self, cmd: list[str]) -> tuple[int, bytes, bytes, float, float, int]:
        request = {
            "argv": cmd,
            "stdout": str(self.stdout),
            "stderr": str(self.stderr),
            "timeout": COMMAND_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("the launcher process ended unexpectedly")
        reply = json.loads(line)
        return (
            reply["code"],
            self.stdout.read_bytes(),
            self.stderr.read_bytes(),
            reply["wall"],
            reply["cpu"],
            reply["maxrss_kb"],
        )


def run_command(
    launcher: Launcher, command: workloads.Command, digests: dict, trace_file: Optional[Path] = None
) -> Sample:
    if trace_file is None:
        cmd = [sys.executable, "-m", "quadrics", *command.argv]
    else:
        cmd = [sys.executable, str(TRACER), str(trace_file), *command.argv]
    code, stdout, stderr, wall, cpu, rss = launcher.run(cmd)
    if code != 0:
        error = f"exit code {code}: {stderr.decode(errors='replace').strip()[-300:]}"
    else:
        error = workloads.check_output(command, stdout, digests)
    sample = Sample(command.argv, wall, cpu, rss, len(stdout), error)
    if trace_file is not None and error is None:
        sample.trace = json.loads(trace_file.read_text())
        trace_file.unlink()
    return sample


def reference_job() -> None:
    """A fixed job of the kind the program does (tuples, comparisons, a
    dict): the inversion counts of all permutations of 8, three times over.
    Its length balances the noise of the two sides of the scaling: a shorter
    job samples the host's speed too thinly, a longer one leaves too little
    of the run to the program."""
    for _ in range(3):
        counts: dict[int, int] = {}
        for perm in itertools.permutations(range(8)):
            inversions = 0
            for i in range(8):
                for j in range(i + 1, 8):
                    if perm[i] > perm[j]:
                        inversions += 1
            counts[inversions] = counts.get(inversions, 0) + 1
        if counts[0] != 1 or counts[28] != 1 or sum(counts.values()) != 40320:
            raise AssertionError("the reference job went wrong")


class HostSpeed:
    """Times reference_job between the measurements of a pass: `bracket()`
    times it once more and returns the mean wall and CPU seconds of the job
    before and after the measurement just taken."""

    def __init__(self, times: list[tuple[float, float]]) -> None:
        self.times = times
        self.last = self.time_job()

    def time_job(self) -> tuple[float, float]:
        wall, cpu = time.perf_counter(), time.process_time()
        reference_job()
        self.times.append((time.perf_counter() - wall, time.process_time() - cpu))
        return self.times[-1]

    def bracket(self) -> tuple[float, float]:
        before, self.last = self.last, self.time_job()
        return (before[0] + self.last[0]) / 2, (before[1] + self.last[1]) / 2


def setup_probe(launcher: Launcher) -> Sample:
    code, stdout, stderr, wall, cpu, rss = launcher.run([sys.executable, "-m", "quadrics", *SETUP_ARGV])
    error = None if code == 0 and stdout == SETUP_STDOUT else f"setup probe: exit {code}, {stdout!r}"
    return Sample(SETUP_ARGV, wall, cpu, rss, len(stdout), error)


def probe_program(launcher: Launcher) -> str:
    """The kernel backend of the checkout's quadrics; SetupError when the
    checkout has no importable program of its own."""
    code, stdout, stderr, *_ = launcher.run(
        [
            sys.executable,
            "-c",
            "import quadrics, quadrics.kernel; print(quadrics.__file__); print(quadrics.kernel.BACKEND)",
        ]
    )
    if code != 0:
        raise SetupError(f"cannot import quadrics from {ROOT / 'src'}: {stderr.decode().strip()[-300:]}")
    path, backend = stdout.decode().splitlines()
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"quadrics imported from {path}, not from {ROOT / 'src'}")
    return backend


def revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


# --- metrics -------------------------------------------------------------------


def end_to_end(passes: list[list[Sample]], probes: list[Sample], scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics, each time the median over its samples; with
    `scaled`, every sample is first taken to the reference host speed."""

    def wall(s: Sample) -> float:
        return s.wall_s * REFERENCE_S / s.reference[0] if scaled else s.wall_s

    def cpu(s: Sample) -> float:
        return s.cpu_s * REFERENCE_S / s.reference[1] if scaled else s.cpu_s

    per_command = list(zip(*passes))
    return {
        "setup_s": statistics.median(wall(p) for p in probes),
        "wall_s": sum(statistics.median(wall(s) for s in runs) for runs in per_command),
        "cpu_s": sum(statistics.median(cpu(s) for s in runs) for runs in per_command),
        "peak_rss_mb": statistics.median(max(s.rss_kb for s in p) for p in passes) / 1024,
    }


def span_times(spans: list) -> dict[str, float]:
    """Per span name: self time for SELF_TIMED names, else the total time of
    the spans with no ancestor of the same name."""
    by_id = {span[0]: span for span in spans}
    covered: defaultdict[int, float] = defaultdict(float)
    for sid, name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    times: defaultdict[str, float] = defaultdict(float)
    for sid, name, start, end, parent in spans:
        if name in SELF_TIMED:
            times[name] += end - start - covered[sid]
            continue
        while parent is not None and parent in by_id and by_id[parent][1] != name:
            parent = by_id[parent][4]
        if parent is None or parent not in by_id:
            times[name] += end - start
    return times


def pass_layers(samples: list[Sample]) -> tuple[dict[str, float], dict[str, int]]:
    """Span times and counts of one traced pass, summed over its commands."""
    times: defaultdict[str, float] = defaultdict(float)
    counts: defaultdict[str, int] = defaultdict(int)
    for sample in samples:
        for name, value in span_times(sample.trace["spans"]).items():
            times[name] += value
        for span in sample.trace["spans"]:
            counts[span[1]] += 1
        for name, value in sample.trace["counts"].items():
            counts[name] += value
        counts["cli.bytes_out"] += sample.stdout_bytes
    return times, counts


def per_layer(untraced: list[list[Sample]], traced: list[list[Sample]]) -> dict[str, float]:
    layers = [pass_layers(p) for p in traced]
    times = [t for t, _ in layers]
    counts = layers[0][1]
    if any(c != counts for _, c in layers):
        raise AssertionError("per-layer counts differ between traced passes")

    def time_of(name: str) -> float:
        return statistics.median(t.get(name, 0.0) for t in times)

    metrics = {
        "kernel.census_calls": counts["kernel.census_calls"],
        "kernel.census_scans": counts["kernel.census"],
        "kernel.perms_scanned": counts["kernel.perms_scanned"],
        "kernel.reps_kept": counts["kernel.reps_kept"],
        "kernel.useful_ratio": (
            counts["kernel.reps_kept"] / counts["kernel.perms_scanned"]
            if counts["kernel.perms_scanned"]
            else 0.0
        ),
        "cells.r_set_calls": counts["cells.r_set"],
        "cells.records": counts["cells.records"],
        "parabolic.coset_reps_held": counts["parabolic.coset_reps_held"],
        "symmetric_group.act_calls": counts["symmetric_group.act_calls"],
        "qpoly.mul_calls": counts["qpoly.mul"],
        "nilfix.det_evals": counts["nilfix.det_evals"],
        "nilfix.classifier_calls": counts["nilfix.classifier"],
        "cli.bytes_out": counts["cli.bytes_out"],
        "cli.pmap_tasks": counts["cli.pmap_tasks"],
        "cli.workers": counts["cli.workers"],
        "setup.import_s": statistics.median(s.trace["import_s"] for p in traced for s in p),
        "trace.overhead_s": statistics.median(sum(s.wall_s for s in p) for p in traced)
        - statistics.median(sum(s.wall_s for s in p) for p in untraced),
    }
    for name in (
        "kernel.census",
        "cells.orbit_sum",
        "cells.r_set",
        "cells.fixed_points",
        "cells.descent",
        "parabolic.coset_reps",
        "qpoly.mul",
        "qpoly.product_formula",
        "qpoly.exact_div",
        "qpoly.height",
        "nilfix.nullspace",
        "nilfix.rank",
        "nilfix.nondegeneracy",
        "nilfix.classifier",
        "cli.format",
        "cli.emit",
        "cli.pmap",
    ):
        metrics[f"{name}_s"] = time_of(name)
    return metrics


# --- the run ---------------------------------------------------------------------


def run_pass(launcher, commands, digests, trace_dir: Optional[Path] = None) -> list[Sample]:
    return [
        run_command(launcher, c, digests, None if trace_dir is None else trace_dir / f"{i}.json")
        for i, c in enumerate(commands)
    ]


def run_timed_pass(launcher, commands, digests, reference: list) -> tuple[list[Sample], list[Sample]]:
    """The setup probes and one untraced pass, each sample bracketed by
    reference_job; returns (probes, pass)."""
    speed = HostSpeed(reference)
    probes = [setup_probe(launcher) for _ in range(SETUP_PROBES_PER_PASS)]
    around = speed.bracket()
    for probe in probes:
        probe.reference = around
    samples = []
    for command in commands:
        samples.append(run_command(launcher, command, digests))
        samples[-1].reference = speed.bracket()
    return probes, samples


def measure(launcher, commands, digests, seconds: float, trace: bool):
    """Run passes for `seconds`; returns (untraced, traced passes, probes,
    reference job times)."""
    setup_probe(launcher)  # warm-up: byte-compiles the package once, like an install
    reference_job()  # warm-up of the interpreter's specialised bytecode
    untraced: list[list[Sample]] = []
    traced: list[list[Sample]] = []
    probes: list[Sample] = []
    reference: list[tuple[float, float]] = []
    trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=OUT)) if trace else None
    start = time.perf_counter()
    try:
        while True:
            if trace and len(traced) < len(untraced):
                traced.append(run_pass(launcher, commands, digests, trace_dir))
                continue
            elapsed = time.perf_counter() - start
            if untraced and elapsed >= seconds:
                break
            batch, samples = run_timed_pass(launcher, commands, digests, reference)
            probes.extend(batch)
            untraced.append(samples)
    finally:
        if trace_dir is not None:
            for leftover in trace_dir.iterdir():
                leftover.unlink()
            trace_dir.rmdir()
    return untraced, traced, probes, reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quadrics benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="record the stdout digests of every unseeded command into digests.json",
    )
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")

    with Launcher() as launcher:
        try:
            backend = probe_program(launcher)
            if args.record_digests:
                record_digests(launcher)
                return 0
            digests = load_digests()
        except (SetupError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        commands = workloads.commands(args.workload, args.seed)
        untraced, traced, probes, reference = measure(
            launcher, commands, digests, args.seconds, bool(args.trace)
        )
    return report(args, backend, commands, untraced, traced, probes, reference)


def report(args, backend, commands, untraced, traced, probes, reference) -> int:
    """Print the metrics and the result line, write the run record."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    everything = probes + [s for p in untraced + traced for s in p]
    failures = [s for s in everything if s.error is not None]
    correct = not failures

    raw = end_to_end(untraced, probes, scaled=False)
    if args.trace:
        # a failed command leaves no trace to read
        metrics = per_layer(untraced, traced) if correct else {}
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(untraced, probes)
        wanted = spec["end_to_end"]
    if metrics and set(metrics) != {m["name"] for m in wanted}:
        raise AssertionError("metrics differ from BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "argv": sys.argv,
        "revision": revision(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "backend": backend,
        "commands": [list(c.argv) for c in commands],
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_probes": [[p.wall_s, *p.reference] for p in probes],
        "samples": [[[s.wall_s, s.cpu_s, s.rss_kb, *s.reference] for s in p] for p in untraced],
        "reference_job": reference,
        "raw": raw,
        "failures": [[list(s.argv), s.error] for s in failures],
        "metrics": metrics,
    }
    if args.trace:
        record["note"] = POOL_NOTE
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced and correct:
        spans = [{"command": list(s.argv), "spans": s.trace["spans"]} for s in traced[-1]]
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans))

    for s in failures:
        print(f"FAILED {' '.join(s.argv)}: {s.error}")
    print(
        f"{args.workload} seed={args.seed} backend={backend} cpus={os.cpu_count()} "
        f"python={platform.python_version()} passes={len(untraced)}+{len(traced)} traced"
    )
    print(
        "host speed: reference_job median "
        f"{statistics.median(w for w, _ in reference):.4f} s wall, "
        f"{statistics.median(c for _, c in reference):.4f} s CPU"
    )
    if args.trace:
        print(f"note: {POOL_NOTE}")
    for name, value in metrics.items():
        measured = f"  (raw {raw[name]:.6g} s)" if not args.trace and name in TIMES else ""
        print(f"  {name:28s} {value:>16.6g} {units[name]}{measured}")
    print(f"  {'fail_ratio':28s} {len(failures) / len(everything):>16.6g} ratio")
    result = {
        "correct": correct,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def record_digests(launcher: Launcher) -> None:
    """Write the stdout digest of every command the seed does not touch, at
    both sizes, from the checkout's program."""
    digests = {}
    for workload in workloads.WORKLOADS:
        for tiny in (False, True):
            for command in workloads.commands(workload, 0, tiny):
                if command.check is None:
                    code, stdout, stderr, *_ = launcher.run([sys.executable, "-m", "quadrics", *command.argv])
                    if code != 0:
                        raise SetupError(f"{command.argv} exited {code}: {stderr.decode()}")
                    digests[command.digest_key()] = hashlib.sha256(stdout).hexdigest()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
