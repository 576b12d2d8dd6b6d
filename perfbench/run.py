"""The seqvote benchmark: seeded CLI workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload compute-large --seed 1 --seconds 20 --trace 0

Every op is one ``seqvote`` operation in a fresh interpreter (``child.py``),
reading generated input files and writing stdout; one op runs at a time, in
a closed loop from this single driver process.  A pass runs the workload's
fixed op list once; passes repeat until ``--seconds`` have gone by (at least
one).

``--trace 0`` reports the end-to-end metrics, medians over the passes:

- ``wall_s``: one pass, each op timed from spawn until it has exited and its
  stdout is read, at the reference speed (below);
- ``cpu_s``: user+sys CPU time of the pass's op processes, at the reference
  speed;
- ``peak_rss_mb``: the largest max-RSS of any op process in a pass;
- ``setup_s``: a fresh interpreter importing seqvote and building the
  workload's rules with ``catalog.make`` (median of several), at the
  reference speed probed in this process just before each spawn.

The speed of a shared VM drifts by tens of percent within a minute, and CPU
time drifts with it.  So every op process times a fixed interpreter loop
every 50 ms while it runs (``child.SpeedProbe``), and each op's times are
multiplied by ``REFERENCE_PROBE_S`` over its mean probe time.
A change to seqvote leaves the probe loop alone, so it still shows in full.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``spans.layer_metrics``; times
scaled like ``wall_s``), plus
``cli.output_bytes``, ``cli.output_changed`` and ``trace_overhead_ratio``.

Outputs are checked outside the timed region: compute reports against an
independent tie-branching recursion (``reference.py``), axiom reports
against the verdicts the paper fixes, witnesses for a reproduced violation.
Op runs that fail a check count in ``failed``; ``failed_ratio`` is
``failed / attempted``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import child
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_SPAWNS = 9
OP_TIMEOUT_S = 150
# The time ``child.probe_loop`` takes at the reference speed (typical for a
# 2-vCPU cloud VM with Python 3.11).  An op's times are scaled by this over
# the mean probe time measured while it ran.
REFERENCE_PROBE_S = 0.0015


class SetupError(RuntimeError):
    """The set-up op failed, so no op of the workload can run."""


@dataclass
class OpRun:
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    probe_samples: int = 0
    probe_total: float = 0.0


def spawn(spec: dict, workdir: Path, trace_file: Path | None = None) -> OpRun:
    """Run one op in a fresh interpreter; time it until exit and EOF on stdout."""
    probe_file = workdir / "probe.json"
    probe_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(ROOT), json.dumps(spec), str(probe_file)]
    if trace_file is not None:
        cmd.append(str(trace_file))
    with open(workdir / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    probe = json.loads(probe_file.read_text()) if probe_file.exists() else {}
    return OpRun(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        proc.returncode,
        stdout,
        probe.get("samples", 0),
        probe.get("total", 0.0),
    )


def parent_speed_factor(samples: int = 5) -> float:
    """Reference speed over the speed of this process, probed right now."""
    start = time.perf_counter()
    for _ in range(samples):
        child.probe_loop()
    return REFERENCE_PROBE_S * samples / (time.perf_counter() - start)


def speed_factor(runs: list[OpRun]) -> float:
    """Reference speed over the speed the probes saw during these runs.

    Probe samples are evenly spaced in time, so their mean is the runs'
    time-weighted slowdown; 1.0 when no run lasted long enough to be sampled.
    """
    samples = sum(r.probe_samples for r in runs)
    total = sum(r.probe_total for r in runs)
    return REFERENCE_PROBE_S * samples / total if samples else 1.0


def scaled(runs: list[OpRun], value) -> float:
    """Sum of ``value(run)`` over a pass, each scaled to the reference speed
    by its own probe samples (by the pass's, for an op too short to have any).
    """
    fallback = speed_factor(runs)
    return sum(
        value(r) * (speed_factor([r]) if r.probe_samples else fallback) for r in runs
    )


class Checker:
    """Checks op outputs once per distinct output; counts failed runs."""

    def __init__(self):
        self.verdicts: dict[tuple[str, int, str], list[str]] = {}
        self.changed: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.first_problem: str | None = None

    def check(self, op: workloads.Op, run: OpRun) -> None:
        digest = hashlib.sha256(run.stdout).hexdigest()
        key = (op.name, run.exit_code, digest)
        if key not in self.verdicts:
            self.verdicts[key] = op.problems(run.exit_code, run.stdout)
            if digest != op.expected_digest():
                self.changed.add(op.name)
        self.attempted += 1
        if self.verdicts[key]:
            self.failed += 1
            if self.first_problem is None:
                self.first_problem = f"{op.name}: {self.verdicts[key][0]}"


def run_pass(workload, workdir: Path, checker: Checker, traced: bool = False):
    runs, traces = [], []
    for i, op in enumerate(workload.ops):
        trace_file = workdir / f"trace-{i}.bin" if traced else None
        run = spawn(op.spec, workdir, trace_file)
        if traced:
            if trace_file.exists():
                traces.append(spans.read_trace(trace_file))
                trace_file.unlink()
            else:
                run.exit_code = -1  # the traced child died before writing
        runs.append(run)
    for op, run in zip(workload.ops, runs):
        checker.check(op, run)
    return runs, traces


def measure(workload, workdir: Path, seconds: float, trace: bool, checker: Checker) -> dict:
    walls, cpus, rsss, layer_passes, traced_walls = [], [], [], [], []
    setup_spec = {"kind": "setup", "rules": workload.setup_rules}
    setups = []
    # The first spawn compiles the package's bytecode; it is not timed.
    for _ in range(1 if trace else 1 + SETUP_SPAWNS):
        factor = parent_speed_factor()  # set-up ends before a probe sample
        run = spawn(setup_spec, workdir)
        if run.exit_code != 0:
            raise SetupError("the set-up op failed")
        setups.append(factor * run.wall)
    setups = setups[1:]
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        runs, _ = run_pass(workload, workdir, checker)
        walls.append(scaled(runs, lambda r: r.wall))
        cpus.append(scaled(runs, lambda r: r.cpu))
        rsss.append(max(r.rss_mb for r in runs))
        if trace:
            runs, traces = run_pass(workload, workdir, checker, traced=True)
            traced_walls.append(scaled(runs, lambda r: r.wall))
            factor = speed_factor(runs)
            layer = {
                name: factor * value if name.endswith("_s") else value
                for name, value in spans.layer_metrics(traces).items()
            }
            layer["cli.output_bytes"] = sum(len(r.stdout) for r in runs)
            layer_passes.append(layer)
    if not trace:
        return {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (statistics.median(rsss), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    units = per_layer_units()
    out = {
        name: (statistics.median(p.get(name, 0) for p in layer_passes), units[name])
        for name in units
        if name not in ("cli.output_changed", "trace_overhead_ratio")
    }
    out["cli.output_changed"] = (len(checker.changed), units["cli.output_changed"])
    out["trace_overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(walls) - 1,
        units["trace_overhead_ratio"],
    )
    return out


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "seqvote" / "__init__.py").is_file():
        print(f"error: no seqvote sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    checker = Checker()
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        try:
            metrics = measure(workload, workdir, args.seconds, bool(args.trace), checker)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            if checker.first_problem:
                print(f"check failed: {checker.first_problem}", file=sys.stderr)
            stderr = workdir / "stderr.txt"
            if stderr.exists():
                sys.stderr.write(stderr.read_text(errors="replace")[-2000:])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"{'failed_ratio':34s} {checker.failed / checker.attempted:14.6g} ratio")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
