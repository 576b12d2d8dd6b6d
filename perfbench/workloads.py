"""Seeded inputs and fixed operation lists for the benchmark's workloads.

The program only ever sees the files written here and the op arguments.
The same seed gives byte-identical files.  Sizes are scaled so that one pass
over a workload's ops takes a few seconds on one core, while keeping the
layer that dominates each workload:

- ``compute-large``: ``seqvote compute <rule> <file> 10`` for one rule of
  each counting-table family (Thiele, step-scoring, step-Thiele), each on
  its own random profile with m=20, n=1000 and ballot sizes uniform in 1..6.
  Candidate popularity is skewed and a profile is redrawn until its rule
  ties at no committee size, so every seed does the same engine work: one
  parent per level, scored over about 750 distinct ballots.  Independent
  profiles per op average out the cost differences between profiles.
- ``compute-ties``: a tiny electorate with thousands of tied parents.
  Op 1 is ``seqav`` on one voter per singleton ballot, m=12, k=6 (every one
  of the C(12,6)=924 committees wins); op 2 is ``seqpav`` on cyclic pair
  ballots ``{c, c+1 mod 14}``, m=14, k=7.  The seed only permutes candidate
  labels and voter order.
- ``axioms-enum``: hundreds of thousands of tiny profiles: ``axioms seqpav
  all`` (m 2..3, up to five voters), the id-sensitive ``axioms
  voter1-doubled-seqav all`` (up to three voters), the library check of
  independence of losers for ``seqpav`` at m=4 with up to three voters, and
  one ``witness`` per construction at m=10.  These ops take no input file;
  the seed only orders them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference

BASELINE_OUTPUTS = Path(__file__).resolve().parent / "baseline" / "outputs.json"

LARGE_M, LARGE_N, LARGE_K = 20, 1000, 10
LARGE_RULES = ("seqpav", "seqsav", "av-cc-alternating")
LARGE_ATTEMPTS = 100

TIES = (
    # (op name, rule, m, k, ballot kind)
    ("compute seqav singletons", "seqav", 12, 6, "singletons"),
    ("compute seqpav cyclic-pairs", "seqpav", 14, 7, "cyclic-pairs"),
)

AXIOM_OPS = (
    ("axioms seqpav all", ["axioms", "seqpav", "all"]),
    ("axioms voter1-doubled-seqav all", ["axioms", "voter1-doubled-seqav", "all", "--max-voters", "3"]),
)
IOL = {"call": "independence_of_losers", "rule": "seqpav", "m": 4, "n_single": 3}
WITNESSES = (
    ("T2", "seqpav"),
    ("T3-distrust", "clone-trusting"),
    ("T3-acceptance", "seqccav"),
    ("T4", "seqav"),
)
WITNESS_M = 10

WORKLOADS = ("compute-large", "compute-ties", "axioms-enum")


@dataclass
class Op:
    """One seqvote invocation with its expected exit code and output checks."""

    name: str
    spec: dict  # the op as ``child.py`` takes it
    exit_code: int
    # compute ops: the expected report is rendered from the reference
    compute: tuple | None = None  # (rule, m, k, ballots, profile_text)
    _expected: str | None = field(default=None, repr=False)

    def expected_compute(self) -> str:
        if self._expected is None:
            rule, m, k, ballots, text = self.compute
            families, scores = reference.sequential(rule, m, ballots, k)
            self._expected = reference.render_compute(rule, m, k, text, families, scores)
        return self._expected

    def expected_digest(self) -> str | None:
        """sha256 of the stdout this op printed when the benchmark was defined."""
        if self.compute is not None:
            return _sha256(self.expected_compute().encode())
        return json.loads(BASELINE_OUTPUTS.read_text()).get(self.name)

    def problems(self, exit_code: int, stdout: bytes) -> list[str]:
        """Why this output is wrong, checked against the reference or paper."""
        if exit_code != self.exit_code:
            return [f"exit code {exit_code}, expected {self.exit_code}"]
        try:
            return self._report_problems(json.loads(stdout))
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            return [f"report lacks an expected field: {exc!r}"]

    def _report_problems(self, report) -> list[str]:
        if self.compute is not None:
            k = self.compute[2]
            expected = json.loads(self.expected_compute())["trace"][k]
            if report["trace"][k] != expected:
                return [f"family at k={k} differs from the reference recursion"]
            return []
        argv = self.spec.get("argv", [])
        if argv[:1] == ["axioms"]:
            return reference.axioms_failures(argv[1], report)
        if argv[:1] == ["witness"]:
            if report.get("verdict") != "violation-reproduced" or report.get("matches_expected") is not True:
                return ["witness did not reproduce its violation"]
            return []
        if report.get("verdict") != "pass-exhaustive":
            return [f"independence of losers: {report.get('verdict')}"]
        return []


@dataclass
class Workload:
    name: str
    ops: list[Op]
    setup_rules: list[tuple[str, int]]  # what every CLI call of it builds


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def profile_text(m: int, ballots) -> str:
    """One line per voter, in voter order: ``1: <candidates>``."""
    lines = [f"m={m}"] + ["1: " + " ".join(map(str, sorted(b))) for b in ballots]
    return "\n".join(lines) + "\n"


def large_ballots(seed: int, rule: str) -> list[frozenset]:
    """A ``compute-large`` electorate on which ``rule`` never ties."""
    for attempt in range(LARGE_ATTEMPTS):
        rng = random.Random(f"compute-large/{seed}/{rule}/{attempt}")
        popularity = list(range(1, LARGE_M + 1))
        rng.shuffle(popularity)
        ballots = []
        for _ in range(LARGE_N):
            size = rng.randint(1, 6)
            chosen: set[int] = set()
            while len(chosen) < size:
                chosen.add(rng.choices(range(LARGE_M), popularity)[0])
            ballots.append(frozenset(chosen))
        if reference.first_tie(rule, LARGE_M, ballots) is None:
            return ballots
    raise RuntimeError(f"no tie-free {rule} profile in {LARGE_ATTEMPTS} draws")


def ties_ballots(kind: str, m: int, seed: int) -> list[frozenset]:
    rng = random.Random(f"compute-ties/{kind}/{seed}")
    label = list(range(m))
    rng.shuffle(label)
    if kind == "singletons":
        ballots = [frozenset({label[c]}) for c in range(m)]
    else:
        ballots = [frozenset({label[c], label[(c + 1) % m]}) for c in range(m)]
    rng.shuffle(ballots)
    return ballots


def _compute_op(name: str, rule: str, m: int, k: int, ballots, path: Path) -> Op:
    text = profile_text(m, ballots)
    path.write_text(text)
    return Op(
        name,
        {"kind": "cli", "argv": ["compute", rule, str(path), str(k)]},
        exit_code=0,
        compute=(rule, m, k, ballots, text),
    )


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's input files into ``workdir`` and list its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "compute-large":
        ops = [
            _compute_op(
                f"compute {rule}", rule, LARGE_M, LARGE_K,
                large_ballots(seed, rule), workdir / f"large-{rule}.txt",
            )
            for rule in LARGE_RULES
        ]
        return Workload(name, ops, [(rule, LARGE_M) for rule in LARGE_RULES])
    if name == "compute-ties":
        ops = [
            _compute_op(op, rule, m, k, ties_ballots(kind, m, seed), workdir / f"{kind}.txt")
            for op, rule, m, k, kind in TIES
        ]
        return Workload(name, ops, [(rule, m) for _, rule, m, _, _ in TIES])
    if name == "axioms-enum":
        ops = [Op(op, {"kind": "cli", "argv": argv}, exit_code=1) for op, argv in AXIOM_OPS]
        ops.append(Op(
            f"independence-of-losers {IOL['rule']} m={IOL['m']}", {"kind": "lib", **IOL}, exit_code=0
        ))
        ops.extend(
            Op(
                f"witness {construction} {table}",
                {"kind": "cli", "argv": ["witness", construction, table, "--m", str(WITNESS_M)]},
                exit_code=1,
            )
            for construction, table in WITNESSES
        )
        random.Random(f"axioms-enum/{seed}").shuffle(ops)
        rules = [(rule, m) for rule in ("seqpav", "voter1-doubled-seqav") for m in (2, 3)]
        return Workload(name, ops, rules + [(IOL["rule"], IOL["m"])])
    raise ValueError(f"unknown workload {name!r}")
