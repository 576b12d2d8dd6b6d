"""Compare every kind of seqvote report between two source trees.

Run by hand before merging a change that could reach a report's bytes::

    git clone -q . /tmp/base && git -C /tmp/base checkout -q <base-commit>
    python3 tools/compare_outputs.py /tmp/base

For this checkout and the other one (each imported from its own ``src/`` in
a fresh interpreter) the script writes, one file per case, the exit code,
stdout and stderr of

- ``seqvote compute`` as JSON and ``--pretty``, for all 16 catalog rules on
  seeded random profiles (m 3..6) and tie-heavy ones (one voter per
  singleton, cyclic pairs, everyone approving everything), at k in
  {0, 1, m/2, m}, and on the tie-heavy singletons and cyclic pairs at m=12
  and k=3, where candidates have two digits, and on the benchmark's tie
  shapes at full depth (singletons at m=12, k=6 and cyclic pairs at m=14,
  k=7) for ``seqav`` and ``seqpav``, plus ``compute table --table``
  on one valid counting-table file of each arity, h(x), h(x,y) and h(x,y,z)
  (all with h(0, ...) != 0 and non-unit denominators), and on one invalid
  table of each arity (exit 2);
- ``seqvote axioms <rule> all --max-voters 2`` and ``3``, ``all --max-m 4
  --max-voters 2``, and ``clones --max-m 4 --max-voters 3`` (profiles at m=4
  with repeated ballots), for every rule, and ``all --max-m 4 --max-voters
  3`` for ``seqpav``, whose searches run once, over orbit representatives
  (the first violation or error in canonical order is the first of its
  orbit, so a reduced search needs no second pass over every item), and
  ``candidate-a-doubled-seqav``, whose neutrality search falls back from
  two generating relabelings to all of S_m, and ``all --max-m 5
  --max-voters 3`` for ``seqpav``, and ``monotone --max-m 4 --max-voters
  3`` for ``voter1-doubled-seqav`` and ``cc-tiebreak-seqav``, stepped rules
  without gain rows whose derived consistency pass traces each B renumbered
  above A, or each union larger than the universe, with the rule itself;
- ``seqvote axioms <rule> proper --max-voters 3 --j-max 1`` for every rule:
  the continuity certificate decides the rules that step by a valuation and
  are not id-sensitive (``gains.rule_valuation``), and the others are
  searched at j = 1 only (``trivial`` passes there, the rest are
  inconclusive with limit 1);
- ``seqvote axioms <rule> all --max-voters 3 --branch-cap c`` for c in
  {1, 2, 4} and ``monotone --max-m 4 --max-voters 2 --branch-cap c`` for c
  in {2, 4}, for every rule: where a tie frontier outgrows the cap, the
  run exits 3 with the error of the first check that meets it;
- ``seqvote witness <construction> <table> --m <m>`` for every
  construction, named table and m in {3, 4, 6};
- error runs: an unknown witness construction (argparse usage error), a
  committee size out of range, a ``compute --branch-cap`` that is hit, one
  hit at the last level of the m=12 singletons (cap 923 < C(12, 6)), and an
  ``axioms`` universe over its cap;

then diffs the two sets, prints how many outputs were compared and which
differ, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TABLE_TEXT = "h(0)=1/3\nh(1)=3/2\nh(2)=2\nh(3)=9/4\nh(4)=5/2\n"
TABLE_M = 4  # the m of every table file; tables run on the m=4 profiles
NAMED_TABLES = ("seqav", "seqpav", "seqccav", "clone-trusting")
SEED = 2023  # of the random profiles


def profile_text(m: int, ballots) -> str:
    return f"m={m}\n" + "".join(f"1: {' '.join(map(str, sorted(b)))}\n" for b in ballots)


def table_text(arity: int, h) -> str:
    """The ``h(...)=p/q`` lines of ``h`` over the full grid of its arity at
    m = TABLE_M: x in 0..m, and y and z in 1..m."""
    m = TABLE_M
    grids = {
        1: ((x,) for x in range(m + 1)),
        2: ((x, y) for x in range(m + 1) for y in range(1, m + 1)),
        3: ((x, y, z) for x in range(m + 1) for y in range(1, m + 1) for z in range(1, m + 1)),
    }
    return "".join(f"h({','.join(map(str, key))})={h(*key)}\n" for key in grids[arity])


def table_files() -> tuple[dict[str, str], dict[str, str]]:
    """Named counting-table files: the valid ones, then the invalid ones."""
    valid = {
        "table": TABLE_TEXT,
        "table-hxy": table_text(2, lambda x, y: Fraction(2, 3) + Fraction(x, y + 1)),
        "table-hxyz": table_text(3, lambda x, y, z: Fraction(1, 4) + Fraction(x, y + z)),
    }
    invalid = {
        # decreasing at x=2
        "invalid-hx": table_text(1, lambda x: Fraction(1, 2) if x == 2 else min(x, 1)),
        # no strict increase in x at committee size 1
        "invalid-hxy": table_text(2, lambda x, y: x if y > 1 else Fraction(1, 2)),
        # nothing distinguishes x from x-1
        "invalid-hxyz": table_text(3, lambda x, y, z: Fraction(1, 3)),
    }
    return valid, invalid


def profiles() -> dict[str, str]:
    """Named profile files: seeded random ones and tie-heavy ones."""
    rng = random.Random(SEED)
    out = {}
    for i in range(12):
        m = 3 + i % 4
        ballots = [
            rng.sample(range(m), rng.randint(1, m)) for _ in range(rng.randint(1, 8))
        ]
        out[f"random{i}-m{m}"] = profile_text(m, ballots)
    out["singletons-m8"] = profile_text(8, [[c] for c in range(8)])
    out["cyclic-pairs-m8"] = profile_text(8, [[c, (c + 1) % 8] for c in range(8)])
    out["everyone-m5"] = profile_text(5, [range(5)] * 3)
    return out


def two_digit_profiles() -> dict[str, str]:
    """Tie-heavy profiles at m=12, run at k=3 only: score keys and families
    order by their text there ("10" before "2"), parents numerically."""
    m = 12
    return {
        "singletons-m12": profile_text(m, [[c] for c in range(m)]),
        "cyclic-pairs-m12": profile_text(m, [[c, (c + 1) % m] for c in range(m)]),
    }


def full_depth_profiles() -> dict[str, tuple[str, int]]:
    """The benchmark's tie-heavy profiles with the k they are run at, where
    thousands of parents tie: ``(text, k)`` by name."""
    return {
        "singletons-m12": (profile_text(12, [[c] for c in range(12)]), 6),
        "cyclic-pairs-m14": (profile_text(14, [[c, (c + 1) % 14] for c in range(14)]), 7),
    }


def cases(workdir: Path):
    """``(name, argv)`` for every output to compare."""
    from seqvote import catalog, witnesses

    valid, invalid = table_files()
    tables = {}
    for table_name, text in {**valid, **invalid}.items():
        tables[table_name] = workdir / f"{table_name}.cfg"
        tables[table_name].write_text(text)
    for name, text in profiles().items():
        path = workdir / f"{name}.txt"
        path.write_text(text)
        m = int(text.split("\n", 1)[0][2:])
        for k in sorted({0, 1, m // 2, m}):
            for rule in catalog.RULE_NAMES:
                argv = ["compute", rule, str(path), str(k)]
                yield f"compute-{rule}-{name}-k{k}", argv
                yield f"compute-{rule}-{name}-k{k}-pretty", argv + ["--pretty"]
            if m != TABLE_M:
                continue
            table_profile = path
            for table_name in valid:
                argv = ["compute", "table", str(path), str(k), "--table", str(tables[table_name])]
                yield f"compute-{table_name}-{name}-k{k}", argv
                yield f"compute-{table_name}-{name}-k{k}-pretty", argv + ["--pretty"]
    for name, text in two_digit_profiles().items():
        path = workdir / f"{name}.txt"
        path.write_text(text)
        for rule in catalog.RULE_NAMES:
            argv = ["compute", rule, str(path), "3"]
            yield f"compute-{rule}-{name}-k3", argv
            yield f"compute-{rule}-{name}-k3-pretty", argv + ["--pretty"]
    for name, (text, k) in full_depth_profiles().items():
        path = workdir / f"{name}-full.txt"
        path.write_text(text)
        for rule in ("seqav", "seqpav"):
            argv = ["compute", rule, str(path), str(k)]
            yield f"compute-{rule}-{name}-k{k}", argv
            yield f"compute-{rule}-{name}-k{k}-pretty", argv + ["--pretty"]
    for rule in catalog.RULE_NAMES:
        for n in ("2", "3"):
            yield f"axioms-{rule}-n{n}", ["axioms", rule, "all", "--max-voters", n]
        argv = ["axioms", rule, "all", "--max-m", "4", "--max-voters", "2"]
        yield f"axioms-{rule}-m4-n2", argv
        argv = ["axioms", rule, "clones", "--max-m", "4", "--max-voters", "3"]
        yield f"axioms-{rule}-clones-m4-n3", argv
        argv = ["axioms", rule, "proper", "--max-voters", "3", "--j-max", "1"]
        yield f"axioms-{rule}-proper-n3-j1", argv
        for cap in ("1", "2", "4"):
            argv = ["axioms", rule, "all", "--max-voters", "3", "--branch-cap", cap]
            yield f"axioms-{rule}-n3-cap{cap}", argv
        for cap in ("2", "4"):
            argv = ["axioms", rule, "monotone", "--max-m", "4", "--max-voters", "2",
                    "--branch-cap", cap]
            yield f"axioms-{rule}-monotone-m4-n2-cap{cap}", argv
    for rule in ("seqpav", "candidate-a-doubled-seqav"):
        argv = ["axioms", rule, "all", "--max-m", "4", "--max-voters", "3"]
        yield f"axioms-{rule}-m4-n3", argv
    # m = 5, where the decided step(seqpav) consistency pass used to be most of the run
    yield "axioms-seqpav-m5-n3", ["axioms", "seqpav", "all", "--max-m", "5", "--max-voters", "3"]
    for rule in ("voter1-doubled-seqav", "cc-tiebreak-seqav"):
        argv = ["axioms", rule, "monotone", "--max-m", "4", "--max-voters", "3"]
        yield f"axioms-{rule}-monotone-m4-n3", argv
    for construction in witnesses.CONSTRUCTIONS:
        for table_name in NAMED_TABLES:
            for m in ("3", "4", "6"):
                argv = ["witness", construction, table_name, "--m", m]
                yield f"witness-{construction}-{table_name}-m{m}", argv
    singletons = str(workdir / "singletons-m8.txt")
    yield "error-witness-unknown", ["witness", "T9", "seqav"]
    yield "error-compute-k-range", ["compute", "seqav", singletons, "99"]
    yield "error-compute-branch-cap", ["compute", "seqav", singletons, "4", "--branch-cap", "20"]
    argv = ["compute", "seqav", str(workdir / "singletons-m12-full.txt"), "6", "--branch-cap", "923"]
    yield "error-compute-branch-cap-last-level", argv
    for table_name in invalid:
        argv = ["compute", "table", str(table_profile), "1", "--table", str(tables[table_name])]
        yield f"error-compute-{table_name}", argv
    argv = ["axioms", "voter1-doubled-seqav", "all", "--max-voters", "13"]
    yield "error-axioms-universe-cap", argv


def write_outputs(outdir: Path) -> None:
    """Run every case in this interpreter and write ``exit <code>``, stdout
    and stderr (with the temporary input directory's path replaced)."""
    from seqvote.cli import main

    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in cases(Path(tmp)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            stderr = err.getvalue().replace(tmp, "<inputs>")
            text = f"exit {code}\n{out.getvalue()}--- stderr\n{stderr}"
            (outdir / f"{name}.txt").write_text(text)


def run_tree(tree: Path, outdir: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, __file__, "--write", str(outdir)]
    subprocess.run(argv, env=env, cwd=tree, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("other", nargs="?", help="root of the checkout to compare against")
    parser.add_argument("--write", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.write:
        write_outputs(Path(args.write))
        return 0
    if not args.other:
        parser.error("give the root of the checkout to compare against")
    with tempfile.TemporaryDirectory() as tmp:
        here, there = Path(tmp, "this"), Path(tmp, "other")
        run_tree(REPO, here)
        run_tree(Path(args.other).resolve(), there)
        names = sorted(p.name for p in here.iterdir())
        missing = sorted({p.name for p in there.iterdir()} ^ set(names))
        differ = [n for n in names if (there / n).exists()
                  and (here / n).read_bytes() != (there / n).read_bytes()]
    print(f"compared {len(names)} outputs: {len(differ)} differ, {len(missing)} missing")
    for name in differ + missing:
        print(f"  {name}")
    return 1 if differ or missing else 0


if __name__ == "__main__":
    sys.exit(main())
