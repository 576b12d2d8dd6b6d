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
  {0, 1, m/2, m}, plus a counting-table file with h(0) != 0;
- ``seqvote axioms <rule> all --max-voters 2`` and ``3``, ``all --max-m 4
  --max-voters 2``, and ``clones --max-m 4 --max-voters 3`` (profiles at m=4
  with repeated ballots), for every rule;
- ``seqvote witness <construction> <table> --m <m>`` for every
  construction, named table and m in {3, 4, 6};
- error runs: an unknown witness construction (argparse usage error), a
  committee size out of range, a ``compute --branch-cap`` that is hit, and
  an ``axioms`` universe over its cap;

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
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TABLE_TEXT = "h(0)=1/3\nh(1)=3/2\nh(2)=2\nh(3)=9/4\nh(4)=5/2\n"
NAMED_TABLES = ("seqav", "seqpav", "seqccav", "clone-trusting")
SEED = 2023  # of the random profiles


def profile_text(m: int, ballots) -> str:
    return f"m={m}\n" + "".join(f"1: {' '.join(map(str, sorted(b)))}\n" for b in ballots)


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


def cases(workdir: Path):
    """``(name, argv)`` for every output to compare."""
    from seqvote import catalog, witnesses

    table = workdir / "table.cfg"
    table.write_text(TABLE_TEXT)
    for name, text in profiles().items():
        path = workdir / f"{name}.txt"
        path.write_text(text)
        m = int(text.split("\n", 1)[0][2:])
        for k in sorted({0, 1, m // 2, m}):
            for rule in catalog.RULE_NAMES:
                argv = ["compute", rule, str(path), str(k)]
                yield f"compute-{rule}-{name}-k{k}", argv
                yield f"compute-{rule}-{name}-k{k}-pretty", argv + ["--pretty"]
            if m == 4:
                argv = ["compute", "table", str(path), str(k), "--table", str(table)]
                yield f"compute-table-{name}-k{k}", argv
                yield f"compute-table-{name}-k{k}-pretty", argv + ["--pretty"]
    for rule in catalog.RULE_NAMES:
        for n in ("2", "3"):
            yield f"axioms-{rule}-n{n}", ["axioms", rule, "all", "--max-voters", n]
        argv = ["axioms", rule, "all", "--max-m", "4", "--max-voters", "2"]
        yield f"axioms-{rule}-m4-n2", argv
        argv = ["axioms", rule, "clones", "--max-m", "4", "--max-voters", "3"]
        yield f"axioms-{rule}-clones-m4-n3", argv
    for construction in witnesses.CONSTRUCTIONS:
        for table_name in NAMED_TABLES:
            for m in ("3", "4", "6"):
                argv = ["witness", construction, table_name, "--m", m]
                yield f"witness-{construction}-{table_name}-m{m}", argv
    singletons = str(workdir / "singletons-m8.txt")
    yield "error-witness-unknown", ["witness", "T9", "seqav"]
    yield "error-compute-k-range", ["compute", "seqav", singletons, "99"]
    yield "error-compute-branch-cap", ["compute", "seqav", singletons, "4", "--branch-cap", "20"]
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
