"""Run one seqvote CLI op in a fresh interpreter and report its own peak RSS.

Usage::

    python3 tools/op_rss.py [--src DIR] -- axioms seqpav all --max-m 4 --max-voters 4

The op's stdout and exit code pass through unchanged, so the output can be
piped into ``sha256sum``.  At exit one line goes to stderr: the exit code,
the op's wall time, and ``ru_maxrss`` from ``getrusage(RUSAGE_SELF)`` read
inside the op's interpreter.  That interpreter is started by this small one,
not by the caller, so the number is the op's own peak: on Linux a process
started by fork or vfork and exec carries its spawner's resident peak, which
is why a large harness process reads its own size in ``os.wait4`` figures.
``--src`` picks the ``src`` directory to import seqvote from (default: this
checkout's), so two checkouts can be compared op by op.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

OP = """\
import resource, sys, time
start = time.perf_counter()
from seqvote.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"exit {code}  wall_s {wall:.2f}  peak_rss_mb {peak:.1f}", file=sys.stderr)
sys.exit(code)
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", default=str(REPO / "src"), help="directory holding the seqvote package")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the seqvote arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv:
        parser.error("give the seqvote arguments after --")
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    return subprocess.run([sys.executable, "-c", OP, *argv], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
