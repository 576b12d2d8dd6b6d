"""Record the stdout digests of the ops whose output no seed changes.

Run from the repository root, at the commit whose outputs are the
reference for ``cli.output_changed``::

    python3 perfbench/record_outputs.py

These are the ``axioms-enum`` ops.  Compute ops need no record: their
expected report is rendered from the benchmark's own reference recursion
for every seed.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import run
import workloads


def main() -> None:
    workdir = run.HERE / ".work" / "record-outputs"
    digests = {}
    try:
        for op in workloads.build("axioms-enum", 0, workdir).ops:
            out = run.spawn(op.spec, workdir)
            if op.problems(out.exit_code, out.stdout):
                raise SystemExit(f"{op.name} fails its check; not recording it")
            digests[op.name] = hashlib.sha256(out.stdout).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.BASELINE_OUTPUTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
