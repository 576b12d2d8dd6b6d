"""What ``import seqvote`` and one ``seqvote compute``, ``axioms`` or
``witness`` op load.

Each check runs in a fresh interpreter started with ``-S``, so the modules
it sees are the ones seqvote imports, not those a site hook happens to load.
The last test, run in this process, resolves every annotation of the
package, since each names what its module must import.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path
from types import FunctionType

import seqvote

SRC = Path(seqvote.__file__).resolve().parent.parent

# Modules a compute run must not load: the checkers with their gain rows,
# the witness constructions and the enumerators, ``dataclasses`` with the
# ``inspect`` it imports, ``traceback``, which only the internal-error path
# needs, and ``pathlib``, which reading an input file does not need.
NOT_ON_THE_COMPUTE_PATH = (
    "seqvote.axioms",
    "seqvote.gains",
    "seqvote.witnesses",
    "seqvote.oracle",
    "dataclasses",
    "inspect",
    "traceback",
    "pathlib",
)

# Modules the checker and witness ops must not load: ``dataclasses`` with
# the ``inspect`` it imports (their records are ``profiles.Record``s),
# ``pathlib``, and ``hashlib``, which only a printed digest needs.
NOT_ON_THE_CHECKER_PATH = ("dataclasses", "inspect", "pathlib", "hashlib")

# Modules a witness op must not load: the bounded searches and their gain rows.
NOT_ON_THE_WITNESS_PATH = ("seqvote.axioms", "seqvote.gains")

OP = """
import io, json, sys
import seqvote.cli
sys.stdout = io.StringIO()
code = seqvote.cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

IMPORT = """
import json, sys
import seqvote
print(json.dumps(sorted(sys.modules)))
"""

RESOLVE = """
import json, sys
import seqvote
homes = {}
for name in seqvote.__all__:
    value = getattr(seqvote, name)
    home = value.__module__
    homes[name] = [home, getattr(sys.modules[home], name) is value]
print(json.dumps({"homes": homes, "dir": sorted(dir(seqvote))}))
"""


def fresh(code: str, *args: str):
    """Run ``code`` in a fresh interpreter; the JSON of its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_compute_loads_only_the_compute_path(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("m=4\n2: 0 1\n1: 2\n1: 1 2 3\n")
    run = fresh(OP, "compute", "seqsav", str(path), "3")
    assert run["code"] == 0
    assert [name for name in NOT_ON_THE_COMPUTE_PATH if name in run["modules"]] == []


def test_axioms_loads_no_record_or_digest_machinery():
    run = fresh(OP, "axioms", "seqpav", "proper", "--max-voters", "1")
    assert run["code"] == 0
    assert [name for name in NOT_ON_THE_CHECKER_PATH if name in run["modules"]] == []


def test_witness_loads_no_record_machinery():
    # the report carries the table's sha256 digest, so ``hashlib`` is
    # loaded; the replay's predicates come without the checkers
    run = fresh(OP, "witness", "T2", "seqpav", "--m", "4")
    assert run["code"] == 1
    assert [name for name in NOT_ON_THE_CHECKER_PATH if name in run["modules"]] == ["hashlib"]
    assert "seqvote.predicates" in run["modules"]
    assert [name for name in NOT_ON_THE_WITNESS_PATH if name in run["modules"]] == []


def test_import_seqvote_loads_no_submodule():
    modules = fresh(IMPORT)
    assert "seqvote" in modules
    assert [name for name in modules if name.startswith("seqvote.")] == []


def test_every_export_resolves_to_its_home_module():
    run = fresh(RESOLVE)
    assert sorted(run["homes"]) == sorted(seqvote.__all__)
    for name, (home, same) in run["homes"].items():
        assert home.startswith("seqvote.") and same, name
    assert set(seqvote.__all__) <= set(run["dir"])


def test_unknown_names_are_attribute_errors():
    assert not hasattr(seqvote, "no_such_name")
    from seqvote import catalog  # submodules still import through the package

    assert seqvote.catalog is catalog


def _annotated(module):
    """The functions and classes ``module`` defines, and the functions,
    properties' getters and class or static methods of those classes."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, FunctionType):
            yield value
        elif isinstance(value, type):
            yield value
            for member in vars(value).values():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if isinstance(member, FunctionType):
                    yield member


def test_every_annotation_resolves():
    # ``from __future__ import annotations`` leaves annotations as text, so
    # a name a module never imports goes unnoticed until a tool resolves it
    for info in pkgutil.iter_modules(seqvote.__path__):
        module = importlib.import_module(f"seqvote.{info.name}")
        for value in _annotated(module):
            typing.get_type_hints(value)
