"""Tests of the benchmark itself (not of seqvote).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7, tmp_path / "a" / name)
        b = workloads.build(name, 7, tmp_path / "b" / name)
        assert [op.name for op in a.ops] == [op.name for op in b.ops]
        assert _files(tmp_path / "a" / name) == _files(tmp_path / "b" / name)


def test_seed_changes_the_inputs(tmp_path):
    for name in ("compute-large", "compute-ties"):
        a = workloads.build(name, 1, tmp_path / "a" / name)
        b = workloads.build(name, 2, tmp_path / "b" / name)
        assert len(a.ops) == len(b.ops)
        assert _files(tmp_path / "a" / name) != _files(tmp_path / "b" / name)


def test_compute_large_never_ties():
    for rule in workloads.LARGE_RULES:
        ballots = workloads.large_ballots(3, rule)
        assert len(ballots) == workloads.LARGE_N
        assert all(1 <= len(b) <= 6 for b in ballots)
        families, _ = reference.sequential(rule, workloads.LARGE_M, ballots, workloads.LARGE_M)
        assert all(len(f) == 1 for f in families)


def test_compute_ties_stays_under_the_branch_cap():
    """The engine traces to m, so every level up to m must fit the default
    cap of 100k committees."""
    widest = {}
    for op, rule, m, _, kind in workloads.TIES:
        families, _ = reference.sequential(rule, m, workloads.ties_ballots(kind, m, 1), m)
        widest[kind] = max(len(f) for f in families)
        assert widest[kind] <= 100_000, op
    assert widest["singletons"] == math.comb(12, 6)


def _trace(rows, counters=None) -> spans.Trace:
    """A synthetic trace from (name, parent index, start, end) rows."""
    names = sorted({r[0] for r in rows})
    return spans.Trace(
        names,
        array("i", [names.index(r[0]) for r in rows]),
        array("i", [r[1] for r in rows]),
        array("d", [r[2] for r in rows]),
        array("d", [r[3] for r in rows]),
        counters or {},
    )


def test_self_time_is_span_minus_children():
    #  cli.main [0,10]
    #    cli.parse_profile [1,4]
    #    engine.trace [5,9]
    #      counting.committee_score [6,8]
    trace = _trace([
        ("cli.main", -1, 0.0, 10.0),
        ("cli.parse_profile", 0, 1.0, 4.0),
        ("engine.trace", 0, 5.0, 9.0),
        ("counting.committee_score", 2, 6.0, 8.0),
    ])
    duration, own = spans.self_times(trace.parent, trace.start, trace.end)
    assert duration == [10.0, 3.0, 4.0, 2.0]
    assert own == [3.0, 3.0, 2.0, 2.0]
    assert sum(own) == duration[0]


def test_nested_spans_of_one_group_count_once():
    #  profiles.from_ballots [0,5] builds profiles.Profile [3,5]; a second,
    #  separate profiles.Profile [6,7]; committee_score inside a
    #  committee_score [8,10] > [8.5,9.5]
    trace = _trace([
        ("profiles.from_ballots", -1, 0.0, 5.0),
        ("profiles.Profile", 0, 3.0, 5.0),
        ("profiles.Profile", -1, 6.0, 7.0),
        ("counting.committee_score", -1, 8.0, 10.0),
        ("counting.committee_score", 3, 8.5, 9.5),
    ])
    totals = spans.group_totals(trace)
    assert totals["profiles.build"].calls == 3
    assert totals["profiles.build"].inclusive == 6.0
    assert totals["profiles.build"].own == 6.0
    assert totals["counting.committee_score"].inclusive == 2.0
    metrics = spans.layer_metrics([trace])
    assert metrics["profiles.constructed"] == 2
    assert metrics["profiles.build_s"] == 6.0
    assert metrics["counting.committee_score_calls"] == 2


def test_cmd_compute_self_time_excludes_its_children():
    trace = _trace([
        ("cli.cmd_compute", -1, 0.0, 10.0),
        ("cli.parse_profile", 0, 0.5, 1.0),
        ("engine.trace", 0, 1.0, 6.0),
        ("counting.committee_score", 0, 6.0, 8.0),
        ("cli.render", 0, 8.0, 9.5),
    ], {"engine.trace_misses": 1})
    metrics = spans.layer_metrics([trace, trace])
    assert metrics["cli.cmd_compute.self_s"] == 2 * 1.0
    assert metrics["cli.render_s"] == 2 * 1.5
    assert metrics["engine.trace_miss_ratio"] == 1.0


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [w["name"] for w in SPEC["workloads"]] + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_every_emitted_metric_is_declared_with_its_unit():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run("compute-ties", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        emitted = {name: v["unit"] for name, v in result["metrics"].items()}
        assert all(NAME.fullmatch(name) for name in emitted)
        assert emitted == declared
        if trace:
            assert result["metrics"]["cli.output_changed"]["value"] == 0


def test_wrappers_see_every_step_and_score(tmp_path):
    """Closed forms for seqav on m singleton voters, k = m/2, at m=14.

    Every committee ties, so the engine (which traces to m) steps once per
    committee of size < m, 2^m - 1 times, and scores each of their
    extensions, m * 2^(m-1) calls; ``cmd_compute`` then rescores every
    extension of every parent below k, m * sum_{j<k} C(m-1, j) calls.
    These are the counts of the engine the benchmark was defined on; an
    engine that does less work (tracing only to k, or not rescoring) has
    other closed forms.
    """
    m, k = 14, 7
    path, trace_file = tmp_path / "singletons.txt", tmp_path / "trace.bin"
    path.write_text(workloads.profile_text(m, [{c} for c in range(m)]))
    spec = {"kind": "cli", "argv": ["compute", "seqav", str(path), str(k)]}
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(ROOT), json.dumps(spec),
         str(tmp_path / "probe.json"), str(trace_file)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    metrics = spans.layer_metrics([spans.read_trace(trace_file)])
    assert metrics["engine.step_calls"] == 2**m - 1 == 16_383
    rescored = m * sum(math.comb(m - 1, j) for j in range(k))
    assert metrics["counting.committee_score_calls"] == m * 2 ** (m - 1) + rescored == 172_032
    assert metrics["engine.frontier_max"] == math.comb(m, k)
