"""Span files written by ``child.py`` and the per-layer metrics built from them.

A span file is one JSON header line (span names, span count, counters)
followed by four packed columns of equal length: name index (int32), parent
span index (int32, -1 for a root), start and end (float64, seconds).  A
parent always precedes its children, and a child's interval lies inside its
parent's, because every span is a synchronous call in one thread.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from pathlib import Path

AXIOM_CHECKS = (
    "anonymity",
    "neutrality",
    "continuity",
    "non_imposition",
    "committee_monotonicity",
    "generator_consistency",
    "clone",
    "independence_of_losers",
    "committee_separability",
    "information_basis",
)


@dataclass
class Trace:
    """The spans and counters of one op."""

    names: list[str]
    name: array
    parent: array
    start: array
    end: array
    counters: dict[str, int]


def read_trace(path: Path) -> Trace:
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        n = header["spans"]
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array(code)
            column.fromfile(src, n)
            columns.append(column)
    return Trace(header["names"], *columns, header["counters"])


def self_times(parent, start, end) -> tuple[list[float], list[float]]:
    """Each span's duration, and its self time: duration minus its children's.

    Children of one span never overlap (calls are synchronous), so the part
    of the parent's interval they cover is the sum of their durations.
    """
    duration = [e - s for s, e in zip(start, end)]
    own = list(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= duration[i]
    return duration, own


def group_of(name: str) -> str:
    """The per-layer group a span name reports under."""
    return "profiles.build" if name.startswith("profiles.") else name


@dataclass
class GroupTotals:
    calls: int = 0
    inclusive: float = 0.0  # spans with no ancestor in the same group
    own: float = 0.0  # sum of self times


def group_totals(trace: Trace) -> dict[str, GroupTotals]:
    """Calls, inclusive time and self time per group.

    Inclusive time counts only the outermost span of a group on each path, so
    nested calls (``from_ballots`` building a ``Profile``) are not counted
    twice.
    """
    groups = [group_of(n) for n in trace.names]
    group_ids = {g: i for i, g in enumerate(dict.fromkeys(groups))}
    name_group = [group_ids[g] for g in groups]
    duration, own = self_times(trace.parent, trace.start, trace.end)
    totals = {g: GroupTotals() for g in group_ids}
    by_id = list(totals.values())
    ancestors = [0] * len(trace.name)  # bit mask of the groups above each span
    for i, (nid, p) in enumerate(zip(trace.name, trace.parent)):
        g = name_group[nid]
        if p >= 0:
            ancestors[i] = ancestors[p] | (1 << name_group[trace.name[p]])
        t = by_id[g]
        t.calls += 1
        t.own += own[i]
        if not ancestors[i] >> g & 1:
            t.inclusive += duration[i]
    return totals


def layer_metrics(traces: list[Trace]) -> dict[str, float]:
    """Per-layer metrics of one traced pass: one trace per op, summed.

    ``counting.valuation_cache_entries`` and ``engine.frontier_max`` are the
    largest value of any op, since each op is its own process.
    """
    out: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0) + value

    def top(name: str, value: float) -> None:
        out[name] = max(out.get(name, 0), value)

    for trace in traces:
        g = group_totals(trace)
        c = trace.counters
        none = GroupTotals()
        add("profiles.constructed", sum(1 for n in trace.name if trace.names[n] == "profiles.Profile"))
        add("profiles.ballots_validated", c.get("profiles.ballots_validated", 0))
        add("profiles.build_s", g.get("profiles.build", none).inclusive)
        score = g.get("counting.committee_score", none)
        add("counting.committee_score_calls", score.calls)
        add("counting.valuation_evals", c.get("counting.valuation_evals", 0))
        add("counting.committee_score_s", score.inclusive)
        top("counting.valuation_cache_entries", c.get("counting.valuation_cache_entries", 0))
        trace_group = g.get("engine.trace", none)
        add("engine.trace_calls", trace_group.calls)
        add("engine.trace_misses", c.get("engine.trace_misses", 0))
        add("engine.trace_s", trace_group.inclusive)
        step = g.get("engine.step", none)
        add("engine.step_calls", step.calls)
        add("engine.step_s", step.inclusive)
        add("engine.levels_traced", c.get("engine.levels_traced", 0))
        add("engine.levels_requested", c.get("engine.levels_requested", 0))
        top("engine.frontier_max", c.get("engine.frontier_max", 0))
        add("catalog.make_s", g.get("catalog.make", none).inclusive)
        for check in AXIOM_CHECKS:
            totals = g.get(f"axioms.{check}", none)
            add(f"axioms.{check}_s", totals.inclusive)
            add(f"axioms.{check}.self_s", totals.own)
        add("witnesses.build_s", g.get("witnesses.build", none).inclusive)
        add("cli.parse_profile_s", g.get("cli.parse_profile", none).inclusive)
        add("cli.cmd_compute.self_s", g.get("cli.cmd_compute", none).own)
        add("cli.render_s", g.get("cli.render", none).inclusive)
    misses = out.pop("engine.trace_misses", 0)
    calls = out.get("engine.trace_calls", 0)
    out["engine.trace_miss_ratio"] = misses / calls if calls else 0.0
    return out
