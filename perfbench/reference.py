"""Independent expected results for the benchmark's correctness checks.

Nothing here imports seqvote.  Committee families come from a literal
tie-branching recursion over the paper's counting functions, and the
expected ``seqvote compute`` report is rendered from it in the CLI's
documented format (sorted keys, rationals as ``p/q``, no timestamps).
Axiom verdicts are the ones the paper fixes for the rule and bounds.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction


def harmonic(x: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, x + 1)), Fraction(0))


# value(x, y, z): a voter approving x members of a size-y committee, with a
# ballot of size z.
VALUES = {
    "seqav": lambda x, y, z: Fraction(x),
    "seqpav": lambda x, y, z: harmonic(x),
    "seqsav": lambda x, y, z: Fraction(x, z),
    "av-cc-alternating": lambda x, y, z: Fraction(x if y % 2 else min(x, 1)),
}


def electorate(ballots) -> list[tuple[int, int, int]]:
    """Distinct ballots as (candidate bit mask, ballot size, voter count)."""
    counts = Counter(frozenset(b) for b in ballots)
    return [(sum(1 << c for c in b), len(b), n) for b, n in counts.items()]


def score(rule: str, voters, committee: frozenset) -> Fraction:
    """Total score of ``committee`` over ``voters`` (see :func:`electorate`)."""
    value = VALUES[rule]
    mask = sum(1 << c for c in committee)
    cells = Counter()
    for ballot, size, n in voters:
        cells[(ballot & mask).bit_count(), size] += n
    y = len(committee)
    return sum((n * value(x, y, z) for (x, z), n in cells.items()), Fraction(0))


def _extensions(rule: str, m: int, voters, parent: frozenset) -> dict[int, Fraction]:
    return {c: score(rule, voters, parent | {c}) for c in range(m) if c not in parent}


def sequential(rule: str, m: int, ballots, k: int):
    """Families ``f(A, 0..k)`` keeping every tied branch, with the score of
    every extension of every parent, level by level."""
    voters = electorate(ballots)
    families = [frozenset({frozenset()})]
    scores = []
    for _ in range(k):
        level: dict[frozenset, dict[int, Fraction]] = {}
        nxt = set()
        for parent in families[-1]:
            s = level[parent] = _extensions(rule, m, voters, parent)
            best = max(s.values())
            nxt.update(parent | {c} for c, v in s.items() if v == best)
        families.append(frozenset(nxt))
        scores.append(level)
    return families, scores


def first_tie(rule: str, m: int, ballots) -> int | None:
    """The first committee size whose extension is tied, or None if the
    rule elects a unique committee at every size up to m."""
    voters = electorate(ballots)
    committee = frozenset()
    for size in range(m):
        s = _extensions(rule, m, voters, committee)
        best = max(s.values())
        top = [c for c, v in s.items() if v == best]
        if len(top) > 1:
            return size
        committee |= {top[0]}
    return None


def _family(family) -> list:
    return sorted((sorted(c) for c in family), key=json.dumps)


def _numeric(committee) -> tuple:
    return tuple(sorted(committee))


def render_compute(rule: str, m: int, k: int, profile_text: str, families, scores) -> str:
    """The expected stdout of ``seqvote compute <rule> <file> <k>``."""
    steps = []
    for j in range(1, k + 1):
        per_parent = [
            {
                "parent": sorted(parent),
                "scores": {str(c): str(v) for c, v in scores[j - 1][parent].items()},
                "extensions": _family(W for W in families[j] if parent < W),
            }
            for parent in sorted(families[j - 1], key=_numeric)
        ]
        steps.append({"size": j, "chosen": _family(families[j]), "per_parent": per_parent})
    report = {
        "command": "compute",
        "rule": rule,
        "m": m,
        "k": k,
        "input_digest": hashlib.sha256(profile_text.encode()).hexdigest(),
        "trace": [{"size": j, "committees": _family(families[j])} for j in range(k + 1)],
        "steps": steps,
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# Verdicts of ``seqvote axioms <rule> all`` that the paper fixes, keyed by
# (axiom, subject) and the smallest m at which the bounded search can see
# them.  The derived-generator consistency probe is left out on purpose:
# its verdict on the sequential Thiele rules is an open checker question.
_PROPER = {
    ("anonymity", "{r}"): "pass-exhaustive",
    ("neutrality", "{r}"): "pass-exhaustive",
    ("continuity", "{r}"): "pass",
    ("non-imposition", "{r}"): "pass",
    ("proper", "{r}"): "pass",
    ("committee-monotonicity", "{r}"): "pass-exhaustive",
    ("generator-consistency", "step({r})"): "pass-exhaustive",
}
PAPER_VERDICTS = {
    # Sequential PAV: proper and consistent, satisfies distrust and clone
    # proportionality, independence of losers and committee separability;
    # fails clone rejection and clone acceptance (seen from m=3 on).
    "seqpav": {
        2: {
            **_PROPER,
            ("distrust", "{r}"): "pass-exhaustive",
            ("clone-proportionality", "{r}"): "pass-exhaustive",
            ("independence-of-losers", "{r}"): "pass-exhaustive",
            ("committee-separability", "{r}"): "pass-exhaustive",
            ("information-basis", "{r}"): "pass-exhaustive",
        },
        3: {
            ("clone-rejection", "{r}"): "violation",
            ("clone-acceptance", "{r}"): "violation",
        },
    },
    # The zoo rule that gives up anonymity and keeps the other universal
    # axioms of a proper sequential rule.
    "voter1-doubled-seqav": {
        2: {
            ("anonymity", "{r}"): "violation",
            ("proper", "{r}"): "violation",
            ("neutrality", "{r}"): "pass-exhaustive",
            ("committee-monotonicity", "{r}"): "pass-exhaustive",
            ("generator-consistency", "step({r})"): "pass-exhaustive",
        },
    },
}


def axioms_failures(rule: str, report: dict) -> list[str]:
    """Paper-fixed verdicts that ``report`` (parsed ``axioms`` JSON) gets wrong."""
    expected = PAPER_VERDICTS[rule]
    problems = []
    for run in report["runs"]:
        m = run["m"]
        seen = {(r["axiom"], r["subject"]): r["verdict"] for r in run["reports"]}
        for from_m, verdicts in expected.items():
            if m < from_m:
                continue
            for (axiom, subject), verdict in verdicts.items():
                key = (axiom, subject.format(r=rule))
                if seen.get(key) != verdict:
                    problems.append(f"m={m} {key}: {seen.get(key)} != {verdict}")
    return problems
