"""Per-instance axiom predicates: does one profile violate one axiom?

A predicate judges a single instance, given the rule's outcome on it, and
returns how the instance violates the axiom or None.  The bounded searches
of :mod:`seqvote.axioms` run a predicate over their universes, and the
witness replay of :mod:`seqvote.witnesses` runs the same predicate on the
witness it built, so a replayed witness is judged exactly as the checker
judges.  The module holds no search code: a ``witness`` op that imports it
loads neither the checkers nor their gain rows.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from .engine import Family
from .profiles import BallotCounts

CLONE_AXIOMS = ("rejection", "acceptance", "distrust", "proportionality")


def clone_pairs(m: int, counts: BallotCounts) -> list[tuple[int, int]]:
    """Candidate pairs approved by exactly the same voters."""
    return [
        (c, d)
        for c in range(m)
        for d in range(c + 1, m)
        if all((c in ballot) == (d in ballot) for ballot, _ in counts)
    ]


def clone_violation(
    which: str, m: int, counts: BallotCounts, trace: tuple[Family, ...]
) -> dict | None:
    """How one profile violates clone rejection, acceptance or distrust, if it does.

    ``counts`` are the profile's ballot counts and ``trace`` is the rule's
    ``(f(A,0), ..., f(A,K))`` on it; committee sizes above ``K`` are not
    examined, and neither is size m, which every rule fills completely.
    Returns the violation (without the profile), or None.
    """
    # (k, W) for every size k below m and above 0 that W wins alone
    unique = ((k, next(iter(fam))) for k, fam in enumerate(trace[1:m], 1) if len(fam) == 1)
    if which == "rejection":
        pairs = clone_pairs(m, counts)
        for k, W in unique:
            for c, d in pairs:
                if c in W and d in W:
                    return {"k": k, "committee": W, "clones": (c, d)}

    elif which == "acceptance":
        pairs = clone_pairs(m, counts)
        for c, d in pairs + [(d, c) for c, d in pairs]:
            rest = [x for x in range(m) if x not in (c, d)]
            for size in range(len(trace) - 2):
                for W in itertools.combinations(rest, size):
                    W = frozenset(W)
                    if W | {c} in trace[size + 1] and W | {c, d} not in trace[size + 2]:
                        return {
                            "committee": W, "clones": (c, d),
                            "wins": W | {c}, "excluded": W | {c, d},
                            "families": (trace[size + 1], trace[size + 2]),
                        }

    elif which == "distrust":
        exact, approvals = [0] * m, [0] * m
        for ballot, count in counts:
            if len(ballot) == 1:
                exact[next(iter(ballot))] += count
            for c in ballot:
                approvals[c] += count
        for k, W in unique:
            for b in sorted(W):
                for c in range(m):
                    if c not in W and exact[c] > approvals[b]:
                        return {
                            "k": k, "committee": W, "chosen": b, "ignored": c,
                            "singleton_reports": exact[c],
                            "approvals_of_chosen": approvals[b],
                        }

    else:
        raise ValueError(f"unknown clone axiom {which!r}")
    return None


def proportionality_violation(
    counts: Iterable[tuple[frozenset[int], int]], k: int, c: int, family: Family
) -> dict | None:
    """How the outcome ``family``, a rule's f(A, k), violates clone
    proportionality at size ``k``, if it does.

    ``counts`` are the profile's ``(ballot, multiplicity)`` pairs, in any
    order.  The axiom speaks of profiles where ``n1`` voters approve one
    bloc not containing ``c`` and ``n2`` voters approve ``{c}`` alone: a
    committee must include ``c`` when ``n1 / k < n2`` and exclude it when
    ``n1 / k > n2``.  Returns the violation (without the profile), or None,
    also for a profile of any other shape.
    """
    blocs = dict(counts)
    n2 = blocs.pop(frozenset({c}), 0)
    if not n2 or len(blocs) != 1:
        return None
    [(bloc, n1)] = blocs.items()
    if c in bloc:
        return None
    share = Fraction(n1, k)
    for W in family:
        bad_in = share > n2 and c in W
        bad_out = share < n2 and c not in W
        if bad_in or bad_out:
            return {
                "k": k, "committee": W, "c": c, "n1": n1, "n2": n2, "share": share,
                "requires": "exclude c" if bad_in else "include c",
            }
    return None
