"""Gain rows: the axiom checkers' traces of valuation steps, without profiles.

A rule given only a valuation, table or ``fn``, steps by
:func:`seqvote.engine.generator_step`: at a committee W it chooses the
candidates outside W with the largest :func:`~seqvote.engine.extension_gains`,
a sum of one term per voter.  So a row, one voter's extension gains scaled
by one positive factor per committee, adds exactly over electorates, and the
factor keeps every argmax at W and every ratio of two gain differences
there.  The checkers of :mod:`seqvote.axioms` trace their universes' items,
the unions of pairs and continuity's ``jA + B`` from sums of rows
(:class:`GainRows`), with no :class:`~seqvote.profiles.Profile` and no pass
over ballots.

A row has one slot per committee W of size at most m - 2 and candidate
outside W, so its length grows exponentially with m: only the checkers,
whose universes are small, build rows, and ``seqvote compute`` never
imports this module.
"""

from __future__ import annotations

from collections import OrderedDict
from math import lcm
from operator import add

from .counting import Valuation
from .engine import TRACE_CACHE_SIZE, BranchCapError, Family, Rule, extension_gains, step_valuation
from .oracle import all_ballots, all_committees
from .profiles import Profile


def rule_valuation(rule: Rule) -> Valuation | None:
    """The valuation the rule's step maximizes (:func:`step_valuation`), if
    the rule reads no voter ids, else None: the valuation whose gains give
    the rule gain rows and whose score gaps certify its continuity."""
    return None if rule.id_sensitive else step_valuation(rule.step)


def gain_rows(rule: Rule) -> GainRows | None:
    """Gain rows for a rule with a :func:`rule_valuation`, or None: every
    other rule is traced by stepping profiles.  They are built once per rule
    and valuation, and the rule holds them."""
    valuation = rule_valuation(rule)
    if valuation is None:
        return None
    rows = rule.gain_rows
    if rows is None or rows.valuation is not valuation:
        rows = rule.gain_rows = GainRows(valuation, rule.m)
    return rows


class GainRows:
    """The gain rows of one valuation over the ballots of m candidates.

    :attr:`slots` maps every committee W of size at most m - 2, in
    :func:`all_committees` order, to ``(first, end, outside, children)``:
    W's slots ``[first, end)`` of a row hold the gains of the candidates
    ``outside`` W, in increasing order, and ``children`` are the committees
    W + c in the same order.  Row ``i`` holds the :func:`extension_gains` of
    one voter casting ballot ``i`` of :func:`all_ballots`, W's slots times
    the lcm of their denominators over all ballots.  An item, a tuple of
    ballot indices, has the gains ``G(item[:-1]) + row[item[-1]]``,
    memoized per item (at most :data:`TRACE_CACHE_SIZE`, oldest evicted
    first; a miss rebuilds from the rows); the union of two electorates has
    ``G(a) + G(b)``, and ``jA + B`` has ``j * G(A) + G(B)``.  A committee of
    size m - 1 has one outside candidate, so the last step is always the
    full committee and has no slots.
    """

    def __init__(self, valuation: Valuation, m: int):
        self.valuation = valuation
        self.m = m
        self.full = frozenset(range(m))
        self.slots: dict[frozenset, tuple[int, int, tuple[int, ...], tuple[frozenset, ...]]] = {}
        voters = [Profile.from_counts(m, ((ballot, 1),), checked=True) for ballot in all_ballots(m)]
        self.rows: list[list[int]] = [[] for _ in voters]
        start = 0
        for W in all_committees(m, m - 2):
            outside = tuple(c for c in range(m) if c not in W)
            self.slots[W] = (start, start + len(outside), outside, tuple(W | {c} for c in outside))
            start += len(outside)
            gains = [extension_gains(valuation, voter, W).values() for voter in voters]
            scale = lcm(*(gain.denominator for at in gains for gain in at))
            for row, at in zip(self.rows, gains):
                row.extend(gain.numerator * (scale // gain.denominator) for gain in at)
        self.zero = [0] * start
        self.memo: OrderedDict[tuple[int, ...], list[int]] = OrderedDict()

    def gains(self, item: tuple[int, ...]) -> list[int]:
        """The gains of the electorate casting the ballots of ``item``."""
        if not item:
            return self.zero
        memo = self.memo
        gains = memo.get(item)
        if gains is None:
            gains = memo[item] = list(map(add, self.gains(item[:-1]), self.rows[item[-1]]))
            if len(memo) > TRACE_CACHE_SIZE:
                memo.popitem(last=False)
        return gains

    def at(self, gains: list[int], W: frozenset) -> dict[int, int]:
        """``{c: gain}`` at ``W``, as :func:`seqvote.engine.extension_gains` gives it."""
        first, end, outside, _ = self.slots[W]
        return dict(zip(outside, gains[first:end]))

    def trace(self, gains: list[int], k: int, branch_cap: int) -> tuple[Family, ...]:
        """``(f(A,0), ..., f(A,k))`` of the electorate A with ``gains``, as
        :func:`seqvote.engine.step_trace` runs it, :class:`BranchCapError`
        included."""
        slots = self.slots
        family = frozenset({frozenset()})
        families = [family]
        for size in range(1, k + 1):
            if size < self.m:
                frontier = set()
                for W in family:
                    first, end, _, children = slots[W]
                    scores = gains[first:end]
                    best = max(scores)
                    frontier.update(U for U, score in zip(children, scores) if score == best)
            else:
                frontier = {self.full}
            if len(frontier) > branch_cap:
                raise BranchCapError(f"more than {branch_cap} tied committees")
            family = frozenset(frontier)
            families.append(family)
        return tuple(families)
