"""Gain rows: the axiom checkers' traces of table-backed rules, without profiles.

A rule given only a table-backed valuation steps by
:func:`seqvote.engine.generator_step`: at a committee W it chooses the
candidates outside W with the largest integer gain of
``engine._scored_gains`` at size ``|W| + 1``.  That gain is a sum of one
term per voter, scaled by a factor that depends only on ``|W|`` and m, so
the gains of an electorate are the sum of its voters' terms and add exactly
over disjoint electorates.  :class:`GainRows` keeps each ballot's terms as
one flat int row, and the checkers of :mod:`seqvote.axioms` trace their
universes' items, the unions of pairs and continuity's ``jA + B`` from sums
of rows, with no :class:`~seqvote.profiles.Profile` and no pass over
ballots.

A row has one slot per committee W of size at most m - 2 and candidate
outside W, so its length grows exponentially with m: only the checkers,
whose universes are small, build rows, and ``seqvote compute`` never
imports this module.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import add

from .counting import Valuation
from .engine import TRACE_CACHE_SIZE, BranchCapError, Family, Rule, step_valuation
from .oracle import all_ballots, all_committees


def rule_valuation(rule: Rule) -> Valuation | None:
    """The valuation the rule's step maximizes (:func:`step_valuation`), if
    the rule reads no voter ids, else None: the valuation whose table gives
    the rule gain rows and whose score gaps certify its continuity."""
    return None if rule.id_sensitive else step_valuation(rule.step)


def gain_rows(rule: Rule) -> GainRows | None:
    """Gain rows for a rule that steps by a table valuation and reads no
    voter ids, or None: every other rule is traced by stepping profiles.
    They are built once per rule and valuation, and the rule holds them."""
    valuation = rule_valuation(rule)
    if valuation is None or valuation.counting is None:
        return None
    rows = rule.gain_rows
    if rows is None or rows.valuation is not valuation:
        rows = rule.gain_rows = GainRows(valuation, rule.m)
    return rows


class GainRows:
    """The gain rows of one table-backed valuation over the ballots of m candidates.

    :attr:`slots` maps every committee W of size at most m - 2, in
    :func:`all_committees` order, to ``(first, end, outside, children)``:
    W's slots ``[first, end)`` of a row hold the gains of the candidates
    ``outside`` W, in increasing order, and ``children`` are the committees
    W + c in the same order.  Row ``i`` holds what one voter casting ballot
    ``i`` of :func:`all_ballots` adds to each gain.  An item, a tuple of
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
        start = 0
        for W in all_committees(m, m - 2):
            outside = tuple(c for c in range(m) if c not in W)
            self.slots[W] = (start, start + len(outside), outside, tuple(W | {c} for c in outside))
            start += len(outside)
        self.zero = [0] * start
        self.rows = [self._row(valuation, ballot) for ballot in all_ballots(m)]
        self.memo: OrderedDict[tuple[int, ...], list[int]] = OrderedDict()

    def _row(self, valuation: Valuation, ballot: frozenset) -> list[int]:
        row = []
        for W, (_, _, outside, _) in self.slots.items():
            weight = valuation.level(len(W) + 1, self.m).gains[len(ballot & W)][len(ballot)]
            row.extend(weight if c in ballot else 0 for c in outside)
        return row

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
