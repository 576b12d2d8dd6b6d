"""Brute-force ground truth: profile enumeration and optimizing rules.

Everything here enumerates in a fixed canonical order (ballots by size then
members; a profile as the tuple of its voters' ballot indices, multisets in
``combinations_with_replacement`` order and sequences in ``product`` order),
so "first witness" style answers are stable across runs and platforms.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .counting import Valuation, committee_score
from .engine import Family, Rule
from .profiles import BallotCounts, CapError, Profile, Record, ballot_sort_key, lazy

DEFAULT_COMMITTEE_CAP = 10**6
DEFAULT_UNIVERSE_CAP = 10**6


class EnumerationCapError(RuntimeError, CapError):
    """An enumeration would exceed its configured cap."""


def all_ballots(m: int) -> tuple[frozenset[int], ...]:
    """All non-empty ballots over ``0..m-1`` in canonical order."""
    ballots = []
    for size in range(1, m + 1):
        for members in itertools.combinations(range(m), size):
            ballots.append(frozenset(members))
    return tuple(sorted(ballots, key=ballot_sort_key))


def committees_of_size(m: int, k: int, cap: int = DEFAULT_COMMITTEE_CAP):
    if math.comb(m, k) > cap:
        raise EnumerationCapError(f"{math.comb(m, k)} committees exceed cap {cap}")
    return tuple(frozenset(c) for c in itertools.combinations(range(m), k))


def all_committees(m: int, max_size: int | None = None) -> tuple[frozenset[int], ...]:
    """Committees of every size up to ``max_size`` (default m), canonical order."""
    top = m if max_size is None else max_size
    out = [frozenset()]
    for k in range(1, top + 1):
        out.extend(committees_of_size(m, k))
    return tuple(out)


class ProfileUniverse(Record):
    """All profiles with 1..``max_voters`` voters over m candidates, streamed.

    An item of the universe is a tuple of indices into :attr:`ballots`:
    voter i casts ``ballots[item[i - 1]]``.  The anonymous universe (the
    default) holds ballot multisets, one non-decreasing item each, in
    ``itertools.combinations_with_replacement`` order per voter count.  The
    ``ordered`` universe, for id-sensitive rules, holds ballot sequences,
    every item in ``itertools.product`` order per voter count.  Iteration
    yields the items' profiles; an anonymous item's profile is canonical
    (ids 1..n, ballots in canonical order).

    The size is checked against the closed form, and
    :class:`EnumerationCapError` raised, before anything is yielded; nothing
    is kept between yields but the orbit marks of :meth:`representatives`,
    whose relabeling tables are capped too.
    """

    m: int
    max_voters: int
    cap: int = DEFAULT_UNIVERSE_CAP
    ordered: bool = False

    def count(self, n: int) -> int:
        """Closed form: size-n multisets (or sequences) of the 2^m - 1 ballots."""
        kinds = 2**self.m - 1
        return kinds**n if self.ordered else math.comb(kinds + n - 1, n)

    def total(self) -> int:
        return sum(self.count(n) for n in range(1, self.max_voters + 1))

    @lazy
    def ballots(self) -> tuple[frozenset[int], ...]:
        """The ballot kinds, :func:`all_ballots`, validated once per universe."""
        return all_ballots(self.m)

    @lazy
    def index(self) -> dict[frozenset[int], int]:
        """Each ballot's position in :attr:`ballots`."""
        return {ballot: i for i, ballot in enumerate(self.ballots)}

    def items(self) -> Iterator[tuple[int, ...]]:
        """Every item of the universe, in canonical order."""
        if self.total() > self.cap:
            raise EnumerationCapError(
                f"universe holds {self.total()} profiles, cap is {self.cap}"
            )
        kinds = range(len(self.ballots))
        voters = range(1, self.max_voters + 1)
        if self.ordered:
            per_count = (itertools.product(kinds, repeat=n) for n in voters)
        else:
            per_count = (itertools.combinations_with_replacement(kinds, n) for n in voters)
        return itertools.chain.from_iterable(per_count)

    def relabeling(self, tau: Sequence[int]) -> tuple[int, ...]:
        """The candidate relabeling ``tau`` (candidate c becomes ``tau[c]``)
        as a table over ballot indices: ballot i becomes ballot ``table[i]``."""
        index = self.index
        return tuple(index[frozenset(tau[c] for c in ballot)] for ballot in self.ballots)

    def relabeled(self, item: Sequence[int], table: Sequence[int]) -> tuple[int, ...]:
        """The item of ``item``'s profile relabeled by the :meth:`relabeling`
        ``table``: voter i keeps its place in an ordered universe, and an
        anonymous item is sorted."""
        image = map(table.__getitem__, item)
        return tuple(image) if self.ordered else tuple(sorted(image))

    @lazy
    def relabelings(self) -> tuple[tuple[int, ...], ...]:
        """The :meth:`relabeling` table of every permutation of the
        candidates, in ``itertools.permutations`` order."""
        return tuple(map(self.relabeling, itertools.permutations(range(self.m))))

    def representatives(self, fixing: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
        """The first item of each orbit under candidate relabeling, in
        canonical order; with ``fixing``, an item, under the relabelings
        that map it to itself.

        An item no earlier orbit holds is yielded, and the rest of its
        orbit marked; a marked item is unmarked when it is reached, so the
        marks never outnumber the items still ahead.  Where the tables of
        :attr:`relabelings` would hold more than :attr:`cap` entries, every
        item is yielded and no table built: a search for the first violation
        in canonical order finds the same one over every item.
        """
        if math.factorial(self.m) * len(self.ballots) > self.cap:
            yield from self.items()
            return
        tables = self.relabelings
        if fixing is not None:
            tables = [table for table in tables if self.relabeled(fixing, table) == fixing]
            if len(tables) == 1:  # the identity alone: every item is its own orbit
                yield from self.items()
                return
        marked: set[tuple[int, ...]] = set()
        for item in self.items():
            if item in marked:
                marked.remove(item)
                continue
            marked.update(self.relabeled(item, table) for table in tables)
            marked.discard(item)
            yield item

    def counts(self, item: Sequence[int]) -> BallotCounts:
        """The ``ballot_counts`` of ``item``'s profile."""
        ballots = self.ballots
        return tuple((ballots[i], len(list(run))) for i, run in itertools.groupby(sorted(item)))

    def profile(self, item: Sequence[int]) -> Profile:
        """The profile where voter i casts ``ballots[item[i - 1]]``."""
        votes = tuple(enumerate(map(self.ballots.__getitem__, item), 1))
        return Profile(self.m, votes, checked=True)

    def key(self, item: Sequence[int]) -> Profile | BallotCounts:
        """What :meth:`Rule.trace` takes for ``item``: its profile in an ordered
        universe, its ballot counts in an anonymous one."""
        return self.profile(item) if self.ordered else self.counts(item)

    def __iter__(self) -> Iterator[Profile]:
        return map(self.profile, self.items())


def brute_force_optimal(
    valuation: Valuation, profile: Profile, k: int, cap: int = DEFAULT_COMMITTEE_CAP
) -> Family:
    """All size-``k`` committees with maximal total score, by full enumeration."""
    if not 0 <= k <= profile.m:
        raise ValueError(f"committee size {k} outside 0..{profile.m}")
    best = None
    winners = []
    for committee in committees_of_size(profile.m, k, cap):
        score = committee_score(valuation, profile, committee)
        if best is None or score > best:
            best, winners = score, [committee]
        elif score == best:
            winners.append(committee)
    return frozenset(winners)


def optimizing_rule(valuation: Valuation, m: int, name: str) -> Rule:
    """The rule that directly maximizes the total score at every size."""
    return Rule(
        name,
        m,
        "oracle",
        apply_direct=lambda a, k: brute_force_optimal(valuation, a, k),
        valuation=valuation,
        violates="consistent committee monotonicity",
    )


def compare_rules(
    r1: Rule,
    r2: Rule,
    universe: ProfileUniverse,
    sizes: Sequence[int] | None = None,
):
    """First ``(profile, k)`` where the rules disagree, or None if none exists.

    "First" is with respect to the canonical enumeration order, with sizes
    checked in increasing order per profile.
    """
    if r1.m != r2.m or r1.m != universe.m:
        raise ValueError("rules and universe must share m")
    if sizes is None:
        sizes = range(universe.m + 1)
    for profile in universe:
        for k in sizes:
            fam1, fam2 = r1.apply(profile, k), r2.apply(profile, k)
            if fam1 != fam2:
                return profile, k, fam1, fam2
    return None
