"""Sequential rule execution: generator steps, tie-branching runs, rules.

A committee family is a frozenset of frozensets of candidates, all of one
size; ties are always kept, never broken.  :func:`step_trace` keeps every
tied branch and raises :class:`BranchCapError` instead of pruning past the
cap, since silent pruning would corrupt the axiom checkers downstream.

Every table-backed score comes from one integer pass over the distinct
ballots, :func:`_scored_gains`, on a committee's bit mask (bit c is
candidate c): at a level with denominator ``D``, ``W + {c}`` scores ``(base
+ gain) / D``.  The public steps and scores go through it, as does
:meth:`Rule.scored_trace`, which traces a rule stepping by its valuation on
masks and hands ``base``, ``gain`` and ``D`` on unreduced; only a custom
``fn`` valuation is scored extension by extension, once per parent.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from .counting import ScaledLevel, Valuation, WeightTable, committee_score
from .profiles import BallotCounts, CapError, Profile, Record

Family = frozenset  # of frozenset[int]

DEFAULT_BRANCH_CAP = 100_000

#: Traces each rule keeps, least recently used evicted first.  An evicted
#: trace is recomputed on demand, so the bound costs time, never correctness.
TRACE_CACHE_SIZE = 1 << 14


class BranchCapError(RuntimeError, CapError):
    """Tie branching exceeded the configured committee cap."""


class NoCandidatesError(ValueError):
    """A generator step was asked to extend the full candidate set."""


_BIT = (1).__lshift__  # c -> 1 << c


def _argmax(scores: dict) -> frozenset[int]:
    best = max(scores.values())
    return frozenset(c for c, s in scores.items() if s == best)


def _outside(profile: Profile, committee: int) -> list[int]:
    outside = [c for c in range(profile.m) if not committee >> c & 1]
    if not outside:
        raise NoCandidatesError("committee already contains every candidate")
    return outside


def _scored_gains(
    level: ScaledLevel, profile: Profile, committee: int
) -> tuple[int, dict[int, int]]:
    """``(base, gains)`` of the committee W with bit mask ``committee``: a
    ballot of size ``z`` approving ``x`` members of W adds ``count *
    values[x][z]`` to ``base`` and ``count * gains[x][z]`` to each outside
    candidate it approves, so ``W + {c}`` scores ``(base + gains[c]) / D``;
    ``gains`` lists the outside candidates in increasing order."""
    values, rows = level.values, level.gains
    gains = dict.fromkeys(_outside(profile, committee), 0)
    base = 0
    for mask, count, z, members in profile.ballot_masks:
        x = (mask & committee).bit_count()
        base += count * values[x][z]
        weight = count * rows[x][z]
        if weight:
            for c in members:
                if c in gains:
                    gains[c] += weight
    return base, gains


def _scaled_gains(
    valuation: Valuation, profile: Profile, committee: int
) -> tuple[int, dict[int, int | Fraction], int]:
    """``(base, gains, D)`` of the committee W with bit mask ``committee``:
    ``W + {c}`` scores ``(base + gains[c]) / D``, from :func:`_scored_gains`
    at size ``|W| + 1``; a custom ``fn`` valuation scores each extension
    outright: ``(0, scores, 1)``."""
    if valuation.counting is None:
        outside = _outside(profile, committee)
        W = frozenset(c for c in range(profile.m) if committee >> c & 1)
        return 0, {c: committee_score(valuation, profile, W | {c}) for c in outside}, 1
    level = valuation.level(committee.bit_count() + 1, profile.m)
    return (*_scored_gains(level, profile, committee), level.denominator)


def extension_scores(
    valuation: Valuation, profile: Profile, committee: frozenset[int]
) -> dict[int, Fraction]:
    """Exact scores of ``W + {c}`` for every candidate ``c`` outside ``W``."""
    base, gains, scale = _scaled_gains(valuation, profile, sum(map(_BIT, committee)))
    return {c: Fraction(base + gain, scale) for c, gain in gains.items()}


def extension_gains(
    valuation: Valuation, profile: Profile, committee: frozenset[int]
) -> dict[int, int | Fraction]:
    """The scores of ``W + {c}`` up to an offset and a positive factor.

    For a table-backed valuation these are the level's integer gains of
    score ``(base + gain) / D``, where ``base`` depends on the profile and
    ``D`` only on ``|W|`` and m, so gains compare exactly across profiles.
    Other valuations get their exact scores.
    """
    return _scaled_gains(valuation, profile, sum(map(_BIT, committee)))[1]


def generator_step(
    valuation: Valuation, profile: Profile, committee: frozenset[int]
) -> frozenset[int]:
    """All candidates whose addition maximizes the committee score.

    This is the generator function of the sequential rule induced by
    ``valuation``: complete (never empty for a proper committee) and, since
    scores add over disjoint electorates, consistent.  A table-backed
    valuation takes one weighted approval step under the counting
    function's forward differences, on integers, so the tie is exact.
    """
    return _argmax(extension_gains(valuation, profile, committee))


def step_valuation(step) -> Valuation | None:
    """The valuation ``step`` maximizes, if ``step`` is
    :func:`generator_step` bound to one valuation, with no other argument,
    as a rule given only a valuation steps; None for any other step."""
    if isinstance(step, partial) and step.func is generator_step and len(step.args) == 1:
        valuation = step.args[0]
        if isinstance(valuation, Valuation) and not step.keywords:
            return valuation
    return None


def weighted_approval_step(
    weights: WeightTable, profile: Profile, committee: frozenset[int]
) -> frozenset[int]:
    """Single-winner weighted approval voting among the remaining candidates.

    Each voter contributes ``weights(x, z)`` to every remaining candidate she
    approves, where ``x`` counts her approved committee members and ``z`` her
    ballot size; the argmax set is returned.
    """
    return _argmax(_scored_gains(weights.scaled, profile, sum(map(_BIT, committee)))[1])


StepFn = Callable[[Profile, frozenset], frozenset]


def step_trace(
    step: StepFn,
    profile: Profile,
    k: int,
    branch_cap: int = DEFAULT_BRANCH_CAP,
    prefix: Optional[tuple[Family, ...]] = None,
) -> tuple[Family, ...]:
    """Run a generator step for ``k`` rounds, keeping all tied branches.

    Returns ``(f(A,0), ..., f(A,k))``; committees reached through different
    parents are merged.  A ``prefix`` ``(f(A,0), ..., f(A,j))`` traced with
    the same step and profile is extended rather than recomputed.

    Errors are raised level by level, and within a level a failing step
    outranks the cap: once the frontier passes ``branch_cap``, the level's
    other committees are stepped only to find a failing choice (a
    :class:`ValueError` for an empty one or one holding a member of its
    committee) or any error the step raises, and then
    :class:`BranchCapError` is raised.  So a level's error never depends on
    the order of its set, and the frontier never exceeds ``branch_cap + m``.
    """
    if not 0 <= k <= profile.m:
        raise ValueError(f"committee size {k} outside 0..{profile.m}")
    families = list(prefix) if prefix else [frozenset({frozenset()})]
    for _ in range(len(families) - 1, k):
        frontier = set()
        over = False
        for committee in families[-1]:
            extension = step(profile, committee)
            if not extension:
                raise ValueError("generator step returned no candidates mid-run")
            if not committee.isdisjoint(extension):
                inside, W = sorted(committee.intersection(extension)), sorted(committee)
                raise ValueError(f"generator chose {inside} from inside the committee {W}")
            if not over:
                frontier.update(committee | {c} for c in extension)
                over = len(frontier) > branch_cap
        if over:
            raise BranchCapError(f"more than {branch_cap} tied committees")
        families.append(frozenset(frontier))
    return tuple(families[: k + 1])


class Rule:
    """An executable committee voting rule ``(profile, k) -> family``.

    ``step`` (a generator function run sequentially) or ``apply_direct`` (an
    arbitrary per-size computation) drives the rule, and a rule given only a
    ``valuation`` steps by :func:`generator_step` over it.  A rule's
    ``valuation`` also gives the scores :meth:`scored_trace` reports.
    :meth:`trace` memoizes traces per profile, at most
    :data:`TRACE_CACHE_SIZE` per rule, anonymous rules by ballot counts (a
    profile given by its counts alone is only built on a miss).  The cache
    is for profiles that several callers ask about, such as a checker's
    universe; a profile built for one comparison (a union of two
    electorates, ``jA + B``) is traced outside it and leaves nothing behind.
    """

    def __init__(
        self,
        name: str,
        m: int,
        kind: str,
        *,
        step: Optional[StepFn] = None,
        apply_direct=None,
        valuation: Optional[Valuation] = None,
        id_sensitive: bool = False,
        violates: Optional[str] = None,
        branch_cap: int = DEFAULT_BRANCH_CAP,
    ):
        if step is not None and apply_direct is not None:
            raise ValueError("provide at most one of step/apply_direct")
        if step is None and apply_direct is None:
            if valuation is None:
                raise ValueError("provide one of step/apply_direct/valuation")
            step = partial(generator_step, valuation)
        self.name = name
        self.m = m
        self.kind = kind  # seq-thiele | step-thiele | step-scoring | zoo | oracle
        self.step = step
        self.apply_direct = apply_direct
        self.valuation = valuation
        self.id_sensitive = id_sensitive
        self.violates = violates
        self.branch_cap = branch_cap
        self._traces: OrderedDict[object, tuple[Family, ...]] = OrderedDict()
        self.gain_rows = None  # the checkers' GainRows, built by seqvote.gains.gain_rows

    def __repr__(self):
        return f"Rule({self.name!r}, m={self.m})"

    def trace(
        self, profile: Profile | BallotCounts, k: Optional[int] = None
    ) -> tuple[Family, ...]:
        """``(f(A,0), ..., f(A,k))``, cached per profile.

        ``profile`` is a :class:`Profile` or, for the canonical profile with
        ids 1..n, its ballot counts.  The cached trace is extended only as
        far as the largest ``k`` asked for, so a tie cap can only fire at a
        level that is reported.
        """
        if k is None:
            k = self.m
        if not 0 <= k <= self.m:
            raise ValueError(f"committee size {k} outside 0..{self.m}")
        if isinstance(profile, Profile):
            if profile.m != self.m:
                raise ValueError(f"profile has m={profile.m}, rule expects m={self.m}")
            key = profile if self.id_sensitive else profile.ballot_counts
        else:
            key = profile
        hit = self.cached(key, k)
        if hit is not None:
            return hit
        if not isinstance(profile, Profile):
            profile = Profile.from_counts(self.m, key)  # built only on a miss
        return self.remember(key, self.trace_uncached(profile, k, prefix=self._traces.get(key)))

    def cached(self, key, k: int) -> tuple[Family, ...] | None:
        """The cached ``(f(A,0), ..., f(A,k))`` under :meth:`trace`'s ``key``
        for A (the profile, or an anonymous rule's ballot counts), or None if
        the cache holds less; a hit counts as a use."""
        traces = self._traces
        cached = traces.get(key)
        if cached is not None and len(cached) > k:
            traces.move_to_end(key)
            return cached[: k + 1]
        return None

    def remember(self, key, trace: tuple[Family, ...]) -> tuple[Family, ...]:
        """Cache ``trace`` under ``key``, as :meth:`trace` does on a miss, and
        return it: a trace derived without stepping a profile is shared so."""
        traces = self._traces
        traces[key] = trace
        traces.move_to_end(key)
        if len(traces) > TRACE_CACHE_SIZE:
            traces.popitem(last=False)
        return trace

    def trace_uncached(
        self,
        profile: Profile,
        k: Optional[int] = None,
        prefix: Optional[tuple[Family, ...]] = None,
    ) -> tuple[Family, ...]:
        """``(f(A,0), ..., f(A,k))`` run on ``profile`` itself, bypassing the
        cache, so even a rule not flagged id-sensitive sees the vote sequence;
        ``prefix`` is extended as in :func:`step_trace`."""
        if k is None:
            k = self.m
        if self.step is not None:
            return step_trace(self.step, profile, k, self.branch_cap, prefix=prefix)
        done = prefix or ()
        return done + tuple(self.apply_direct(profile, j) for j in range(len(done), k + 1))

    def apply(self, profile: Profile | BallotCounts, k: int) -> Family:
        """The winning committees ``f(A, k)``."""
        return self.trace(profile, k)[k]

    def scored_trace(
        self, profile: Profile, k: int
    ) -> tuple[tuple[frozenset[int], ...], dict[int, tuple[int, dict, int]] | None]:
        """``(trace, scores)`` on committee bit masks (bit c is candidate c):
        ``trace[j]`` is f(A, j) as a frozenset of masks, and ``scores[W] =
        (base, gains, D)`` for each W of levels 0..k-1: ``W + {c}`` scores
        ``(base + gains[c]) / D`` for each ``c`` outside W, in increasing
        order (:func:`_scaled_gains`; None without a valuation).  A rule
        stepping by its own valuation (:func:`step_valuation`) is traced
        here, on the gains that score each parent once, and raises what
        :meth:`trace_uncached` raises (a failing ``fn`` valuation is traced
        again there for its error); any other rule by :meth:`trace`, its
        committees scored afterwards."""
        if profile.m != self.m:
            raise ValueError(f"profile has m={profile.m}, rule expects m={self.m}")
        if not 0 <= k <= self.m:
            raise ValueError(f"committee size {k} outside 0..{self.m}")
        valuation, cap = self.valuation, self.branch_cap
        if valuation is None or step_valuation(self.step) is not valuation:
            trace = self.trace(profile, k)
            mask = {W: sum(map(_BIT, W)) for level in trace for W in level}
            masks = tuple(frozenset(map(mask.get, level)) for level in trace)
            if valuation is None:
                return masks, None
            return masks, {X: _scaled_gains(valuation, profile, X) for F in masks[:k] for X in F}
        scores: dict[int, tuple[int, dict, int]] = {}
        families = [frozenset({0})]
        try:
            for size in range(1, k + 1):
                level = None if valuation.counting is None else valuation.level(size, self.m)
                frontier: set[int] = set()
                for W in families[-1]:
                    if level is None:
                        _, gains, _ = scores[W] = _scaled_gains(valuation, profile, W)
                    else:
                        base, gains = _scored_gains(level, profile, W)
                        scores[W] = base, gains, level.denominator
                    best = max(gains.values())
                    frontier.update([W | 1 << c for c, gain in gains.items() if gain == best])
                    if len(frontier) > cap:
                        raise BranchCapError(f"more than {cap} tied committees")
                families.append(frozenset(frontier))
        except Exception:
            if valuation.counting is None:  # an fn may fail, outranking the cap
                self.trace_uncached(profile, k)  # raises what the rule's trace raises
            raise
        return tuple(families), scores


def derive_generator(rule: Rule, profile: Profile, committee: frozenset[int]) -> frozenset[int]:
    """Extract a generator function from a black-box rule.

    For ``W`` winning at its own size this returns every candidate whose
    addition stays winning one size up, and the empty set otherwise.  For
    committee monotone rules the extraction generates the rule; whether it
    does is for the axiom checkers to decide, not assumed here.
    """
    committee = frozenset(committee)
    k = len(committee)
    if k >= rule.m:
        raise NoCandidatesError("committee already contains every candidate")
    if committee not in rule.apply(profile, k):
        return frozenset()
    winners_up = rule.apply(profile, k + 1)
    return frozenset(
        c for c in range(rule.m) if c not in committee and committee | {c} in winners_up
    )


class GeneratorFunction(Record):
    """A named generator step over m candidates.

    ``id_sensitive`` steps may read voter ids; the others see only the
    ballot counts, so the checkers may evaluate them on canonical profiles.
    ``derived_from`` is the rule a :func:`derived_generator` extracts from,
    whose choices the checkers read off one trace of the rule.
    """

    name: str
    m: int
    fn: StepFn
    id_sensitive: bool = False
    derived_from: Optional[Rule] = None


def step_generator(rule: Rule) -> GeneratorFunction:
    """The rule's own generator step (the function that defines it)."""
    if rule.step is None:
        raise ValueError(f"{rule.name} is not defined by a generator step")
    return GeneratorFunction(
        f"step({rule.name})", rule.m, rule.step, id_sensitive=rule.id_sensitive
    )


def derived_generator(rule: Rule) -> GeneratorFunction:
    """The generator extracted from the rule as a black box (may be partial)."""
    return GeneratorFunction(
        f"derived({rule.name})",
        rule.m,
        lambda a, w: derive_generator(rule, a, w),
        id_sensitive=rule.id_sensitive,
        derived_from=rule,
    )
