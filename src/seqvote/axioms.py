"""Bounded axiom checkers.

Every check returns an :class:`AxiomReport`.  A universal check is a search
for its first violation witness in canonical order, which decides
(:func:`_report`): ``violation`` with that replayable witness, or
``pass-exhaustive`` when there is none.  Existential axioms
(non-imposition, continuity) can never be refuted by bounded search, so they
come back as ``pass`` or ``inconclusive``.  That asymmetry is stated in each
report's note.  Continuity is decided per pair (A, B) by one routine,
:func:`_replications`; :func:`check_continuity` is its one-instance case,
and its test oracle, a literal loop over ``jA + B``, shares none of it.

Profile universes (:class:`seqvote.oracle.ProfileUniverse`) stream items,
tuples of ballot indices: ballot multisets (non-decreasing items) for
anonymous rules, ballot sequences for id-sensitive ones.  Every check
traces through one :class:`_Traces`, the only code that knows whether a
rule is traced from gain rows, summed per item with no :class:`Profile`
built, or by stepping profiles.  It traces an item into the rule's trace
cache under the key :meth:`Rule.trace` uses, and a combination of two
items (a union, a replicated ``jA + B``, a clone-proportionality profile)
outside it; a
witness builds its profiles either way.  Independence of losers is decided
over single drops, one voter dropping one approval, which settle every
shrinking; only on a violation are all shrinkings searched, voters moving
in groups (each run of equal indices of an anonymous item, each voter of
an ordered one), for the first witness in canonical order.

Generator consistency checks one generator per pass.  A step by the
largest score, ``partial(generator_step, valuation)``, is consistent
because scores add over disjoint electorates, so it is decided without a
search (:func:`check_generator_consistency` states the lemma).  Every other
generator is searched over the pairs, keeping one choice row per profile,
an int holding the generator's choice at every committee below size m - 1,
memoized per what the generator sees: the item for an anonymous generator,
whose union of a pair is the item ``sorted(a + b)``, and the item with its
voter-id offset for an id-sensitive one.  A derived generator reads an
item's row off the item's trace in its rule's cache (:func:`_derived_row`),
for every rule, and the row of a profile outside the universe off a trace
of its own, a larger union's by :meth:`_Traces.combined` and B renumbered
above A's by :meth:`Rule.trace_uncached`, raising the rule's own errors.
Any other generator's choices are candidate masks, evaluated one committee
at a time.  No committee of size m - 1 is searched, since its one outside
candidate x leaves every choice there empty or ``{x}``, so the
intersection and the combined choice cannot both be non-empty and differ.

Candidate symmetry is used once.  A rule with gain rows of a table
valuation commutes with every relabeling by construction, so its
monotonicity, generator-consistency, continuity, independence-of-losers and
clone searches run once, over the first item of each orbit
(:meth:`_Traces.items`), and clone proportionality over one (bloc, c) per
bloc size.  A relabeling maps violations to violations and errors to the
same errors, so the first one in canonical order is the first of its
orbit: the reduced search returns the unreduced search's first witness, or
raises its error, in one pass.  Neutrality is decided over two relabelings
that generate S_m, for every rule, and searches all of S_m only where they
find a violation or raise, since they are not a prefix of the
``permutations`` order.
Anonymity is never reduced by orbits: a rule that steps by a valuation and
reads no voter ids is decided by its step's identity, as consistency is
(:func:`check_anonymity`), and every other rule is searched over all of S_n.

The rule's trace cache holds what several checks share, the items of a
universe.  A profile built for one comparison (the union of a pair, B
renumbered above A, a replicated ``jA + B``, a clone-proportionality
profile, an id-shifted profile) is traced outside the cache, by
:meth:`_Traces.combined` or :meth:`Rule.trace_uncached`, and dropped; with
gain rows, none is built.  Enumeration order is canonical throughout, so
the first witness found is deterministic, and every universe is capped:
one over its cap raises :class:`seqvote.oracle.EnumerationCapError` before
it yields anything.

Default bounds: single-profile checks search up to five voters and pairwise
checks up to three voters per side, all configurable; the checks quantified
over voter or candidate permutations default to three voters to keep the
permutation product tractable.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .counting import Valuation
from .engine import (
    TRACE_CACHE_SIZE,
    Family,
    GeneratorFunction,
    Rule,
    derived_generator,
    extension_gains,
    generator_step,
    step_generator,
    step_valuation,
)
from .gains import GainRows, gain_rows, rule_valuation
from .oracle import ProfileUniverse, all_ballots, all_committees, committees_of_size
from .predicates import CLONE_AXIOMS, clone_pairs, clone_violation, proportionality_violation
from .profiles import (
    Profile,
    Record,
    apply_voter_permutation,
    ballot_sort_key,
    profile_scale,
)


class PreconditionError(ValueError):
    """A checker was called on inputs outside its stated precondition."""


EXISTENTIAL_NOTE = (
    "existential axiom: bounded search can certify success but never failure"
)


class AxiomReport(Record):
    """Outcome of one bounded axiom check.

    Violation witnesses are replayable: applying the rule to the stored
    profiles reproduces the reported families exactly.
    """

    axiom: str
    subject: str
    verdict: str  # pass-exhaustive | pass | violation | inconclusive
    bounds: dict
    witness: dict | None = None
    note: str = ""


def _verdict(axiom: str, subject: str, used: dict, violations: Iterator[dict]) -> AxiomReport:
    """The report of a bounded universal check: ``violation`` with the first
    witness ``violations`` yields, or ``pass-exhaustive`` if it yields none."""
    return _report(axiom, subject, used, next(violations, None))


def _report(axiom: str, subject: str, used: dict, witness: dict | None) -> AxiomReport:
    """``violation`` with ``witness``, or ``pass-exhaustive`` if it is None."""
    if witness is None:
        return AxiomReport(axiom, subject, "pass-exhaustive", used)
    return AxiomReport(axiom, subject, "violation", used, witness=witness)


class Bounds(Record):
    """Search bounds for the checkers; every field is a hard cap, never a goal."""

    n_single: int = 5          # voters, single-profile universal checks
    n_perm: int = 3            # voters, permutation-quantified checks
    n_pair_each: int = 3       # voters per side, generator consistency
    n_pair_total: int = 3      # voters in total, committee separability
    n_continuity: int = 3      # voters in the replicated profile
    n_continuity_other: int = 1
    j_max: int = 16
    n_stats: int = 2           # voters, information-basis check
    w_max_stats: int | None = None  # committee sizes for the stats check
    n1_max: int = 8            # clone bloc, clone-proportionality
    n2_max: int = 8            # singleton bloc, clone-proportionality
    k_max_proportional: int = 3


DEFAULT_BOUNDS = Bounds()


# ---------------------------------------------------------------------------
# Profile universes


def _universe(rule: Rule, n_max: int) -> ProfileUniverse:
    return ProfileUniverse(rule.m, n_max, ordered=rule.id_sensitive)


# ---------------------------------------------------------------------------
# Tracing items


class _Traces:
    """How every check traces ``rule`` on the items of ``universe``: from
    the rule's :func:`seqvote.gains.gain_rows`, which also certify its
    continuity, with no :class:`Profile` built, else by stepping profiles, a
    cached item's only on a miss."""

    def __init__(self, rule: Rule, universe: ProfileUniverse):
        self.rule = rule
        self.universe = universe
        valuation = rule_valuation(rule)
        #: whether the searches may run over orbit representatives
        self.reduced = valuation is not None and valuation.counting is not None

    @cached_property
    def rows(self) -> GainRows | None:
        """Gain rows, taken at the first trace, after the cap check; their memo lives one check."""
        rows = gain_rows(self.rule)
        if rows is not None:
            rows.memo.clear()
        return rows

    def items(self) -> Iterator[tuple[int, ...]]:
        """The items a check searches: for a rule with table gain rows
        (:attr:`reduced`), the first item of each orbit under candidate
        relabeling (``universe.representatives()``), and for any other rule
        every item.

        Such a rule steps by the largest gain, and a table's gain, unlike an
        ``fn``'s, reads only ``|ballot & W|``, ``|ballot|``, ``|W|`` and
        whether the ballot approves the candidate, so ``f(tau(A), k) = tau(f(A,
        k))`` for every candidate relabeling tau, and ``derived`` and ``step``
        generators satisfy ``g(tau(A), tau(W)) = tau(g(A, W))``; the universe
        is closed under relabeling.  Each reduced check states why tau maps its
        violations at A to violations at tau(A).  Its errors map too: a trace
        raises :class:`BranchCapError` where a tie frontier outgrows the cap,
        and :class:`ValueError` where a step chooses nothing; tau keeps
        frontier sizes and empty choices, and neither message names a
        candidate.  So an item has a violation or an error iff every item of
        its orbit has one, and the first such item in canonical order is the
        first of its orbit.  The search over representatives reaches it having
        found nothing, and searches it as the search over every item would: it
        returns the same first witness, or raises the same error, in one pass.

        The same argument serves the searches over other streams:

        - generator consistency has one pairing rule for every anonymous
          stream (:func:`_pairs`): A is paired only with B from A on, ``(len(b),
          b) >= (len(a), a)``, since the test is symmetric in A and B and a
          pair with B earlier than A is the pair (B, A), which comes earlier.
          Reduced, each representative A is paired with the first items of the
          orbits under the relabelings that fix A
          (``universe.representatives(fixing=a)``) from A on.  tau maps a
          violation or error at (A, B) to one at (tau(A), tau(B)), so the first
          such pair with A no later than B has A the first of its orbit and B
          the first of its orbit under A's stabilizer: its witness, or its
          error, comes at the same pair as over every pair.  Where the
          representatives fall back to every item (m >= 8), the rule leaves
          each unordered pair once;
        - clone proportionality searches ``({0, ..., s - 1}, s)`` per bloc size
          s, the first ``(bloc, c)`` with ``|bloc| = s`` in canonical order,
          since :func:`all_ballots` sorts ballots by size and then
          lexicographically, and every pair of that size is in its orbit.

        Anonymity and neutrality test symmetries themselves and are never
        reduced by orbits; anonymity is decided without a search for a rule
        that steps by a valuation (:func:`check_anonymity`).
        """
        return self.universe.representatives() if self.reduced else self.universe.items()

    def __call__(self, item: tuple[int, ...], k: int | None = None) -> tuple[Family, ...]:
        """The rule's ``(f(A,0), ..., f(A,k))`` on ``item``, kept in the
        rule's trace cache under the key :meth:`Rule.trace` uses; with gain
        rows a miss is traced from the item's gains instead of a profile."""
        rule, rows, key = self.rule, self.rows, self.universe.key(item)
        if rows is None:
            return rule.trace(key, k)
        k = rule.m if k is None else k
        hit = rule.cached(key, k)
        if hit is not None:
            return hit
        return rule.remember(key, rows.trace(rows.gains(item), k, rule.branch_cap))

    def combined(
        self, a: tuple, i: int, b: tuple, j: int, k: int, prefix: tuple = ()
    ) -> tuple[Family, ...]:
        """``(f(P,0), ..., f(P,k))`` of the electorate P of i copies of item
        ``a``'s voters and j copies of item ``b``'s, outside the cache: from
        the gains ``i * G(a) + j * G(b)`` with gain rows, else stepped on the
        profile of the item ``a * i + b * j``, in that voter order in an
        ordered universe and canonical in an anonymous one, as
        :meth:`Rule.trace` keys it, extending P's ``prefix`` if given."""
        rule, rows = self.rule, self.rows
        if rows is not None:
            gains = [i * x + j * y for x, y in zip(rows.gains(a), rows.gains(b))]
            return rows.trace(gains, k, rule.branch_cap)
        key = self.universe.key(a * i + b * j)
        profile = key if self.universe.ordered else Profile.from_counts(rule.m, key, checked=True)
        return rule.trace_uncached(profile, k, prefix)

    def gains(self, item: tuple, committees: Iterable[frozenset]) -> dict | None:
        """``{X: {c: gain}}`` of ``item``'s electorate at each of ``committees``
        off the gain rows, which certify continuity, or None without rows."""
        rows = self.rows
        return None if rows is None else {X: rows.at(rows.gains(item), X) for X in committees}


# ---------------------------------------------------------------------------
# n-statistics


def z_pairs(m: int, w_size: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (k, l): intersection size k, ballot size l, within bounds."""
    return tuple(
        (k, l)
        for k in range(0, w_size + 1)
        for l in range(k + 1, m - 1 - w_size + k + 1)
    )


def compute_n_stats(profile: Profile, committee) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The counts n(c, k, l) of approvers of c whose ballot hits ``committee``
    k times and has size l: a row ``(c, counts)`` per candidate c outside the
    committee, in increasing order, with ``counts`` ordered as
    :func:`z_pairs` ``(m, |committee|)``."""
    committee = frozenset(committee)
    m = profile.m
    pairs = z_pairs(m, len(committee))
    index = {pair: i for i, pair in enumerate(pairs)}
    outside = [c for c in range(m) if c not in committee]
    rows = []
    for c in outside:
        counts = [0] * len(pairs)
        for ballot, count in profile.ballot_counts:
            if c not in ballot:
                continue
            cell = (len(ballot & committee), len(ballot))
            pos = index.get(cell)
            if pos is not None:
                counts[pos] += count
        rows.append((c, tuple(counts)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Anonymity / neutrality


def check_anonymity(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Voter relabelings never change the outcome (universal, exhaustive).

    A rule that steps by a valuation and reads no voter ids
    (:func:`seqvote.gains.rule_valuation`) is anonymous, so it is decided
    without a search (:func:`check_generator_consistency` states the lemma);
    its universe is still held to its cap.  Any other rule not flagged
    id-sensitive caches one trace per ballot multiset, which every
    relabeling shares; both sides are therefore traced from their vote
    sequences, so a rule that reads voter ids without saying so is still
    caught and its witness replays.
    """
    used = {"m": rule.m, "n": bounds.n_perm, "permutations": "all of S_n plus an id shift"}
    return _verdict("anonymity", rule.name, used, _anonymity_witnesses(rule, bounds.n_perm))


def _anonymity_witnesses(rule: Rule, n: int) -> Iterator[dict]:
    if rule_valuation(rule) is not None:
        _universe(rule, n).items()  # anonymous, but held to the cap: over it this raises
        return
    trace = rule.trace if rule.id_sensitive else rule.trace_uncached
    for profile in _universe(rule, n):
        ids = profile.voter_ids
        # a relabeling of the ids 1..n gives another item of the universe;
        # the id shift does not, so it is stepped outside the cache
        perms = [(dict(zip(ids, image)), trace) for image in itertools.permutations(ids)]
        perms.append(({v: v + 1 for v in ids}, rule.trace_uncached))
        base = trace(profile)
        seen = {profile.votes}
        for pi, trace_other in perms:
            other = apply_voter_permutation(pi, profile)
            if other.votes in seen:
                continue
            seen.add(other.votes)
            for k, (fam, fam2) in enumerate(zip(base, trace_other(other))):
                if fam != fam2:
                    yield {
                        "profile": profile,
                        "voter_permutation": pi,
                        "k": k,
                        "families": (fam, fam2),
                    }


def check_neutrality(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Candidate relabelings permute the outcome (universal, exhaustive)."""
    used = {"m": rule.m, "n": bounds.n_perm, "permutations": "all of S_m"}
    return _report("neutrality", rule.name, used, _neutrality_witness(rule, bounds.n_perm))


def _neutrality_witness(rule: Rule, n: int) -> dict | None:
    """The first violation in canonical order, or None: per item, per
    relabeling tau in ``permutations`` order, the first size k where
    f(tau(A), k) is not tau(f(A, k)).  Each tau is a table from ballot
    indices to ballot indices (:meth:`ProfileUniverse.relabeling`), built
    once; the relabeled item is traced like any item, and a profile is
    built only for a witness.

    The search is decided first over two relabelings, the transposition of
    candidates 0 and 1 and the cycle c -> c + 1 mod m, which generate S_m.
    The relabelings tau with f(tau(A), k) = tau(f(A, k)) for every A of the
    universe and every k are closed under composition, since the universe
    is closed under relabeling: f(sigma(tau(A))) = sigma(f(tau(A))) =
    sigma(tau(f(A))).  So if both generators pass, every relabeling does.
    That holds for any rule, black-box and id-sensitive ones included, and
    neutrality is the one check that may assume no symmetry of the rule.
    Only where a generator fails, or the search raises, are all of S_m
    searched, for the first witness or error in canonical order: the two
    generators are not a prefix of the ``permutations`` order.
    """
    m = rule.m
    universe = _universe(rule, n)
    trace_item = _Traces(rule, universe)

    def search(taus: Iterable[tuple[int, ...]]) -> dict | None:
        relabelings = [(tau, universe.relabeling(tau)) for tau in taus]
        for item in universe.items():
            base = trace_item(item)
            for tau, table in relabelings:
                other = trace_item(universe.relabeled(item, table))
                for k, (fam, actual) in enumerate(zip(base, other)):
                    expected = frozenset(frozenset(tau[c] for c in W) for W in fam)
                    if actual != expected:
                        return {
                            "profile": universe.profile(item),
                            "candidate_permutation": tau,
                            "k": k,
                            "families": (fam, actual),
                            "expected": expected,
                        }
        return None

    swap = (1, 0, *range(2, m))
    cycle = tuple((c + 1) % m for c in range(m))
    try:
        if search(dict.fromkeys((swap, cycle)) if m > 1 else ()) is None:
            return None
    except Exception:  # all of S_m raises it too, or finds a violation first
        pass
    return search(itertools.permutations(range(m)))


# ---------------------------------------------------------------------------
# Non-imposition / continuity


def check_non_imposition(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Search for a uniquely-electing profile per committee (existential)."""
    m = rule.m
    used = {"m": m, "n": bounds.n_single}
    targets = {(k, W) for k in range(1, m + 1) for W in committees_of_size(m, k)}
    found: dict[tuple[int, frozenset], Profile] = {}
    universe = _universe(rule, bounds.n_single)
    trace_item = _Traces(rule, universe)
    for item in universe.items():
        trace = trace_item(item)
        for k in range(1, m + 1):
            fam = trace[k]
            if len(fam) == 1:
                key = (k, next(iter(fam)))
                if key not in found:
                    found[key] = universe.profile(item)
        if len(found) == len(targets):
            electing = {
                (k, tuple(sorted(W))): found[(k, W)]
                for (k, W) in sorted(found, key=lambda t: (t[0], tuple(sorted(t[1]))))
            }
            return AxiomReport(
                "non-imposition",
                rule.name,
                "pass",
                used,
                witness={"electing_profiles": electing},
                note=EXISTENTIAL_NOTE,
            )
    missing = sorted(
        (k, tuple(sorted(W))) for (k, W) in targets - set(found)
    )
    seen = {k for k, _ in found}  # the sizes with a singleton outcome
    structural = [k for k in range(1, m) if k not in seen]
    note = EXISTENTIAL_NOTE
    if structural:
        note += (
            "; no singleton outcome was ever observed at size(s) "
            f"{structural}: ties look structural for this rule"
        )
    return AxiomReport(
        "non-imposition",
        rule.name,
        "inconclusive",
        used,
        witness={"uncovered": missing},
        note=note,
    )


def _combined(a: Profile, j: int, b: Profile) -> Profile:
    """``jA + B`` with the replicated block keeping the low voter ids."""
    scaled = profile_scale(j, a)
    return scaled + b.relabeled(max(scaled.voter_ids) + 1)


def _replications(
    m: int,
    trace: tuple[Family, ...],
    ks: list[int],
    j_max: int,
    replicated: Callable[[int, int], tuple[Family, ...]],
    gains: tuple[dict, dict] | None = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """``(limits, restored)`` for one pair (A, B) and the sizes ``ks``, in
    increasing order: each k's replication limit and, if some count up to it
    and up to ``j_max`` restores ``trace[k] = f(A, k)``, the least one.
    ``replicated(j, k)`` is ``(f(jA+B, 0), ..., f(jA+B, k))``, traced once
    for every k still pending.

    A limit is ``j_max``, or certified by ``gains``: the extension gains of
    A and of B at each committee of ``trace`` below the largest k, under the
    valuation the rule's step maximizes (:func:`seqvote.gains.rule_valuation`),
    never one it only carries for its scores.  For every winning
    committee of A and every extension outside the next winning family,
    some argmax candidate beats it by a positive exact gap; enough copies of
    A make that gap dominate whatever B contributes, which pins ``f(jA+B,
    l)`` inside ``f(A, l)`` level by level.  No committee of size m - 1
    needs gains: its one extension, the full committee, always wins.  A
    certified limit above ``j_max`` is reported but not searched to, so a
    k it leaves unrestored has a minimal count above ``j_max``.
    """
    limits = dict.fromkeys(ks, j_max if gains is None else 1)
    needed = 1
    for level in range(0 if gains is None else ks[-1]):
        for X in trace[level] if level < m - 1 else ():
            # gains share one positive factor per committee, so push // gap is
            # the ratio of the exact score differences, rounded down
            score_a = gains[0][X]
            score_b = gains[1][X]
            best = max(score_a.values())
            argmax = [c for c in score_a if score_a[c] == best]
            for d in score_a:
                if X | {d} in trace[level + 1]:
                    continue
                gap = best - score_a[d]  # positive: d is not an argmax at X
                push = min(score_b[d] - score_b[c] for c in argmax)
                if push > 0:
                    needed = max(needed, push // gap + 1)
        if level + 1 in limits:
            limits[level + 1] = needed
    restored: dict[int, int] = {}
    j = 0
    while pending := [k for k in ks if k not in restored and min(limits[k], j_max) > j]:
        j += 1
        traced = replicated(j, pending[-1])
        for k in pending:
            if traced[k] == trace[k]:
                restored[k] = j
    return limits, restored


def _inconclusive(rule: Rule, used: dict, a, b, k: int, target: Family, limit: int) -> AxiomReport:
    """The continuity report of an instance that no count up to ``limit`` restores."""
    note = EXISTENTIAL_NOTE + (
        f"; no replication count up to {limit} restores the base outcome"
        " (the deciding comparison is invariant under replication)"
    )
    witness = {"a": a, "b": b, "k": k, "target": target}
    return AxiomReport("continuity", rule.name, "inconclusive", used, witness=witness, note=note)


def check_continuity(
    rule: Rule,
    a: Profile,
    b: Profile,
    k: int,
    j_max: int = DEFAULT_BOUNDS.j_max,
) -> AxiomReport:
    """Search for the minimal replication count restoring ``f(A, k)``.

    Requires ``|f(A, k)| = 1``.  For rules driven by a valuation an exact
    score-gap bound certifies some count works, so the answer is always
    ``pass``, with the minimal count if it is at most ``j_max``; black-box
    rules get ``pass`` or ``inconclusive`` at ``j_max``.  This is the
    one-instance case of :func:`_replications`, which
    :func:`continuity_search` runs for every pair.
    """
    trace = rule.trace(a, k)
    if len(trace[k]) != 1:
        raise PreconditionError("continuity needs a unique winning committee for A")
    gains, valuation = None, rule_valuation(rule)
    if valuation is not None:
        winners = [X for level in range(min(k, rule.m - 1)) for X in trace[level]]
        gains = tuple({X: extension_gains(valuation, p, X) for X in winners} for p in (a, b))
    limits, restored = _replications(
        rule.m, trace, [k], j_max,
        lambda j, top: rule.trace_uncached(_combined(a, j, b), top), gains,
    )
    used = {"m": rule.m, "j_max": j_max, "certified_bound": None if gains is None else limits[k]}
    if k in restored:
        witness, note = {"a": a, "b": b, "k": k, "j": restored[k]}, EXISTENTIAL_NOTE
    elif limits[k] > j_max:
        witness = {"a": a, "b": b, "k": k}
        note = EXISTENTIAL_NOTE + (
            f"; the minimal replication count exceeds j_max = {j_max}, and the score"
            f" gaps certify that {limits[k]} copies restore the base outcome"
        )
    else:
        return _inconclusive(rule, used, a, b, k, trace[k], limits[k])
    return AxiomReport("continuity", rule.name, "pass", used, witness=witness, note=note)


def continuity_search(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Run the continuity check over a bounded family of instances.

    The same instances and answers as :func:`check_continuity` on every
    ``(A, B, k)`` with ``|f(A, k)| = 1``, in canonical order, but each piece
    of work is done once: A is traced once and its extension gains are
    computed once per committee, B's gains once per committee for the whole
    search, and :func:`_replications` decides every k of a pair at once,
    tracing each ``jA + B`` once for all pending k (:meth:`_Traces.combined`,
    which also gives the gains, :meth:`_Traces.gains`).  On an
    ``inconclusive`` instance the report carries the witness and note
    :func:`check_continuity` gives for it.

    For a rule with table gain rows, A ranges over orbit representatives
    (:meth:`_Traces.items`), B over every item.  A relabeling tau maps
    ``f(A, k)`` and ``f(jA + B, k)`` to ``f(tau(A), k)`` and ``f(j tau(A) +
    tau(B), k)``, and permutes the extension gains behind the certified limits, so
    the pair (tau(A), tau(B)) has the same limits and minimal replication
    counts as (A, B); as B ranges over every item, so does tau(B).  So the
    first A with an instance no count restores is a representative, and the
    largest minimal count in the note is the same over representatives as
    over every item.
    """
    used = {
        "m": rule.m,
        "n_a": bounds.n_continuity,
        "n_b": bounds.n_continuity_other,
        "j_max": bounds.j_max,
    }
    m = rule.m
    universe = _universe(rule, bounds.n_continuity)
    others = list(_universe(rule, bounds.n_continuity_other).items())
    traces = _Traces(rule, universe)
    gains_b = None  # taken at the first trace, once the universe is held to its cap
    worst, beyond = 0, False
    for a in traces.items():
        trace = traces(a)
        gains_b = gains_b or [traces.gains(b, all_committees(m, m - 2)) for b in others]
        singleton_ks = [k for k in range(1, m + 1) if len(trace[k]) == 1]
        if not singleton_ks:
            continue
        winners = [X for level in range(min(singleton_ks[-1], m - 1)) for X in trace[level]]
        gains_a = traces.gains(a, winners)
        for b, g_b in zip(others, gains_b):
            limits, restored = _replications(
                m, trace, singleton_ks, bounds.j_max,
                lambda j, top: traces.combined(a, j, b, 1, top),
                None if gains_a is None else (gains_a, g_b),
            )
            k = next(
                (k for k in singleton_ks if k not in restored and limits[k] <= bounds.j_max),
                None,
            )
            if k is not None:  # the first size no count restores
                return _inconclusive(
                    rule, used, universe.profile(a), universe.profile(b), k, trace[k], limits[k]
                )
            worst = max(worst, *restored.values(), 0)
            beyond = beyond or len(restored) < len(singleton_ks)
    if beyond:
        seen = (
            f"some minimal replication count exceeds j_max = {bounds.j_max},"
            " and the score gaps certify a count for each"
        )
    else:
        seen = f"largest minimal replication count seen: {worst}"
    return AxiomReport("continuity", rule.name, "pass", used, note=f"{EXISTENTIAL_NOTE}; {seen}")


# ---------------------------------------------------------------------------
# Committee monotonicity / generator consistency


def check_committee_monotonicity(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Winners extend smaller winners and extend to larger ones (universal)."""
    used = {"m": rule.m, "n": bounds.n_single}
    witness = _monotonicity_witness(rule, bounds.n_single)
    return _report("committee-monotonicity", rule.name, used, witness)


def _monotonicity_witness(rule: Rule, n: int) -> dict | None:
    """The first item, size and committee W of f(A, k) with no winning
    parent one size down, or of f(A, k - 1) with no winning extension one
    size up, or None.

    Searched on orbit representatives (:meth:`_Traces.items`): a relabeling
    tau maps W to tau(W) in f(tau(A), k) = tau(f(A, k)), and W's parents and
    extensions to tau(W)'s, so a violation at A is one at tau(A).
    """
    m = rule.m
    universe = _universe(rule, n)
    traces = _Traces(rule, universe)
    for item in traces.items():
        trace = traces(item)
        for k in range(1, m + 1):
            for W in trace[k]:
                if not any(W - {x} in trace[k - 1] for x in W):
                    return {"profile": universe.profile(item), "k": k, "committee": W,
                            "missing": "no winning parent one size down"}
            for W in trace[k - 1]:
                if not any(W | {x} in trace[k] for x in range(m) if x not in W):
                    return {"profile": universe.profile(item), "k": k - 1, "committee": W,
                            "missing": "no winning extension one size up"}
    return None


def check_generator_consistency(
    g: GeneratorFunction, bounds: Bounds = DEFAULT_BOUNDS
) -> AxiomReport:
    """On disjoint electorates with intersecting choices, the combined choice
    is exactly the intersection (universal over the searched pairs).

    ``A`` and ``B`` range over the anonymous universe in canonical order and
    ``B``'s voters are renumbered above ``A``'s (:func:`_consistency_witness`).

    A step by the largest score, ``partial(generator_step, valuation)``, is
    consistent, so it is decided without a search: the score of ``W + {c}``
    is a sum over voters, so it adds over disjoint electorates, and where
    J = g(A, W) & g(B, W) is non-empty, every x in J scores max_A + max_B
    on A + B, nothing scores more, and only a candidate that is an argmax
    on both sides reaches it, so g(A + B, W) = J.  Its choices lie outside
    W and are never empty below size m, so it raises no error either.
    Eligibility is the step's identity (:func:`seqvote.engine.step_valuation`:
    one valuation, table or ``fn``, and no other argument), never a bounded
    run; its universe is still held to its cap.

    Such a step is anonymous by the same reading, which decides
    :func:`check_anonymity` for a rule that steps by it and reads no voter
    ids: it scores ``W + {c}`` from ``ballot_counts`` alone, which every
    voter relabeling and the id shift keep, so ``f(pi(A), k) = f(A, k)``.
    """
    n = bounds.n_pair_each
    return _report(
        "generator-consistency", g.name, {"m": g.m, "n_each": n}, _consistency_witness(g, n)
    )


def _derived_row(trace: tuple[Family, ...], index: dict[frozenset, int], m: int) -> int:
    """The choice row a derived generator reads off ``trace``: W in f(A, k)
    chooses each x whose W + {x} is in f(A, k + 1), at bits ``[i*m, (i+1)*m)``
    for the committee W of ``index[W] = i``, every W below size m - 1."""
    out = 0
    for k in range(1, min(len(trace), m)):
        below = trace[k - 1]
        for U in trace[k]:
            for x in U:
                W = U - {x}
                if W in below:
                    out |= 1 << (index[W] * m + x)
    return out


def _pairs(
    universe: ProfileUniverse, reduced: bool, ordered: bool
) -> Iterator[tuple[tuple[int, ...], Iterable[tuple[int, ...]]]]:
    """Each item A that generator consistency searches, in canonical order,
    with the items B to pair it with, in order: every B for an ``ordered``
    pass, where B is renumbered above A, and else B from A on, ``(len(b),
    b) >= (len(a), a)``; ``reduced``, over orbit representatives
    (:meth:`_Traces.items`)."""
    if reduced:
        return (
            (a, (b for b in universe.representatives(fixing=a) if (len(b), b) >= (len(a), a)))
            for a in universe.representatives()
        )
    items = list(universe.items())
    return ((a, items if ordered else items[pos:]) for pos, a in enumerate(items))


def _consistency_witness(g: GeneratorFunction, n: int) -> dict | None:
    """The first consistency witness of ``g``, or None, from one pass over
    the pairs (A, B) of the anonymous universe in canonical order.

    A committee W of size m - 1 is never searched: C - W is one candidate x,
    so g(A, W), g(B, W) and g(A + B, W) all lie in {x}, and a non-empty
    intersection {x} leaves the combined choice empty or equal to it (a
    derived choice there is empty or {x} too, since f(., m) is at most
    {C}).  That rests on every choice lying outside W, which is checked,
    not assumed: a choice holding a member of W raises :class:`ValueError`.

    The pass keeps one choice row per profile: an int holding the mask of
    ``g(A, W)`` for the i-th committee W of :func:`all_committees` ``(m, m -
    2)`` at bits ``[i*m, (i+1)*m)``, so ``row(A) & row(B)`` is every
    intersection at once.  Rows are memoized per what ``g`` sees: the key
    ``(offset, item)`` stands for the profile of ``item`` with voter ids
    from ``offset + 1``.  No profile is kept; a witness rebuilds its
    profiles from their items.

    An anonymous generator sees the item alone (offset 0), and the union of
    a pair is the item ``sorted(a + b)``: its row is memoized too, with the
    rows of items if it is one, else among the rows of unions, at most
    :data:`TRACE_CACHE_SIZE`, oldest evicted first.  The test is symmetric
    in A and B and so is the union, so only pairs with A no later than B
    are visited (:func:`_pairs`).  For an id-sensitive generator B is
    renumbered above A, and every pair is visited.  The union is built from
    vote tuples, A's ``(1, ballot)``, ... followed by B's shifted by
    ``len(a)``, each kept per ``(offset, item)`` and shared with B's own
    profile; it is evaluated only at the committees where the choices of A
    and B intersect, and not kept.

    A derived generator reads the row of an item of the universe, a union
    that is one included, off the item's trace in its rule's cache (its
    :class:`_Traces`, as the single-profile checks trace it), with
    :func:`_derived_row`, for every rule.  The trace runs to size m, as
    theirs do; with gain rows its last level is the full committee alone,
    which no cap of at least 1 refuses.  A profile outside the universe is
    traced for its one comparison to the largest size its row needs: a
    larger union by :meth:`_Traces.combined`, B renumbered above A by
    :meth:`Rule.trace_uncached`, so the pass raises the error the rule's
    own trace raises there.  Any other generator reads one mask per
    committee index off its ``fn``, only at the committees the row needs.
    With table gain rows A and B range over orbit representatives
    (:meth:`_Traces.items` says why that finds the first witness in
    canonical order).
    """
    m = g.m
    if m < 2:
        return None  # every committee has size m - 1 or more
    universe = ProfileUniverse(m, n)
    rule = g.derived_from
    if rule is None and step_valuation(g.fn) is not None:
        universe.items()  # consistent, but held to the cap: over it this raises
        return None
    committees = all_committees(m, m - 2)
    width = len(committees)
    index = {W: i for i, W in enumerate(committees)}
    inside = [sum(1 << c for c in W) for W in committees]
    field = (1 << m) - 1
    # the top bit of every field, and the bits below it
    high = sum(1 << (i * m + m - 1) for i in range(width))
    low = sum(field >> 1 << (i * m) for i in range(width))

    def nonzero(x: int) -> int:
        """The top bit of every non-zero field of ``x``: the low bits of a
        field are non-zero exactly when adding ``low`` carries into the top."""
        return (((x & low) + low) | x) & high

    ballots = universe.ballots
    masks: dict[frozenset, int] = {}  # each choice set's bit mask
    step = g.fn

    def choice_row(p: Profile, wanted: int = -1) -> int:
        """The row of ``g`` on ``p`` at the committees whose field in
        ``wanted`` is non-zero (all by default); the other fields may read 0."""
        if rule is not None:
            top = width - 1 if wanted < 0 else (wanted.bit_length() - 1) // m
            return _derived_row(rule.trace_uncached(p, len(committees[top]) + 1), index, m)
        out = 0
        tops = high if wanted < 0 else nonzero(wanted)
        while tops:
            top = tops & -tops
            tops ^= top
            i = top.bit_length() // m - 1
            chosen = frozenset(step(p, committees[i]))
            mask = masks.get(chosen)
            if mask is None:
                mask = masks[chosen] = sum(1 << c for c in chosen)
            if mask & inside[i]:
                W = committees[i]
                raise ValueError(
                    f"generator chose {sorted(chosen & W)} from inside the committee {sorted(W)}"
                )
            out |= mask << (i * m)
        return out

    traces = None if rule is None else _Traces(rule, _universe(rule, n))
    votes: dict[tuple, tuple] = {}  # (offset, item) -> its votes, ids from offset + 1

    def votes_of(key: tuple) -> tuple:
        out = votes.get(key)
        if out is None:
            offset, item = key
            out = votes[key] = tuple(zip(range(offset + 1, offset + len(item) + 1),
                                         map(ballots.__getitem__, item)))
        return out

    memo: dict[tuple, int] = {}  # the rows of items

    def item_row(key: tuple) -> int:
        row = memo.get(key)
        if row is None:
            offset, item = key
            if offset:
                row = choice_row(Profile(m, votes_of(key), checked=True))
            elif rule is not None:
                row = _derived_row(traces(item), index, m)
            else:  # a non-decreasing item: the canonical profile, counts filled in
                row = choice_row(Profile.from_counts(m, universe.counts(item), checked=True))
            memo[key] = row
        return row

    unions: OrderedDict[tuple, int] = OrderedDict()  # the rows of unions outside the universe, bounded

    def union_row(a: tuple, b: tuple) -> int:
        item = tuple(sorted(a + b))
        if len(item) <= n:
            return item_row((0, item))
        row = unions.get(item)
        if row is None:
            if rule is not None:
                row = _derived_row(traces.combined(a, 1, b, 1, m - 1), index, m)
            else:
                row = choice_row(Profile.from_counts(m, universe.counts(item), checked=True))
            unions[item] = row
            if len(unions) > TRACE_CACHE_SIZE:
                unions.popitem(last=False)
        return row

    def members(mask: int) -> frozenset:
        return frozenset(c for c in range(m) if mask >> c & 1)

    for a, others in _pairs(universe, rule is not None and traces.reduced, g.id_sensitive):
        row_a = item_row((0, a))
        offset = len(a) if g.id_sensitive else 0
        votes_a = votes_of((0, a)) if offset else ()
        for b in others:
            row_b = item_row((offset, b))
            joint = row_a & row_b
            if not joint:
                continue
            if offset:
                p_ab = Profile(m, votes_a + votes_of((offset, b)), checked=True)
                row_ab = choice_row(p_ab, joint)
            else:
                row_ab = union_row(a, b)
            # committees where the intersection and the combined choice are
            # both non-empty and differ; the first one is the witness
            clash = nonzero(joint) & nonzero(row_ab) & nonzero(row_ab ^ joint)
            if clash:
                i = ((clash & -clash).bit_length() - 1) // m
                shift = i * m
                return {
                    "a": universe.profile(a), "b": universe.profile(b).relabeled(len(a) + 1),
                    "committee": committees[i],
                    "g_a": members(row_a >> shift), "g_b": members(row_b >> shift),
                    "g_combined": members(row_ab >> shift & field),
                    "intersection": members(joint >> shift & field),
                }
    return None


# ---------------------------------------------------------------------------
# Independence of losers / committee separability


def _ballot_shrinkings(ballot: frozenset, committee: frozenset) -> tuple[frozenset, ...]:
    """All non-empty sub-ballots keeping the committee part intact."""
    base = ballot & committee
    rest = sorted(ballot - committee)
    options = []
    for size in range(len(rest) + 1):
        for tail in itertools.combinations(rest, size):
            shrunk = base | frozenset(tail)
            if shrunk:
                options.append(shrunk)
    return tuple(sorted(set(options), key=ballot_sort_key))


def _shrunk(
    universe: ProfileUniverse, item: tuple[int, ...], committee: frozenset, moves: dict
) -> Iterator[tuple[int, ...]]:
    """Every other item of ``universe`` where voters drop approvals outside ``committee``.

    The voters form groups: each run of equal indices in an anonymous item,
    each voter in an ordered one.  A group of c voters casting ballot i picks
    a multiset of c of its :func:`_ballot_shrinkings`, in
    ``combinations_with_replacement`` order (``moves`` caches the picks under
    ``(i, c, committee)``); the groups pick in ``product`` order, and the
    result is sorted for an anonymous item.
    """
    if universe.ordered:
        groups = [(i, 1) for i in item]
    else:
        groups = [(i, len(list(run))) for i, run in itertools.groupby(item)]
    per_group = []
    for i, size in groups:
        key = (i, size, committee)
        picks = moves.get(key)
        if picks is None:
            options = [universe.index[b] for b in _ballot_shrinkings(universe.ballots[i], committee)]
            picks = moves[key] = list(itertools.combinations_with_replacement(options, size))
        per_group.append(picks)
    for choice in itertools.product(*per_group):
        shrunk = tuple(itertools.chain.from_iterable(choice))
        if not universe.ordered:
            shrunk = tuple(sorted(shrunk))
        if shrunk != item:
            yield shrunk


def check_independence_of_losers(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Disapproving candidates outside a winning committee keeps it winning."""
    used = {"m": rule.m, "n": bounds.n_single}
    witness = _independence_witness(rule, bounds.n_single)
    return _report("independence-of-losers", rule.name, used, witness)


def _independence_witness(rule: Rule, n: int) -> dict | None:
    """The first violation in canonical order (:func:`_shrinking_witnesses`),
    searched only if :func:`_single_drops_violate` says there is one.

    Both search orbit representatives (:meth:`_Traces.items`): a relabeling
    tau maps a voter of A dropping c where W wins in f(A, k) to the same
    voter of tau(A) dropping tau(c) where tau(W) wins, and the shrunk item
    to its relabeled one, so a single drop that makes W lose is one that
    makes tau(W) lose; likewise a shrinking of tau(A) that keeps tau(W) is
    tau of a shrinking of A that keeps W.
    """
    traces = _Traces(rule, _universe(rule, n))
    if not _single_drops_violate(traces, traces.items()):
        return None
    return next(_shrinking_witnesses(traces, traces.items()), None)


def _shrinking_witnesses(traces: _Traces, items: Iterable[tuple[int, ...]]) -> Iterator[dict]:
    """Every violation of independence of losers over ``items`` of the
    tracer's universe, in their order: per item, size and winning committee
    W, every :func:`_shrunk` item where W loses."""
    m, universe = traces.rule.m, traces.universe
    moves: dict = {}
    kept = set()  # (shrunk, k, W) already seen to keep W winning
    for item in items:
        trace = traces(item)
        for k in range(1, m + 1):
            for W in sorted(trace[k], key=lambda c: tuple(sorted(c))):
                for shrunk in _shrunk(universe, item, W, moves):
                    if (shrunk, k, W) in kept:
                        continue
                    family = traces(shrunk, k)[k]
                    if W not in family:
                        yield {
                            "profile": universe.profile(item), "k": k, "committee": W,
                            "shrunk_profile": universe.profile(shrunk),
                            "families": (trace[k], family),
                        }
                    kept.add((shrunk, k, W))


def _single_drops_violate(traces: _Traces, items: Iterable[tuple[int, ...]]) -> bool:
    """Whether one voter dropping one approval outside a winning committee W
    ever makes W lose, over ``items`` of the tracer's universe.

    Over every item, that decides independence of losers over the whole
    universe: any shrinking of A that keeps W's part of every ballot is a
    chain of single drops, each leaving a ballot non-empty and the profile
    in the universe, so if no single drop makes W lose, W wins all along the
    chain.  A shrunk ballot is smaller, so a shrunk item comes earlier in
    canonical order than its item, and the drops trace no item that the full
    search would not trace; over every item, each trace is at hand.
    """
    m, universe = traces.rule.m, traces.universe
    ballots, index, ordered = universe.ballots, universe.index, universe.ordered
    # per ballot: (c, the index of the ballot without c) for each c it can drop
    drops = [tuple((c, index[b - {c}]) for c in sorted(b)) if len(b) > 1 else () for b in ballots]
    seen: dict[tuple[int, ...], tuple[Family, ...]] = {}
    for item in items:
        winners = seen[item] = traces(item)
        for p, i in enumerate(item):
            if not ordered and p and item[p - 1] == i:
                continue  # equal voters of an anonymous item drop alike
            for c, j in drops[i]:
                shrunk = item[:p] + (j,) + item[p + 1:]
                if not ordered:
                    shrunk = tuple(sorted(shrunk))
                after = seen.get(shrunk)
                if after is None:
                    after = seen[shrunk] = traces(shrunk)
                for k in range(1, m):
                    for W in winners[k]:
                        if c not in W and W not in after[k]:
                            return True
    return False


def check_committee_separability(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Winners decompose across electorates with complementary support."""
    used = {"m": rule.m, "n_total": bounds.n_pair_total}
    witnesses = _separability_witnesses(rule, bounds.n_pair_total)
    return _verdict("committee-separability", rule.name, used, witnesses)


def _separability_witnesses(rule: Rule, n_total: int) -> Iterator[dict]:
    m = rule.m
    profiles = list(ProfileUniverse(m, n_total - 1))
    by_support: dict[frozenset, list[Profile]] = {}
    for p in profiles:
        by_support.setdefault(p.support, []).append(p)
    everyone = frozenset(range(m))
    for a in profiles:
        if 0 not in a.support:
            continue  # canonical orientation: the side holding candidate 0
        complement = everyone - a.support
        if not complement:
            continue
        for b in by_support.get(complement, ()):
            if a.n + b.n > n_total:
                continue
            shifted = b.relabeled(a.n + 1)
            combined = a + shifted
            trace = trace_b = ()
            for k in range(m + 1):
                trace = rule.trace_uncached(combined, k, prefix=trace)
                for W in trace[k]:
                    wa, wb = W & a.support, W & complement
                    ok_a = wa in rule.apply(a, len(wa))
                    if len(trace_b) <= len(wb):
                        trace_b = rule.trace_uncached(shifted, len(wb), prefix=trace_b)
                    ok_b = wb in trace_b[len(wb)]
                    if not (ok_a and ok_b):
                        yield {
                            "a": a, "b": shifted, "k": k, "committee": W,
                            "part_a": wa, "part_b": wb,
                            "holds": {"a": ok_a, "b": ok_b},
                        }


# ---------------------------------------------------------------------------
# Clone axioms


def check_clone_axiom(
    rule: Rule, which: str, bounds: Bounds = DEFAULT_BOUNDS
) -> AxiomReport:
    """The four clone-treatment axioms, checked exhaustively within bounds.

    Each profile is judged by :func:`clone_violation` or
    :func:`proportionality_violation`, the predicates clone witnesses replay.
    """
    if which not in CLONE_AXIOMS:
        raise ValueError(f"unknown clone axiom {which!r}")
    name = f"clone-{which}" if which != "distrust" else "distrust"
    if which == "proportionality":
        used = {
            "m": rule.m, "n1": bounds.n1_max, "n2": bounds.n2_max,
            "k_max": bounds.k_max_proportional,
            "family": "one bloc of identical ballots plus one singleton bloc",
        }
        witness = _proportionality_witness(rule, bounds)
    else:
        used = {"m": rule.m, "n": bounds.n_single}
        witness = _clone_witness(rule, which, bounds.n_single)
    return _report(name, rule.name, used, witness)


def _proportionality_witness(rule: Rule, bounds: Bounds) -> dict | None:
    """The first violation over the profiles of ``n1`` voters approving a
    bloc and ``n2`` approving ``{c}``, c outside the bloc, per (bloc, c,
    n1, n2) in ``product`` order and each size k up to ``|bloc|``, or None.

    Each profile is traced outside the cache, one level at a time, as the
    combination of the one-voter items of the bloc and of ``{c}``
    (:meth:`_Traces.combined`).  A rule with table gain rows is searched on one
    pair (bloc, c) per bloc size, ``({0, ..., s - 1}, s)``, the first of its
    orbit (:meth:`_Traces.items`): a relabeling tau maps every pair with
    ``|bloc| = s`` to every other, and ``c in W`` for W in f(A, k) to
    ``tau(c) in tau(W)`` for tau(W) in f(tau(A), k), with n1, n2 and k
    unchanged.
    """
    m = rule.m
    traces = _Traces(rule, _universe(rule, 1))
    index = traces.universe.index
    sizes = list(itertools.product(range(1, bounds.n1_max + 1), range(1, bounds.n2_max + 1)))
    if traces.reduced:
        pairs = [(frozenset(range(s)), s) for s in range(1, m)]
    else:
        pairs = [(bloc, c) for bloc in all_ballots(m) for c in range(m) if c not in bloc]
    for bloc, c in pairs:
        single = frozenset({c})
        for n1, n2 in sizes:
            blocs = ((bloc, n1), (single, n2))
            trace = ()
            for k in range(1, min(len(bloc), bounds.k_max_proportional) + 1):
                trace = traces.combined((index[bloc],), n1, (index[single],), n2, k, trace)
                found = proportionality_violation(blocs, k, c, trace[k])
                if found:
                    profile = Profile.from_ballots(m, [bloc] * n1 + [single] * n2)
                    return {"profile": profile, **found}
    return None


def _clone_witness(rule: Rule, which: str, n: int) -> dict | None:
    """The first item that violates clone rejection, acceptance or distrust
    (:func:`clone_violation`), or None.

    Searched on orbit representatives (:meth:`_Traces.items`): a relabeling
    tau maps clone pairs (c, d) to clone pairs (tau(c), tau(d)), each
    candidate's approval and singleton counts to tau's image, and f(A, k)
    to tau(f(A, k)), so whatever violation A shows, tau(A) shows relabeled.
    """
    m = rule.m
    universe = _universe(rule, n)
    traces = _Traces(rule, universe)
    for item in traces.items():
        counts = universe.counts(item)
        if which != "distrust" and not clone_pairs(m, counts):
            continue  # those two axioms only constrain profiles with clones
        found = clone_violation(which, m, counts, traces(item))
        if found:
            return {"profile": universe.profile(item), **found}
    return None


# ---------------------------------------------------------------------------
# Information basis


def check_information_basis(
    valuation: Valuation, bounds: Bounds = DEFAULT_BOUNDS, *, m: int
) -> AxiomReport:
    """Profiles with equal n-statistics get equal generator choices on m candidates."""
    w_top = m - 2 if bounds.w_max_stats is None else min(bounds.w_max_stats, m - 2)
    used = {"m": m, "n": bounds.n_stats, "w_max": w_top}
    witnesses = _information_basis_witnesses(valuation, m, bounds.n_stats, w_top)
    return _verdict("information-basis", valuation.name, used, witnesses)


def _information_basis_witnesses(
    valuation: Valuation, m: int, n: int, w_top: int
) -> Iterator[dict]:
    profiles = list(ProfileUniverse(m, n))
    for committee in all_committees(m, w_top):
        groups: dict[tuple, tuple[Profile, frozenset]] = {}
        for profile in profiles:
            key = compute_n_stats(profile, committee)
            out = generator_step(valuation, profile, committee)
            seen = groups.get(key)
            if seen is None:
                groups[key] = (profile, out)
            elif seen[1] != out:
                yield {
                    "committee": committee,
                    "profile_1": seen[0], "profile_2": profile,
                    "choice_1": seen[1], "choice_2": out,
                }


# ---------------------------------------------------------------------------
# Suites


SUITES = ("proper", "monotone", "clones", "all")


def run_suite(rule: Rule, suite: str, bounds: Bounds = DEFAULT_BOUNDS) -> list[AxiomReport]:
    """Run a named bundle of checks; see :data:`SUITES`."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    reports: list[AxiomReport] = []
    if suite in ("proper", "all"):
        reports.append(check_anonymity(rule, bounds))
        reports.append(check_neutrality(rule, bounds))
        reports.append(continuity_search(rule, bounds))
        reports.append(check_non_imposition(rule, bounds))
        verdicts = [r.verdict for r in reports[-4:]]
        summary = (
            "violation" if "violation" in verdicts
            else "inconclusive" if "inconclusive" in verdicts
            else "pass"
        )
        reports.append(
            AxiomReport(
                "proper", rule.name, summary, bounds.asdict(),
                note="bundle of anonymity, neutrality, continuity, non-imposition",
            )
        )
    if suite in ("monotone", "all"):
        reports.append(check_committee_monotonicity(rule, bounds))
        if rule.step is not None:
            reports.append(check_generator_consistency(step_generator(rule), bounds))
        reports.append(check_generator_consistency(derived_generator(rule), bounds))
    if suite in ("clones", "all"):
        for which in CLONE_AXIOMS:
            reports.append(check_clone_axiom(rule, which, bounds))
    if suite == "all":
        reports.append(check_independence_of_losers(rule, bounds))
        reports.append(check_committee_separability(rule, bounds))
        if rule.kind in ("seq-thiele", "step-thiele", "step-scoring") and rule.valuation:
            reports.append(check_information_basis(rule.valuation, bounds, m=rule.m))
    return reports
