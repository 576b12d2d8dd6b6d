"""Bounded axiom checkers.

Every check returns an :class:`AxiomReport`.  Universal axioms come back as
``pass-exhaustive`` or ``violation`` (with a replayable witness); existential
axioms (non-imposition, continuity) can never be refuted by bounded search,
so they come back as ``pass`` or ``inconclusive``.  That asymmetry is stated
in each report's note.

Profile universes enumerate anonymous profiles (ballot multisets) with
canonical voter ids; for id-sensitive rules the permutation-quantified
checks enumerate raw ballot-to-id assignments instead.  Enumeration order is
canonical throughout, so the first witness found is deterministic.

Default bounds: single-profile checks search up to five voters and pairwise
checks up to three voters per side, all configurable; the checks quantified
over voter or candidate permutations default to three voters to keep the
permutation product tractable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .counting import Valuation
from .engine import (
    GeneratorFunction,
    Rule,
    derived_generator,
    extension_scores,
    generator_step,
    step_generator,
)
from .oracle import all_ballots, all_committees, committees_of_size
from .profiles import (
    Profile,
    apply_candidate_permutation,
    apply_voter_permutation,
    ballot_sort_key,
    profile_scale,
)


class PreconditionError(ValueError):
    """A checker was called on inputs outside its stated precondition."""


EXISTENTIAL_NOTE = (
    "existential axiom: bounded search can certify success but never failure"
)


@dataclass(frozen=True)
class AxiomReport:
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

    @property
    def ok(self) -> bool:
        return self.verdict in ("pass-exhaustive", "pass")


@dataclass(frozen=True)
class Bounds:
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

    def asdict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


DEFAULT_BOUNDS = Bounds()


# ---------------------------------------------------------------------------
# Profile universes


@lru_cache(maxsize=None)
def _anonymous_profiles(m: int, n_max: int) -> tuple[Profile, ...]:
    ballots = all_ballots(m)
    out = []
    for n in range(1, n_max + 1):
        for combo in itertools.combinations_with_replacement(ballots, n):
            out.append(Profile.from_ballots(m, combo))
    return tuple(out)


@lru_cache(maxsize=None)
def _ordered_profiles(m: int, n_max: int) -> tuple[Profile, ...]:
    ballots = all_ballots(m)
    out = []
    for n in range(1, n_max + 1):
        for combo in itertools.product(ballots, repeat=n):
            out.append(Profile.from_ballots(m, combo))
    return tuple(out)


def _profiles_for(rule: Rule, n_max: int) -> tuple[Profile, ...]:
    if rule.id_sensitive:
        return _ordered_profiles(rule.m, n_max)
    return _anonymous_profiles(rule.m, n_max)


def _shifted(profile: Profile, above: int) -> Profile:
    return Profile(
        profile.m,
        tuple((above + i + 1, b) for i, (_, b) in enumerate(profile.votes)),
    )


# ---------------------------------------------------------------------------
# n-statistics


def z_pairs(m: int, w_size: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (k, l): intersection size k, ballot size l, within bounds."""
    return tuple(
        (k, l)
        for k in range(0, w_size + 1)
        for l in range(k + 1, m - 1 - w_size + k + 1)
    )


@dataclass(frozen=True)
class NStats:
    """Counts n(c, k, l): approvers of c whose ballot hits the committee k
    times and has size l."""

    m: int
    committee: frozenset[int]
    pairs: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, tuple[int, ...]], ...]  # (candidate, counts per pair)

    def value(self, c: int, k: int, l: int) -> int:
        for cand, counts in self.rows:
            if cand == c:
                return counts[self.pairs.index((k, l))]
        raise KeyError(c)


def compute_n_stats(profile: Profile, committee) -> NStats:
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
    return NStats(m, committee, pairs, tuple(rows))


# ---------------------------------------------------------------------------
# Anonymity / neutrality


def check_anonymity(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Voter relabelings never change the outcome (universal, exhaustive)."""
    used = {"m": rule.m, "n": bounds.n_perm, "permutations": "all of S_n plus an id shift"}
    for profile in _profiles_for(rule, bounds.n_perm):
        ids = profile.voter_ids
        perms = [dict(zip(ids, image)) for image in itertools.permutations(ids)]
        perms.append({v: v + 1 for v in ids})
        for pi in perms:
            other = apply_voter_permutation(pi, profile)
            for k in range(rule.m + 1):
                fam, fam2 = rule.apply(profile, k), rule.apply(other, k)
                if fam != fam2:
                    return AxiomReport(
                        "anonymity",
                        rule.name,
                        "violation",
                        used,
                        witness={
                            "profile": profile,
                            "voter_permutation": pi,
                            "k": k,
                            "families": (fam, fam2),
                        },
                    )
    return AxiomReport("anonymity", rule.name, "pass-exhaustive", used)


def check_neutrality(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Candidate relabelings permute the outcome (universal, exhaustive)."""
    used = {"m": rule.m, "n": bounds.n_perm, "permutations": "all of S_m"}
    for profile in _profiles_for(rule, bounds.n_perm):
        for tau in itertools.permutations(range(rule.m)):
            other = apply_candidate_permutation(tau, profile)
            for k in range(rule.m + 1):
                fam = rule.apply(profile, k)
                expected = frozenset(frozenset(tau[c] for c in W) for W in fam)
                actual = rule.apply(other, k)
                if actual != expected:
                    return AxiomReport(
                        "neutrality",
                        rule.name,
                        "violation",
                        used,
                        witness={
                            "profile": profile,
                            "candidate_permutation": tuple(tau),
                            "k": k,
                            "families": (fam, actual),
                            "expected": expected,
                        },
                    )
    return AxiomReport("neutrality", rule.name, "pass-exhaustive", used)


# ---------------------------------------------------------------------------
# Non-imposition / continuity


def check_non_imposition(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Search for a uniquely-electing profile per committee (existential)."""
    m = rule.m
    used = {"m": m, "n": bounds.n_single}
    targets = {(k, W) for k in range(1, m + 1) for W in committees_of_size(m, k)}
    found: dict[tuple[int, frozenset], Profile] = {}
    singleton_seen = {k: False for k in range(1, m + 1)}
    for profile in _profiles_for(rule, bounds.n_single):
        trace = rule.trace(profile)
        for k in range(1, m + 1):
            fam = trace[k]
            if len(fam) == 1:
                singleton_seen[k] = True
                key = (k, next(iter(fam)))
                found.setdefault(key, profile)
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
    structural = [k for k, seen in singleton_seen.items() if not seen and k < m]
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
    return scaled + _shifted(b, max(scaled.voter_ids))


def _continuity_certificate(rule: Rule, a: Profile, b: Profile, k: int) -> int | None:
    """A replication count certified to restore every level of the trace.

    Only valid for rules that genuinely are sequential valuation rules.  For
    every winning committee of ``a`` and every extension that falls outside
    the next winning family, some argmax candidate beats it by a positive
    exact gap; enough copies of ``a`` make that gap dominate whatever ``b``
    contributes, which pins ``f(jA+B, l)`` inside ``f(A, l)`` level by level.
    """
    if rule.valuation is None or rule.id_sensitive or rule.step is None:
        return None
    v = rule.valuation
    trace = rule.trace(a, k)
    needed = 1
    for level in range(k):
        for X in trace[level]:
            score_a = extension_scores(v, a, X)
            score_b = extension_scores(v, b, X)
            best = max(score_a.values())
            argmax = [c for c in score_a if score_a[c] == best]
            for d in score_a:
                if X | {d} in trace[level + 1]:
                    continue
                gap = best - score_a[d]  # positive: d is not an argmax at X
                push = min(score_b[d] - score_b[c] for c in argmax)
                if push > 0:
                    needed = max(needed, int(push / gap) + 1)
    return needed


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
    ``pass``; black-box rules get ``pass`` or ``inconclusive`` at ``j_max``.
    """
    target = rule.apply(a, k)
    if len(target) != 1:
        raise PreconditionError("continuity needs a unique winning committee for A")
    certificate = _continuity_certificate(rule, a, b, k)
    limit = certificate if certificate is not None else j_max
    used = {"m": rule.m, "j_max": j_max, "certified_bound": certificate}
    for j in range(1, limit + 1):
        if rule.apply(_combined(a, j, b), k) == target:
            return AxiomReport(
                "continuity",
                rule.name,
                "pass",
                used,
                witness={"a": a, "b": b, "k": k, "j": j},
                note=EXISTENTIAL_NOTE,
            )
    note = EXISTENTIAL_NOTE + (
        f"; no replication count up to {limit} restores the base outcome"
        " (the deciding comparison is invariant under replication)"
    )
    return AxiomReport(
        "continuity",
        rule.name,
        "inconclusive",
        used,
        witness={"a": a, "b": b, "k": k, "target": target},
        note=note,
    )


def continuity_search(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Run the continuity check over a bounded family of instances."""
    used = {
        "m": rule.m,
        "n_a": bounds.n_continuity,
        "n_b": bounds.n_continuity_other,
        "j_max": bounds.j_max,
    }
    worst = 0
    for a in _profiles_for(rule, bounds.n_continuity):
        singleton_ks = [
            k for k in range(1, rule.m + 1) if len(rule.apply(a, k)) == 1
        ]
        if not singleton_ks:
            continue
        for b in _profiles_for(rule, bounds.n_continuity_other):
            for k in singleton_ks:
                report = check_continuity(rule, a, b, k, bounds.j_max)
                if report.verdict != "pass":
                    return AxiomReport(
                        "continuity", rule.name, "inconclusive", used,
                        witness=report.witness, note=report.note,
                    )
                worst = max(worst, report.witness["j"])
    return AxiomReport(
        "continuity",
        rule.name,
        "pass",
        used,
        note=EXISTENTIAL_NOTE + f"; largest minimal replication count seen: {worst}",
    )


# ---------------------------------------------------------------------------
# Committee monotonicity / generator consistency


def check_committee_monotonicity(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Winners extend smaller winners and extend to larger ones (universal)."""
    used = {"m": rule.m, "n": bounds.n_single}
    for profile in _profiles_for(rule, bounds.n_single):
        trace = rule.trace(profile)
        for k in range(1, rule.m + 1):
            for W in trace[k]:
                if not any(W - {x} in trace[k - 1] for x in W):
                    return AxiomReport(
                        "committee-monotonicity", rule.name, "violation", used,
                        witness={"profile": profile, "k": k, "committee": W,
                                 "missing": "no winning parent one size down"},
                    )
            for W in trace[k - 1]:
                if not any(
                    W | {x} in trace[k] for x in range(rule.m) if x not in W
                ):
                    return AxiomReport(
                        "committee-monotonicity", rule.name, "violation", used,
                        witness={"profile": profile, "k": k - 1, "committee": W,
                                 "missing": "no winning extension one size up"},
                    )
    return AxiomReport("committee-monotonicity", rule.name, "pass-exhaustive", used)


def check_generator_consistency(
    g: GeneratorFunction, bounds: Bounds = DEFAULT_BOUNDS
) -> AxiomReport:
    """On disjoint electorates with intersecting choices, the combined choice
    is exactly the intersection (universal over the searched pairs)."""
    m = g.m
    used = {"m": m, "n_each": bounds.n_pair_each}
    committees = all_committees(m, m - 1)
    profiles = _anonymous_profiles(m, bounds.n_pair_each)
    memo: dict[tuple[Profile, frozenset], frozenset] = {}

    def evaluate(profile: Profile, committee: frozenset) -> frozenset:
        key = (profile, committee)
        out = memo.get(key)
        if out is None:
            out = memo[key] = g.fn(profile, committee)
        return out

    for a in profiles:
        for b in profiles:
            shifted = _shifted(b, max(a.voter_ids))
            combined = a + shifted
            for W in committees:
                ga = evaluate(a, W)
                if not ga:
                    continue
                gb = evaluate(shifted, W)
                joint = ga & gb
                if not joint:
                    continue
                gab = evaluate(combined, W)
                if gab and gab != joint:
                    return AxiomReport(
                        "generator-consistency", g.name, "violation", used,
                        witness={
                            "a": a, "b": shifted, "committee": W,
                            "g_a": ga, "g_b": gb, "g_combined": gab,
                            "intersection": joint,
                        },
                    )
    return AxiomReport("generator-consistency", g.name, "pass-exhaustive", used)


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


def _shrunk_profiles(profile: Profile, committee: frozenset, id_sensitive: bool) -> Iterator[Profile]:
    if id_sensitive:
        per_voter = [_ballot_shrinkings(b, committee) for _, b in profile.votes]
        for choice in itertools.product(*per_voter):
            if tuple(choice) == profile.ballots():
                continue
            yield Profile(
                profile.m,
                tuple((v, ballot) for (v, _), ballot in zip(profile.votes, choice)),
            )
        return
    original = profile.ballot_multiset
    per_type = []
    for ballot, count in profile.ballot_counts:
        options = _ballot_shrinkings(ballot, committee)
        per_type.append(
            list(itertools.combinations_with_replacement(options, count))
        )
    for combo in itertools.product(*per_type):
        ballots = tuple(sorted(itertools.chain.from_iterable(combo), key=ballot_sort_key))
        if ballots == original:
            continue
        yield Profile.from_ballots(profile.m, ballots)


def check_independence_of_losers(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Disapproving candidates outside a winning committee keeps it winning."""
    used = {"m": rule.m, "n": bounds.n_single}
    for profile in _profiles_for(rule, bounds.n_single):
        trace = rule.trace(profile)
        for k in range(1, rule.m + 1):
            for W in sorted(trace[k], key=lambda c: tuple(sorted(c))):
                for shrunk in _shrunk_profiles(profile, W, rule.id_sensitive):
                    if W not in rule.apply(shrunk, k):
                        return AxiomReport(
                            "independence-of-losers", rule.name, "violation", used,
                            witness={
                                "profile": profile, "k": k, "committee": W,
                                "shrunk_profile": shrunk,
                                "families": (trace[k], rule.apply(shrunk, k)),
                            },
                        )
    return AxiomReport("independence-of-losers", rule.name, "pass-exhaustive", used)


def check_committee_separability(rule: Rule, bounds: Bounds = DEFAULT_BOUNDS) -> AxiomReport:
    """Winners decompose across electorates with complementary support."""
    m = rule.m
    used = {"m": m, "n_total": bounds.n_pair_total}
    profiles = _anonymous_profiles(m, bounds.n_pair_total - 1)
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
            if a.n + b.n > bounds.n_pair_total:
                continue
            shifted = _shifted(b, max(a.voter_ids))
            combined = a + shifted
            for k in range(m + 1):
                for W in rule.apply(combined, k):
                    wa, wb = W & a.support, W & complement
                    ok_a = wa in rule.apply(a, len(wa))
                    ok_b = wb in rule.apply(shifted, len(wb))
                    if not (ok_a and ok_b):
                        return AxiomReport(
                            "committee-separability", rule.name, "violation", used,
                            witness={
                                "a": a, "b": shifted, "k": k, "committee": W,
                                "part_a": wa, "part_b": wb,
                                "holds": {"a": ok_a, "b": ok_b},
                            },
                        )
    return AxiomReport("committee-separability", rule.name, "pass-exhaustive", used)


# ---------------------------------------------------------------------------
# Clone axioms


def _clone_pairs(profile: Profile) -> list[tuple[int, int]]:
    approvers = {
        c: frozenset(v for v, b in profile.votes if c in b) for c in range(profile.m)
    }
    return [
        (c, d)
        for c in range(profile.m)
        for d in range(c + 1, profile.m)
        if approvers[c] == approvers[d]
    ]


CLONE_AXIOMS = ("rejection", "acceptance", "distrust", "proportionality")


def check_clone_axiom(
    rule: Rule, which: str, bounds: Bounds = DEFAULT_BOUNDS
) -> AxiomReport:
    """The four clone-treatment axioms, checked exhaustively within bounds."""
    if which not in CLONE_AXIOMS:
        raise ValueError(f"unknown clone axiom {which!r}")
    name = f"clone-{which}" if which != "distrust" else "distrust"
    m = rule.m

    if which == "proportionality":
        used = {
            "m": m, "n1": bounds.n1_max, "n2": bounds.n2_max,
            "k_max": bounds.k_max_proportional,
            "family": "one bloc of identical ballots plus one singleton bloc",
        }
        for bloc in all_ballots(m):
            for c in range(m):
                if c in bloc:
                    continue
                for n1 in range(1, bounds.n1_max + 1):
                    for n2 in range(1, bounds.n2_max + 1):
                        profile = Profile.from_ballots(
                            m, [bloc] * n1 + [frozenset({c})] * n2
                        )
                        top_k = min(len(bloc), bounds.k_max_proportional, m)
                        for k in range(1, top_k + 1):
                            share = Fraction(n1, k)
                            for W in rule.apply(profile, k):
                                bad_in = share > n2 and c in W
                                bad_out = share < n2 and c not in W
                                if bad_in or bad_out:
                                    return AxiomReport(
                                        "clone-proportionality", rule.name,
                                        "violation", used,
                                        witness={
                                            "profile": profile, "k": k,
                                            "committee": W, "c": c,
                                            "n1": n1, "n2": n2,
                                            "share": share,
                                            "requires": "exclude c" if bad_in else "include c",
                                        },
                                    )
        return AxiomReport("clone-proportionality", rule.name, "pass-exhaustive", used)

    used = {"m": m, "n": bounds.n_single}
    for profile in _profiles_for(rule, bounds.n_single):
        pairs = _clone_pairs(profile)
        if not pairs and which in ("rejection", "acceptance"):
            continue  # those two axioms only constrain profiles with clones
        trace = rule.trace(profile)

        if which == "rejection":
            for k in range(1, m):
                fam = trace[k]
                if len(fam) != 1:
                    continue
                W = next(iter(fam))
                for c, d in pairs:
                    if c in W and d in W:
                        return AxiomReport(
                            "clone-rejection", rule.name, "violation", used,
                            witness={"profile": profile, "k": k, "committee": W,
                                     "clones": (c, d)},
                        )

        elif which == "acceptance":
            for c, d in pairs + [(d, c) for c, d in pairs]:
                rest = [x for x in range(m) if x not in (c, d)]
                for size in range(0, m - 1):
                    for W in itertools.combinations(rest, size):
                        W = frozenset(W)
                        if W | {c} in trace[size + 1] and W | {c, d} not in trace[size + 2]:
                            return AxiomReport(
                                "clone-acceptance", rule.name, "violation", used,
                                witness={
                                    "profile": profile, "committee": W,
                                    "clones": (c, d),
                                    "wins": W | {c}, "excluded": W | {c, d},
                                    "families": (trace[size + 1], trace[size + 2]),
                                },
                            )

        elif which == "distrust":
            exact = {c: 0 for c in range(m)}
            approvals = {c: 0 for c in range(m)}
            for ballot, count in profile.ballot_counts:
                if len(ballot) == 1:
                    exact[next(iter(ballot))] += count
                for c in ballot:
                    approvals[c] += count
            for k in range(1, m):
                fam = trace[k]
                if len(fam) != 1:
                    continue
                W = next(iter(fam))
                for b in sorted(W):
                    for c in range(m):
                        if c not in W and exact[c] > approvals[b]:
                            return AxiomReport(
                                "distrust", rule.name, "violation", used,
                                witness={
                                    "profile": profile, "k": k, "committee": W,
                                    "chosen": b, "ignored": c,
                                    "singleton_reports": exact[c],
                                    "approvals_of_chosen": approvals[b],
                                },
                            )
    return AxiomReport(name, rule.name, "pass-exhaustive", used)


# ---------------------------------------------------------------------------
# Information basis


def check_information_basis(
    valuation: Valuation, bounds: Bounds = DEFAULT_BOUNDS, m: int | None = None
) -> AxiomReport:
    """Profiles with equal n-statistics get equal generator choices."""
    if m is None:
        if valuation.table is None:
            raise ValueError("need m (valuation carries no table)")
        m = valuation.table.m
    w_top = m - 2 if bounds.w_max_stats is None else min(bounds.w_max_stats, m - 2)
    used = {"m": m, "n": bounds.n_stats, "w_max": w_top}
    for committee in all_committees(m, w_top):
        groups: dict[tuple, tuple[Profile, frozenset]] = {}
        for profile in _anonymous_profiles(m, bounds.n_stats):
            key = compute_n_stats(profile, committee).rows
            out = generator_step(valuation, profile, committee)
            seen = groups.get(key)
            if seen is None:
                groups[key] = (profile, out)
            elif seen[1] != out:
                return AxiomReport(
                    "information-basis", valuation.name, "violation", used,
                    witness={
                        "committee": committee,
                        "profile_1": seen[0], "profile_2": profile,
                        "choice_1": seen[1], "choice_2": out,
                    },
                )
    return AxiomReport("information-basis", valuation.name, "pass-exhaustive", used)


# ---------------------------------------------------------------------------
# Suites


SUITES = ("proper", "monotone", "clones", "all")


def run_suite(rule: Rule, suite: str, bounds: Bounds = DEFAULT_BOUNDS) -> list[AxiomReport]:
    """Run a named bundle of checks; see :data:`SUITES`."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    reports: list[AxiomReport] = []

    def proper_block():
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

    def monotone_block():
        reports.append(check_committee_monotonicity(rule, bounds))
        if rule.step is not None:
            reports.append(check_generator_consistency(step_generator(rule), bounds))
        reports.append(check_generator_consistency(derived_generator(rule), bounds))

    def clones_block():
        for which in CLONE_AXIOMS:
            reports.append(check_clone_axiom(rule, which, bounds))

    if suite in ("proper", "all"):
        proper_block()
    if suite in ("monotone", "all"):
        monotone_block()
    if suite in ("clones", "all"):
        clones_block()
    if suite == "all":
        reports.append(check_independence_of_losers(rule, bounds))
        reports.append(check_committee_separability(rule, bounds))
        if rule.kind in ("seq-thiele", "step-thiele", "step-scoring") and rule.valuation:
            reports.append(check_information_basis(rule.valuation, bounds, m=rule.m))
    return reports
