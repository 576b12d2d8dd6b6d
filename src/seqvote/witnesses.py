"""Deterministic counterexample constructors for the clone axioms.

Each constructor takes a Thiele counting table, normalizes it to
``h(0)=0, h(1)=1`` (the induced rule is unchanged), locates the first index
where the table deviates from the target rule's table, and builds the
smallest two- or three-bloc profile on which the deviation flips an
election.  Construction families carry the opaque ids ``T2``,
``T3-distrust``, ``T3-acceptance``, and ``T4`` (these are also the CLI
names).

Every witness self-verifies: the constructor replays the profile through the
engine under both the normalized and the original table, checks the expected
families, and judges the violation with the bounded checker's own predicates
(:func:`seqvote.predicates.clone_violation`,
:func:`seqvote.predicates.proportionality_violation`), so a witness object
you can hold already carries a violation the checker would report.

Candidate labeling is fixed so witnesses are byte-stable: the clone bloc
takes indices ``0..x-1`` and auxiliary candidates take the next indices;
candidates beyond the construction's needs are approved by nobody.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .catalog import (
    WITNESS_CONSTRUCTIONS as CONSTRUCTIONS,
    check_thiele,
    make_seq_thiele,
    thiele_table,
)
from .counting import ThieleTable
from .engine import Family, Rule
from .predicates import clone_violation, proportionality_violation
from .profiles import CapError, Profile, Record


class WitnessNotApplicable(ValueError):
    """The table induces the rule the axiom characterizes; no witness exists."""


class WitnessVerificationError(AssertionError):
    """Engine replay contradicted the construction (indicates a bug)."""


class WitnessCapError(CapError):
    """The witness profile would hold more than :data:`WITNESS_VOTER_CAP` voters."""


#: The most voters a witness profile may hold.  The replication grows like
#: one over the table's first deviation; the named tables at m 3..12 need at
#: most 7 voters.
WITNESS_VOTER_CAP = 10_000


_AXIOM_OF = {
    "T2": "clone-rejection",
    "T3-distrust": "distrust",
    "T3-acceptance": "clone-acceptance",
    "T4": "clone-proportionality",
}


class Witness(Record):
    """A verified violation instance for one clone axiom."""

    construction: str
    axiom: str
    profile: Profile
    k: int
    expected: Family
    expected_trace: tuple[tuple[int, Family], ...]
    params: dict
    note: str = ""

    def asdict(self) -> dict:
        """The fields as :func:`seqvote.cli.render_report` hands them to the
        standard library's JSON encoder."""
        return {**super().asdict(), "expected_trace": dict(self.expected_trace)}


def _family(committees) -> Family:
    return frozenset(frozenset(c) for c in committees)


def _normalized(h: ThieleTable) -> ThieleTable:
    check_thiele(h)
    return h.normalized()


def _first_deviation(
    h: ThieleTable, target, applies, why_not: str
) -> tuple[int, int, Fraction]:
    """``(m, x, hn(x) - target(x))`` for the normalized table ``hn`` and the
    first ``x >= 2`` where it leaves ``target``.

    Refuses with ``why_not`` when there is no such ``x`` or ``applies``
    rejects its deviation, and when the construction's extra candidate
    ``x`` does not fit.
    """
    hn = _normalized(h)
    m = hn.m
    x = next((i for i in range(2, m + 1) if hn(i) != target(i)), None)
    if x is None or not applies(hn(x) - target(x)):
        raise WitnessNotApplicable(why_not)
    if x > m - 1:
        raise WitnessNotApplicable(
            f"first deviation at {x} needs at least {x + 1} candidates, table has {m}"
        )
    return m, x, hn(x) - target(x)


def _replication(ell: int | None, *lower_bounds: Fraction) -> int:
    """``ell``, or when None the smallest integer strictly above every bound."""
    need = max(1, *(int(bound) + 1 for bound in lower_bounds))
    if ell is None:
        return need
    if ell < need:
        raise ValueError(f"replication {ell} too small; need at least {need}")
    return ell


def _capped(construction: str, voters: int) -> None:
    """Refuse a witness of ``voters`` voters over the cap, before any ballot is built."""
    if voters > WITNESS_VOTER_CAP:
        raise WitnessCapError(
            f"{construction} needs {voters} voters, cap is {WITNESS_VOTER_CAP}"
        )


def _verified(h: ThieleTable, witness: Witness) -> Witness:
    """Replay under the original and the normalized table; both must agree."""
    for table in (h, _normalized(h)):
        rule = make_seq_thiele(table, "witness-replay")
        trace = rule.trace(witness.profile, witness.k)
        for level, family in witness.expected_trace:
            if trace[level] != family:
                raise WitnessVerificationError(
                    f"{witness.construction}: expected {sorted(map(sorted, family))} "
                    f"at size {level}, engine found {sorted(map(sorted, trace[level]))}"
                )
        if not predicate_holds(witness, rule):
            raise WitnessVerificationError(
                f"{witness.construction}: violated predicate does not hold on replay"
            )
    return witness


def predicate_holds(witness: Witness, rule: Rule) -> bool:
    """Does ``rule``, replaying the witness, violate the witness's axiom?

    The judgement is the bounded checker's own:
    :func:`seqvote.predicates.clone_violation` on the committee sizes up to
    the witness's ``k``, or :func:`seqvote.predicates.proportionality_violation` at
    ``k``, so a pair that is not a clone pair proves nothing.
    """
    which = _AXIOM_OF[witness.construction].removeprefix("clone-")
    profile, k = witness.profile, witness.k
    if which == "proportionality":
        c = witness.params["c"]
        found = proportionality_violation(profile.ballot_counts, k, c, rule.apply(profile, k))
    else:
        found = clone_violation(which, rule.m, profile.ballot_counts, rule.trace(profile, k))
    return found is not None


# ---------------------------------------------------------------------------
# Constructors


def witness_clone_rejection(h: ThieleTable, ell: int | None = None) -> Witness:
    """A profile where a unique winning committee contains a clone pair.

    Applies to every sequential Thiele table except the coverage table: let
    ``x`` be the first index whose normalized value exceeds 1.  The clone
    bloc ``0..x-1`` plus decreasing singleton support pushes the second clone
    into the unique size-``x`` winner.
    """
    m, x, delta = _first_deviation(
        h, lambda i: 1, lambda dev: dev > 0,
        "table is the coverage rule's on this domain; it rejects clones",
    )
    ell = _replication(ell, 1 / delta)
    _capped("T2", ell + x * (x + 1) // 2)
    clones = list(range(x))
    ballots = [frozenset(clones)] * ell + [frozenset({0, 1})] * x
    for i in range(3, x + 2):  # bloc sizes x-1, x-2, ..., 1 on candidates 2..x
        ballots += [frozenset({i - 1})] * (x + 2 - i)
    profile = Profile.from_ballots(m, ballots)
    runner_up = _family([{0} | set(range(2, x)), {1} | set(range(2, x))])
    expected = _family([set(range(x))])
    return _verified(h, Witness(
        "T2", _AXIOM_OF["T2"], profile, x, expected, ((x - 1, runner_up), (x, expected)),
        {"x": x, "delta": delta, "ell": ell, "clones": (0, 1)},
        note="clones 0 and 1 both enter the unique winning committee",
    ))


def witness_distrust(h: ThieleTable, ell: int | None = None) -> Witness:
    """A profile electing a trusted recommendation over a stronger singleton bloc.

    Applies when the first normalized deviation from the linear table lies
    above it.  A committee of ``x-1`` candidates is fixed by two loyal voters;
    the table's surplus at ``x`` drags in candidate ``c`` even though more
    voters uniquely report ``d``.
    """
    m, x, delta = _first_deviation(
        h, lambda i: i, lambda dev: dev > 0,
        "first deviation is not above the linear table; distrust holds there",
    )
    ell = _replication(ell, 1 / delta)
    _capped("T3-distrust", 2 * ell + 3)
    base = set(range(x - 1))
    c, d = x - 1, x
    ballots = (
        [frozenset(base | {c})] * ell
        + [frozenset({d})] * (ell + 1)
        + [frozenset(base)] * 2  # the two loyal voters are kept literal
    )
    profile = Profile.from_ballots(m, ballots)
    expected = _family([base | {c}])
    return _verified(h, Witness(
        "T3-distrust", _AXIOM_OF["T3-distrust"], profile, x, expected,
        ((x - 1, _family([base])), (x, expected)),
        {"x": x, "delta": delta, "ell": ell, "c": c, "d": d, "base": tuple(sorted(base))},
        note=f"candidate {c} is chosen although {ell + 1} voters report only {{{d}}}",
    ))


def witness_clone_acceptance(h: ThieleTable, ell: int | None = None) -> Witness:
    """A profile where one clone wins but adding its twin falls out.

    Applies when the first normalized deviation from the linear table lies
    below it: the deficit at ``x`` makes the second clone worth less than an
    unrelated singleton candidate.
    """
    m, x, deviation = _first_deviation(
        h, lambda i: i, lambda dev: dev < 0,
        "first deviation is not below the linear table; clone-acceptance holds there",
    )
    delta = -deviation
    ell = _replication(ell, 1 / delta)
    _capped("T3-acceptance", 2 * ell - 1)
    base = set(range(x - 2))
    c, d, b = x - 2, x - 1, x
    ballots = [frozenset(base | {c, d})] * ell + [frozenset({b})] * (ell - 1)
    profile = Profile.from_ballots(m, ballots)
    subsets = [set(sub) for sub in itertools.combinations(sorted(base | {c, d}), x - 1)]
    expected = _family({b} | sub for sub in subsets)
    return _verified(h, Witness(
        "T3-acceptance", _AXIOM_OF["T3-acceptance"], profile, x, expected,
        ((x - 1, _family(subsets)), (x, expected)),
        {"x": x, "delta": delta, "ell": ell, "c": c, "d": d, "b": b,
         "base": tuple(sorted(base))},
        note=f"{{{c}}} extends a winner at size {x - 1} but the clone pair is shut out at {x}",
    ))


def witness_clone_proportionality(h: ThieleTable, ell: int | None = None) -> Witness:
    """A two-bloc profile breaking proportional treatment of a clone bloc.

    Applies to every sequential Thiele table except the proportional one: let
    ``x`` be the first index where the normalized table departs from the
    harmonic numbers.  Above them the clone bloc crowds out a singleton
    candidate it should yield to; below them the singleton candidate displaces
    a clone it should lose against.
    """
    m, x, deviation = _first_deviation(
        h, thiele_table("seqpav", h.m), lambda dev: dev != 0,
        "table is the proportional rule's on this domain; it treats clones proportionally",
    )
    delta = abs(deviation)
    ell = _replication(ell, 1 / (x * delta), x - 1)
    _capped("T4", ell * (x + 1) + 1)
    clones = frozenset(range(x))
    c = x
    if deviation > 0:
        n1, n2 = ell * x, ell + 1
        expected = _family([clones])
        requires = "include"
    else:
        n1, n2 = ell * x + 1, ell
        expected = _family(
            {c} | set(sub) for sub in itertools.combinations(sorted(clones), x - 1)
        )
        requires = "exclude"
    profile = Profile.from_ballots(m, [clones] * n1 + [frozenset({c})] * n2)
    return _verified(h, Witness(
        "T4", _AXIOM_OF["T4"], profile, x, expected, ((x, expected),),
        {"x": x, "delta": delta, "ell": ell, "c": c, "n1": n1, "n2": n2,
         "requires": requires},
        note=f"average representation demands to {requires} candidate {c}, the rule does the opposite",
    ))


BUILDERS = {
    "T2": witness_clone_rejection,
    "T3-distrust": witness_distrust,
    "T3-acceptance": witness_clone_acceptance,
    "T4": witness_clone_proportionality,
}


def build_witness(construction: str, h: ThieleTable, ell: int | None = None) -> Witness:
    if construction not in BUILDERS:
        raise KeyError(f"unknown construction {construction!r}; pick from {CONSTRUCTIONS}")
    return BUILDERS[construction](h, ell)
