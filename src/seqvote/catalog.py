"""Built-in rules: the named sequential rules and the axiom-violating zoo.

Every rule is constructed for a fixed number of candidates ``m``; tables are
finite, so the same name yields a different (but consistent) rule per m.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .counting import (
    StepCountingTable,
    StepThieleTable,
    ThieleTable,
    Valuation,
    step_scoring_valuation,
    step_thiele_valuation,
    thiele_as_step_counting,
    step_thiele_as_step_counting,
    thiele_valuation,
    validate_step_counting,
    validate_step_thiele,
    validate_thiele,
)
from .engine import Rule, StepFn, extension_gains, generator_step
from .profiles import Profile

#: The clone-axiom witness constructions of :mod:`seqvote.witnesses`, by
#: their CLI names; listed here so the CLI parser needs no witness code.
WITNESS_CONSTRUCTIONS = ("T2", "T3-distrust", "T3-acceptance", "T4")


class UnknownRuleError(KeyError):
    """A rule, table or zoo name that the catalog does not define."""


def harmonic(x: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, x + 1)), Fraction(0))


_THIELE_FUNCTIONS = {
    "seqav": lambda x: x,
    "seqpav": harmonic,
    "seqccav": lambda x: min(x, 1),
    # Rewards candidates backed by already-satisfied voters; accepts
    # clones but trusts recommendations, so it fails distrust.
    "clone-trusting": lambda x: x if x <= 1 else 2 * x + 1,
}

THIELE_NAMES = ("seqav", "seqpav", "seqccav")

#: Every name :func:`thiele_table` knows.
THIELE_TABLE_NAMES = tuple(_THIELE_FUNCTIONS)

def thiele_table(name: str, m: int) -> ThieleTable:
    """The counting table behind a named sequential Thiele rule."""
    if name not in _THIELE_FUNCTIONS:
        raise UnknownRuleError(f"unknown Thiele table {name!r}")
    if name == "seqpav":  # every harmonic(x) at once, as running sums
        terms = (Fraction(1, i) for i in range(1, m + 1))
        return ThieleTable(itertools.accumulate(terms, initial=0))
    return ThieleTable.from_function(m, _THIELE_FUNCTIONS[name])


def sav_table(m: int) -> StepCountingTable:
    """Satisfaction approval: each voter splits one point over her ballot.

    ``h(x, y, z) = x/z`` does not depend on ``y``, so each of the
    ``(m+1)·m`` distinct entries is built once and its row shared by every y,
    in the table as well: :class:`StepCountingTable` converts a shared row once.
    """
    rows = [[Fraction(x, z) for z in range(1, m + 1)] for x in range(m + 1)]
    return StepCountingTable([[row] * m for row in rows])


def alternating_table(m: int) -> StepThieleTable:
    """Approval voting at odd committee sizes, coverage at even ones."""
    return StepThieleTable.from_function(
        m, lambda x, y: x if y % 2 == 1 else min(x, 1)
    )


def step_counting_table(name: str, m: int) -> StepCountingTable:
    """Any catalog rule's counting function in three-argument form."""
    if name in THIELE_TABLE_NAMES:
        return thiele_as_step_counting(thiele_table(name, m))
    if name == "seqsav":
        return sav_table(m)
    if name in ("av-cc-alternating", "alternating"):
        return step_thiele_as_step_counting(alternating_table(m))
    raise UnknownRuleError(f"unknown counting table {name!r}")


# ---------------------------------------------------------------------------
# Constructors


_THIELE_ERROR = "invalid Thiele counting function"


def _validate(h, validate, error: str) -> None:
    """Raise ``ValueError("<error>: <why>")`` unless ``validate`` accepts ``h``."""
    ok, why = validate(h)
    if not ok:
        raise ValueError(f"{error}: {why}")


def check_thiele(h: ThieleTable) -> None:
    """Raise ``ValueError("invalid Thiele counting function: <why>")`` unless
    ``h`` is a valid Thiele counting function."""
    _validate(h, validate_thiele, _THIELE_ERROR)


def _table_rule(kind: str, validate, valuation, error: str, h, name: str | None) -> Rule:
    """The ``kind`` rule of a counting table ``h`` that passes ``validate``."""
    _validate(h, validate, error)
    name = name or kind
    return Rule(name, h.m, kind, valuation=valuation(h, name))


def make_seq_thiele(h: ThieleTable, name: str | None = None) -> Rule:
    return _table_rule("seq-thiele", validate_thiele, thiele_valuation, _THIELE_ERROR, h, name)


def make_step_thiele(h: StepThieleTable, name: str | None = None) -> Rule:
    error = "invalid step-dependent Thiele counting function"
    return _table_rule("step-thiele", validate_step_thiele, step_thiele_valuation, error, h, name)


def make_step_scoring(h: StepCountingTable, name: str | None = None) -> Rule:
    error = "invalid step-dependent counting function"
    return _table_rule(
        "step-scoring", validate_step_counting, step_scoring_valuation, error, h, name
    )


# ---------------------------------------------------------------------------
# The zoo


def _voter1_doubled_step(profile: Profile, committee: frozenset) -> frozenset:
    """Approval voting's step with voter 1's ballot counted twice: the
    profile's approval tally, computed once per profile, plus one for each
    candidate voter 1 approves, if voter 1 votes (votes are in id order, so
    voter 1 comes first)."""
    votes = profile.votes
    doubled = votes[0][1] if votes and votes[0][0] == 1 else ()
    best, chosen = -1, []
    for c, total in enumerate(profile.approval_counts):
        if c in committee:
            continue
        if c in doubled:
            total += 1
        if total > best:
            best, chosen = total, [c]
        elif total == best:
            chosen.append(c)
    return frozenset(chosen)


def _cc_tiebreak_step(m: int) -> StepFn:
    """Approval voting's step on m candidates, its ties broken by coverage gains."""
    approval = thiele_valuation(thiele_table("seqav", m), "seqav")
    coverage = thiele_valuation(thiele_table("seqccav", m), "seqccav")

    def step(profile: Profile, committee: frozenset) -> frozenset:
        tied = generator_step(approval, profile, committee)
        if len(tied) == 1:
            return tied
        covers = extension_gains(coverage, profile, committee)
        best = max(covers[c] for c in tied)
        return frozenset(c for c in tied if covers[c] == best)

    return step


def make_zoo_rule(
    zoo_id: str, m: int, table: ThieleTable | None = None, name: str | None = None
) -> Rule:
    """Rules that each break one axiom while keeping the rest.

    ``optimizing-thiele`` and ``reverse-seq-thiele`` take an optional Thiele
    table (defaults: the proportional table for the optimizer, the coverage
    table for the reversal, whose extracted generator is inconsistent on
    three-voter electorates).
    """
    if zoo_id == "voter1-doubled-seqav":
        return Rule(
            "voter1-doubled-seqav",
            m,
            "zoo",
            step=_voter1_doubled_step,
            id_sensitive=True,
            violates="anonymity",
        )
    if zoo_id == "candidate-a-doubled-seqav":
        valuation = Valuation(
            "candidate-a-doubled",
            lambda ballot, committee: Fraction(
                len(ballot & committee) + (1 if 0 in (ballot & committee) else 0)
            ),
        )
        return Rule(
            "candidate-a-doubled-seqav",
            m,
            "zoo",
            valuation=valuation,
            violates="neutrality",
        )
    if zoo_id == "trivial":
        from .oracle import committees_of_size

        return Rule(
            "trivial",
            m,
            "zoo",
            apply_direct=lambda a, k: frozenset(committees_of_size(m, k)),
            violates="non-imposition",
        )
    if zoo_id == "cc-tiebreak-seqav":
        return Rule(
            "cc-tiebreak-seqav",
            m,
            "zoo",
            step=_cc_tiebreak_step(m),
            violates="continuity",
        )
    if zoo_id == "optimizing-thiele":
        from .oracle import optimizing_rule

        h = table if table is not None else thiele_table("seqpav", m)
        check_thiele(h)
        return optimizing_rule(
            thiele_valuation(h, "optimizing"), m, name or "optimizing-thiele"
        )
    if zoo_id == "reverse-seq-thiele":
        h = table if table is not None else thiele_table("seqccav", m)
        check_thiele(h)
        negated = thiele_valuation(
            ThieleTable(tuple(-v for v in h.values)), "reverse-thiele"
        )
        return Rule(
            name or "reverse-seq-thiele",
            m,
            "zoo",
            valuation=negated,
            violates="consistent committee monotonicity",
        )
    if zoo_id == "clone-trusting":
        rule = make_seq_thiele(thiele_table("clone-trusting", m), "clone-trusting")
        rule.violates = "distrust"
        return rule
    raise UnknownRuleError(f"unknown zoo rule {zoo_id!r}")


# ---------------------------------------------------------------------------
# Flat registry for the CLI


def make(name: str, m: int) -> Rule:
    """Look up any catalog rule by its flat name."""
    name = name.lower()
    if name in THIELE_NAMES:
        return make_seq_thiele(thiele_table(name, m), name)
    if name == "seqsav":
        return make_step_scoring(sav_table(m), "seqsav")
    if name in ("av-cc-alternating", "alternating"):
        return make_step_thiele(alternating_table(m), "av-cc-alternating")
    if name in ("voter1-doubled-seqav", "candidate-a-doubled-seqav", "trivial",
                "cc-tiebreak-seqav", "clone-trusting"):
        return make_zoo_rule(name, m)
    if name.startswith("optimizing-"):
        base = name.removeprefix("optimizing-")
        alias = {"av": "seqav", "pav": "seqpav", "ccav": "seqccav"}.get(base, base)
        return make_zoo_rule("optimizing-thiele", m, thiele_table(alias, m), name)
    if name.startswith("reverse-"):
        base = name.removeprefix("reverse-")
        return make_zoo_rule("reverse-seq-thiele", m, thiele_table(base, m), name)
    raise UnknownRuleError(f"unknown rule {name!r}")


RULE_NAMES = THIELE_NAMES + (
    "seqsav",
    "av-cc-alternating",
    "voter1-doubled-seqav",
    "candidate-a-doubled-seqav",
    "trivial",
    "cc-tiebreak-seqav",
    "clone-trusting",
    "optimizing-av",
    "optimizing-pav",
    "optimizing-ccav",
    "reverse-seqav",
    "reverse-seqpav",
    "reverse-seqccav",
)


def continuity_gap_instance(m: int = 3) -> tuple[Profile, Profile, int]:
    """An instance where the coverage tie-break ignores replication.

    In the base profile the two trailing candidates tie on approvals and the
    tie-break elects candidate 2; the extra voter tips the approval tie toward
    candidate 1 no matter how often the base profile is replicated, so no
    number of copies restores the base outcome at size 2.  Requires m >= 3.
    """
    if m < 3:
        raise ValueError("needs at least three candidates")
    base = Profile.from_ballots(m, [{0}, {0, 1}, {2}])
    extra = Profile.from_ballots(m, [{1}])
    return base, extra, 2
