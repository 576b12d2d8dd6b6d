from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqvote.catalog import make_seq_thiele, thiele_table
from seqvote.counting import ThieleTable, validate_thiele
from seqvote import witnesses
from seqvote.profiles import CapError, Profile
from seqvote.witnesses import (
    Witness,
    WitnessCapError,
    WitnessNotApplicable,
    build_witness,
    predicate_holds,
    witness_clone_acceptance,
    witness_clone_proportionality,
    witness_clone_rejection,
    witness_distrust,
)

from util import fam


AV3 = thiele_table("seqav", 3)
PAV3 = thiele_table("seqpav", 3)
CCAV3 = thiele_table("seqccav", 3)
TRUSTING3 = thiele_table("clone-trusting", 3)


# ---------------------------------------------------------------------------
# Clone rejection (construction T2)


def test_rejection_witness_for_approval():
    w = witness_clone_rejection(AV3)
    assert w.params["x"] == 2 and w.params["delta"] == 1 and w.params["ell"] == 2
    assert w.profile.ballot_counts == (
        (frozenset({2}), 1),
        (frozenset({0, 1}), 4),
    )
    assert w.k == 2
    assert w.expected == fam({0, 1})
    assert dict(w.expected_trace)[1] == fam({0}, {1})


def test_rejection_not_applicable_for_coverage():
    with pytest.raises(WitnessNotApplicable):
        witness_clone_rejection(CCAV3)


def test_rejection_witness_for_clone_trusting():
    w = witness_clone_rejection(TRUSTING3)
    assert w.params == {"x": 2, "delta": 4, "ell": 1, "clones": (0, 1)}
    assert w.profile.ballot_counts == (
        (frozenset({2}), 1),
        (frozenset({0, 1}), 3),
    )


def test_rejection_witness_for_pav():
    w = witness_clone_rejection(PAV3)
    assert w.params["x"] == 2 and w.params["delta"] == Fraction(1, 2)
    assert w.params["ell"] == 3


# ---------------------------------------------------------------------------
# Distrust (construction T3-distrust)


def test_distrust_witness_for_clone_trusting():
    w = witness_distrust(TRUSTING3)
    assert w.params["x"] == 2 and w.params["delta"] == 3 and w.params["ell"] == 1
    assert w.profile.ballot_counts == (
        (frozenset({0}), 2),
        (frozenset({2}), 2),
        (frozenset({0, 1}), 1),
    )
    assert w.expected == fam({0, 1})


def test_distrust_not_applicable_for_approval_or_pav():
    with pytest.raises(WitnessNotApplicable):
        witness_distrust(AV3)
    with pytest.raises(WitnessNotApplicable):
        witness_distrust(PAV3)  # its first deviation lies below the line


def test_distrust_witness_for_mildly_superlinear_table():
    w = witness_distrust(ThieleTable((0, 1, 3, 4)))
    assert w.params["x"] == 2 and w.params["delta"] == 1 and w.params["ell"] == 2
    assert predicate_holds(w, make_seq_thiele(ThieleTable((0, 1, 3, 4))))


# ---------------------------------------------------------------------------
# Clone acceptance (construction T3-acceptance)


def test_acceptance_witness_for_pav():
    w = witness_clone_acceptance(PAV3)
    assert w.params["x"] == 2 and w.params["delta"] == Fraction(1, 2) and w.params["ell"] == 3
    assert w.profile.ballot_counts == (
        (frozenset({2}), 2),
        (frozenset({0, 1}), 3),
    )
    assert dict(w.expected_trace)[1] == fam({0}, {1})
    assert w.expected == fam({0, 2}, {1, 2})


def test_acceptance_witness_for_coverage():
    w = witness_clone_acceptance(CCAV3)
    assert w.params["x"] == 2 and w.params["delta"] == 1 and w.params["ell"] == 2
    assert w.profile.ballot_counts == (
        (frozenset({2}), 1),
        (frozenset({0, 1}), 2),
    )


def test_acceptance_not_applicable_for_approval():
    with pytest.raises(WitnessNotApplicable):
        witness_clone_acceptance(AV3)
    with pytest.raises(WitnessNotApplicable):
        witness_clone_acceptance(TRUSTING3)  # deviates upward, accepts clones


# ---------------------------------------------------------------------------
# Clone proportionality (construction T4)


def test_proportionality_witness_for_approval():
    w = witness_clone_proportionality(AV3)
    assert w.params["x"] == 2 and w.params["ell"] == 2
    assert (w.params["n1"], w.params["n2"]) == (4, 3)
    assert w.profile.ballot_counts == (
        (frozenset({2}), 3),
        (frozenset({0, 1}), 4),
    )
    assert w.expected == fam({0, 1})
    assert Fraction(w.params["n1"], w.k) < w.params["n2"]


def test_proportionality_witness_for_coverage():
    w = witness_clone_proportionality(CCAV3)
    assert (w.params["n1"], w.params["n2"]) == (5, 2)
    assert w.expected == fam({0, 2}, {1, 2})
    assert Fraction(w.params["n1"], w.k) > w.params["n2"]


def test_proportionality_not_applicable_for_pav():
    with pytest.raises(WitnessNotApplicable):
        witness_clone_proportionality(PAV3)


# ---------------------------------------------------------------------------
# Cross-cutting invariants


@pytest.mark.parametrize(
    "builder,table",
    [
        (witness_clone_rejection, AV3),
        (witness_clone_rejection, TRUSTING3),
        (witness_distrust, TRUSTING3),
        (witness_clone_acceptance, PAV3),
        (witness_clone_acceptance, CCAV3),
        (witness_clone_proportionality, AV3),
        (witness_clone_proportionality, CCAV3),
    ],
)
def test_growing_the_replication_preserves_the_violation(builder, table):
    base = builder(table)
    ell = base.params["ell"]
    for extra in (1, 2):
        bigger = builder(table, ell=ell + extra)  # constructors re-verify internally
        assert bigger.params["ell"] == ell + extra
        assert predicate_holds(bigger, make_seq_thiele(table))


@pytest.mark.parametrize(
    "builder,table",
    [
        (witness_clone_rejection, AV3),
        (witness_clone_rejection, ThieleTable((0, 1, 1, 1, 2, 2))),
        (witness_distrust, TRUSTING3),
        (witness_distrust, ThieleTable((0, 1, 2, 3, 6, 7))),
        (witness_clone_acceptance, PAV3),
        (witness_clone_acceptance, ThieleTable((0, 1, 2, Fraction(5, 2), 3, Fraction(7, 2)))),
        (witness_clone_proportionality, AV3),
        (witness_clone_proportionality, CCAV3),
        (witness_clone_proportionality, ThieleTable((0, 1, Fraction(3, 2), Fraction(11, 6), 3, 3))),
    ],
)
def test_the_voter_cap_counts_each_witness_exactly(builder, table, monkeypatch):
    # The closed-form voter count is checked before any ballot is built, so
    # a cap one below the witness's size refuses it and a cap at it does not.
    voters = builder(table).profile.n
    monkeypatch.setattr(witnesses, "WITNESS_VOTER_CAP", voters - 1)
    with pytest.raises(WitnessCapError):
        builder(table)
    monkeypatch.setattr(witnesses, "WITNESS_VOTER_CAP", voters)
    assert builder(table).profile.n == voters
    monkeypatch.undo()
    with pytest.raises(CapError):  # an explicit replication is capped too
        builder(table, ell=10**9)


def test_minimal_replication_is_enforced():
    with pytest.raises(ValueError):
        witness_clone_rejection(AV3, ell=1)  # needs ell * delta > 1


def test_witnesses_from_unnormalized_tables():
    # An affine image of the linear table behaves exactly like it.
    skewed = ThieleTable((5, 7, 9))  # = 5 + 2x on three candidates... m=2
    with pytest.raises(WitnessNotApplicable):
        # no room for a third candidate on two candidates
        witness_clone_rejection(skewed)
    skewed3 = ThieleTable((5, 7, 9, 11))
    w = witness_clone_rejection(skewed3)
    assert w.profile.ballot_counts == witness_clone_rejection(AV3).profile.ballot_counts


def test_witness_on_wider_candidate_set():
    # Unused candidates are approved by nobody and never disturb the replay.
    av4 = thiele_table("seqav", 4)
    w = witness_clone_rejection(av4)
    assert w.profile.m == 4
    assert w.expected == fam({0, 1})
    w4 = witness_clone_proportionality(av4)
    assert w4.profile.m == 4
    assert w4.expected == fam({0, 1})


def test_predicate_fails_on_a_rule_that_respects_the_axiom():
    # Negative control: the coverage rule does not elect the clone pair on
    # the approval witness, so the predicate must come back false.
    w = witness_clone_rejection(AV3)
    coverage = make_seq_thiele(CCAV3, "coverage")
    assert not predicate_holds(w, coverage)


def test_predicate_rejects_a_pair_that_is_not_a_clone_pair():
    # Approval elects {0, 1} as the unique pair, but voter 3 approves 0 alone,
    # so 0 and 1 are not clones and clone rejection is not violated.
    profile = Profile.from_ballots(3, [{0, 1}, {0, 1}, {0}, {2}])
    seqav = make_seq_thiele(AV3, "seqav")
    assert seqav.apply(profile, 2) == fam({0, 1})
    w = Witness(
        "T2", "clone-rejection", profile, 2, fam({0, 1}), ((2, fam({0, 1})),),
        {"x": 2, "delta": 1, "ell": 2, "clones": (0, 1)},
    )
    assert not predicate_holds(w, seqav)


def test_predicate_rejects_acceptance_for_candidates_that_are_not_clones():
    # {0} wins at size 1 and {0, 1} loses at size 2, but 1 is approved by
    # nobody and 0 by two voters: c and d are not clones.
    profile = Profile.from_ballots(3, [{0}, {0}, {2}])
    seqav = make_seq_thiele(AV3, "seqav")
    assert seqav.apply(profile, 1) == fam({0})
    assert seqav.apply(profile, 2) == fam({0, 2})
    w = Witness(
        "T3-acceptance", "clone-acceptance", profile, 2, fam({0, 2}),
        ((1, fam({0})), (2, fam({0, 2}))),
        {"x": 2, "delta": 1, "ell": 2, "c": 0, "d": 1, "b": 2, "base": ()},
    )
    assert not predicate_holds(w, seqav)


def test_build_witness_dispatch():
    assert build_witness("T2", AV3).construction == "T2"
    assert build_witness("T4", CCAV3).axiom == "clone-proportionality"
    with pytest.raises(KeyError):
        build_witness("T9", AV3)


increments = st.lists(
    st.fractions(min_value=0, max_value=3, max_denominator=4), min_size=2, max_size=3
).filter(lambda inc: inc[0] > 0)


@settings(max_examples=60, deadline=None)
@given(start=st.fractions(min_value=0, max_value=2, max_denominator=3), inc=increments)
def test_every_valid_table_yields_a_verified_witness_or_a_reason(start, inc):
    # Constructors replay their profiles through the engine before returning,
    # so for arbitrary valid tables the only acceptable outcomes are a
    # machine-checked witness or a documented inapplicability.
    values = [start]
    for step in inc:
        values.append(values[-1] + step)
    table = ThieleTable(tuple(values))
    assert validate_thiele(table).ok
    for builder in (
        witness_clone_rejection,
        witness_distrust,
        witness_clone_acceptance,
        witness_clone_proportionality,
    ):
        try:
            witness = builder(table)
        except WitnessNotApplicable:
            continue
        assert predicate_holds(witness, make_seq_thiele(table, "random"))


def test_deep_deviation_needs_enough_candidates():
    # First deviation at x=3 on three candidates: no room for the extra
    # candidate the construction needs.
    table = ThieleTable((0, 1, 2, 5))
    with pytest.raises(WitnessNotApplicable):
        witness_distrust(table)
    # with a fourth candidate the construction goes through at x=3
    wide = ThieleTable((0, 1, 2, 5, 6))
    w = witness_distrust(wide)
    assert w.params["x"] == 3
    assert w.k == 3


def test_deep_deviations_on_five_candidates():
    # Tables that first deviate at x=4 exercise the multi-bloc shapes far
    # from the minimal two-candidate clone case; all constructions still
    # self-verify through the engine.
    w = witness_distrust(ThieleTable((0, 1, 2, 3, 6, 7)))
    assert w.params["x"] == 4 and w.k == 4
    assert dict(w.profile.ballot_counts) == {
        frozenset({4}): 2,
        frozenset({0, 1, 2}): 2,
        frozenset({0, 1, 2, 3}): 1,
    }
    w = witness_clone_acceptance(ThieleTable((0, 1, 2, Fraction(5, 2), 3, Fraction(7, 2))))
    assert w.params["x"] == 3 and w.params["ell"] == 3
    w = witness_clone_rejection(ThieleTable((0, 1, 1, 1, 2, 2)))
    assert w.params["x"] == 4
    assert dict(w.profile.ballot_counts) == {
        frozenset({2}): 3,
        frozenset({3}): 2,
        frozenset({4}): 1,
        frozenset({0, 1}): 4,
        frozenset({0, 1, 2, 3}): 2,
    }
    w = witness_clone_proportionality(ThieleTable((0, 1, Fraction(3, 2), Fraction(11, 6), 3, 3)))
    assert w.params["x"] == 4 and (w.params["n1"], w.params["n2"]) == (16, 5)


def test_the_cli_names_every_construction_in_builder_order():
    # The CLI's argparse choices come from the catalog, without this module.
    from seqvote import catalog, witnesses

    assert tuple(witnesses.BUILDERS) == witnesses.CONSTRUCTIONS == catalog.WITNESS_CONSTRUCTIONS
