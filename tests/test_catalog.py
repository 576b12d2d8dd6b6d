from fractions import Fraction

import pytest

from seqvote import catalog
from seqvote.catalog import (
    alternating_table,
    continuity_gap_instance,
    harmonic,
    make,
    make_seq_thiele,
    make_step_scoring,
    make_zoo_rule,
    sav_table,
    step_counting_table,
    thiele_table,
)
from seqvote.counting import StepCountingTable, ThieleTable
from seqvote.oracle import ProfileUniverse, all_committees, compare_rules
from seqvote.profiles import Profile

from util import fam, voter1_doubled_step_literal

P1 = Profile.from_ballots(3, [{0, 1}, {0, 1}, {0, 1}, {2}])


def test_named_tables():
    assert thiele_table("seqav", 3).values == (0, 1, 2, 3)
    assert thiele_table("seqpav", 3).values == (0, 1, Fraction(3, 2), Fraction(11, 6))
    assert thiele_table("seqccav", 3).values == (0, 1, 1, 1)
    assert thiele_table("clone-trusting", 3).values == (0, 1, 5, 7)
    assert sav_table(3)(1, 2, 3) == Fraction(1, 3)
    assert alternating_table(4)(2, 1) == 2
    assert alternating_table(4)(2, 2) == 1
    assert harmonic(4) == Fraction(25, 12)


def test_the_proportional_table_holds_the_harmonic_numbers():
    for m in range(1, 13):
        table = thiele_table("seqpav", m)
        assert table.values == tuple(harmonic(x) for x in range(m + 1))


def test_the_satisfaction_table_shares_one_row_per_x():
    table = sav_table(200)
    assert len({id(row) for yrow in table.values for row in yrow}) == 201


def test_make_seq_thiele_runs_and_validates():
    assert make_seq_thiele(thiele_table("seqav", 3), "seqav").apply(P1, 2) == fam({0, 1})
    assert make_seq_thiele(thiele_table("seqpav", 3), "seqpav").apply(P1, 2) == fam({0, 1})
    assert make_seq_thiele(thiele_table("seqccav", 3), "seqccav").apply(P1, 2) == fam(
        {0, 2}, {1, 2}
    )
    with pytest.raises(ValueError):
        make_seq_thiele(ThieleTable((0, 0, 0)))


def test_make_step_scoring_sav():
    rule = make_step_scoring(sav_table(3), "seqsav")
    single = Profile.from_ballots(3, [{0, 1, 2}])
    assert rule.apply(single, 2) == fam({0, 1}, {0, 2}, {1, 2})
    with pytest.raises(ValueError):
        make_step_scoring(StepCountingTable.from_function(3, lambda x, y, z: 1))


def test_step_scoring_linear_table_behaves_like_approval():
    embedded = make_step_scoring(step_counting_table("seqav", 3), "embedded")
    assert compare_rules(make("seqav", 3), embedded, ProfileUniverse(3, 3)) is None


def test_alternating_rule_switches_between_av_and_coverage():
    rule = make("av-cc-alternating", 3)
    assert rule.apply(P1, 1) == fam({0}, {1})  # odd step: approval
    assert rule.apply(P1, 2) == fam({0, 2}, {1, 2})  # even step: coverage


def test_zoo_voter1_doubled():
    rule = make_zoo_rule("voter1-doubled-seqav", 3)
    assert rule.id_sensitive and rule.violates == "anonymity"
    p = Profile.from_dict(3, {1: {0}, 2: {1}})
    assert rule.apply(p, 1) == fam({0})
    swapped = Profile.from_dict(3, {1: {1}, 2: {0}})
    assert rule.apply(swapped, 1) == fam({1})


def test_voter1_doubled_step_matches_its_literal_tally():
    # every ordered profile up to three voters, with voter 1 and with the
    # voters renumbered from 2, at every committee short of the full one
    for m in (1, 2, 3):
        universe = ProfileUniverse(m, 3, ordered=True)
        for item in universe.items():
            profile = universe.profile(item)
            for p in (profile, profile.relabeled(2)):
                for W in all_committees(m, m - 1):
                    assert catalog._voter1_doubled_step(p, W) == voter1_doubled_step_literal(p, W)


def test_zoo_candidate_doubled():
    rule = make_zoo_rule("candidate-a-doubled-seqav", 3)
    assert rule.violates == "neutrality"
    p = Profile.from_dict(3, {1: {0}, 2: {1}})
    assert rule.apply(p, 1) == fam({0})
    mirrored = Profile.from_dict(3, {1: {1}, 2: {0}})
    assert rule.apply(mirrored, 1) == fam({0})  # candidate 0 still favoured


def test_zoo_trivial():
    rule = make_zoo_rule("trivial", 3)
    assert rule.apply(P1, 2) == fam({0, 1}, {0, 2}, {1, 2})
    assert rule.apply(P1, 0) == fam(set())


def test_zoo_cc_tiebreak_refines_approval_ties():
    rule = make_zoo_rule("cc-tiebreak-seqav", 3)
    # approvals tie 0 and 1 at the second step; coverage prefers 2... the
    # candidates tie on approvals but only 2 covers the lone voter.
    p = Profile.from_ballots(3, [{0}, {0, 1}, {2}])
    assert rule.apply(p, 1) == fam({0})
    assert rule.apply(p, 2) == fam({0, 2})
    # remaining coverage ties keep all candidates
    q = Profile.from_ballots(3, [{0}, {1, 2}])
    assert rule.apply(q, 2) == fam({0, 1}, {0, 2})


def test_zoo_reverse_picks_minimal_marginal():
    rule = make("reverse-seqav", 3)
    p = Profile.from_ballots(3, [{0}, {0, 1}])
    assert rule.apply(p, 1) == fam({2})
    assert rule.apply(p, 2) == fam({1, 2})


def test_zoo_optimizing_thiele():
    rule = make("optimizing-pav", 3)
    assert rule.apply(P1, 2) == fam({0, 1})
    assert rule.violates == "consistent committee monotonicity"
    # the defining non-monotone instance: {2} wins alone at size one but has
    # no winning extension at size two
    p = Profile.from_ballots(3, [{0}, {1}, {0, 2}, {1, 2}])
    assert rule.apply(p, 1) == fam({0}, {1}, {2})
    assert rule.apply(p, 2) == fam({0, 1})


def test_zoo_clone_trusting_is_a_thiele_rule():
    rule = make("clone-trusting", 3)
    assert rule.kind == "seq-thiele"
    assert rule.violates == "distrust"
    assert rule.apply(P1, 2) == fam({0, 1})


def test_registry_covers_all_names_and_rejects_unknown():
    assert len(set(catalog.RULE_NAMES)) == len(catalog.RULE_NAMES)
    for name in catalog.RULE_NAMES:
        rule = make(name, 3)
        assert rule.m == 3
        assert rule.apply(P1, 0) == fam(set())
    with pytest.raises(KeyError):
        make("borda", 3)
    with pytest.raises(KeyError):
        make_zoo_rule("nonsense", 3)


def test_continuity_gap_instance_shape():
    base, extra, k = continuity_gap_instance(3)
    assert k == 2
    rule = make("cc-tiebreak-seqav", 3)
    assert rule.apply(base, 2) == fam({0, 2})
    with pytest.raises(ValueError):
        continuity_gap_instance(2)
