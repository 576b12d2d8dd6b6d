import itertools
import math
from fractions import Fraction

import pytest

from seqvote.catalog import make, thiele_table
from seqvote.counting import committee_score, thiele_valuation
from seqvote.oracle import (
    EnumerationCapError,
    ProfileUniverse,
    all_ballots,
    brute_force_optimal,
    committees_of_size,
    compare_rules,
)
from seqvote.profiles import Profile, apply_candidate_permutation

from util import fam, naive_optimal, thiele_value

P1 = Profile.from_ballots(3, [{0, 1}, {0, 1}, {0, 1}, {2}])
AV = thiele_valuation(thiele_table("seqav", 3), "av")
PAV = thiele_valuation(thiele_table("seqpav", 3), "pav")


def test_brute_force_av_example():
    assert committee_score(AV, P1, {0, 1}) == 6
    assert committee_score(AV, P1, {0, 2}) == 4
    assert committee_score(AV, P1, {1, 2}) == 4
    assert brute_force_optimal(AV, P1, 2) == fam({0, 1})


def test_brute_force_full_committee():
    for valuation in (AV, PAV):
        assert brute_force_optimal(valuation, P1, 3) == fam({0, 1, 2})


def test_brute_force_pav_example():
    assert committee_score(PAV, P1, {0, 1}) == Fraction(9, 2)
    assert brute_force_optimal(PAV, P1, 2) == fam({0, 1})


def test_brute_force_matches_naive_enumeration():
    pav_values = [0, 1, Fraction(3, 2), Fraction(11, 6)]
    for profile in ProfileUniverse(3, 2):
        for k in range(4):
            expected = naive_optimal(thiele_value(pav_values), 3, profile.ballots(), k)
            assert brute_force_optimal(PAV, profile, k) == expected


def test_brute_force_av_elects_top_approval_candidates():
    from util import av_top_k

    for profile in ProfileUniverse(3, 3):
        for k in range(4):
            assert brute_force_optimal(AV, profile, k) == av_top_k(
                3, profile.ballots(), k
            )


def test_ballot_enumeration_order():
    assert all_ballots(2) == (
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    )


def test_profile_counts_closed_form():
    assert ProfileUniverse(2, 1).count(1) == 3
    assert ProfileUniverse(2, 2).count(2) == 6
    assert ProfileUniverse(3, 2).count(2) == 28
    for m in (2, 3):
        for n in (1, 2, 3, 4):
            universe = ProfileUniverse(m, n)
            profiles = [p for p in universe if p.n == n]
            assert len(profiles) == math.comb(2**m - 1 + n - 1, n)
            assert len(set(profiles)) == len(profiles)


def test_enumeration_is_canonical_and_deterministic():
    first = list(ProfileUniverse(2, 2))
    second = list(ProfileUniverse(2, 2))
    assert first == second
    assert first[0].ballots() == (frozenset({0}),)
    assert [p.n for p in first] == sorted(p.n for p in first)


def test_universe_cap():
    with pytest.raises(EnumerationCapError):
        list(ProfileUniverse(3, 4, cap=10))
    with pytest.raises(EnumerationCapError):
        committees_of_size(30, 15, cap=10)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_universe_streams_the_literal_listing_in_order(m, n):
    # first witnesses are deterministic only if the enumeration order is
    ballots = all_ballots(m)
    anonymous = [
        Profile.from_ballots(m, combo)
        for voters in range(1, n + 1)
        for combo in itertools.combinations_with_replacement(ballots, voters)
    ]
    ordered = [
        Profile.from_ballots(m, combo)
        for voters in range(1, n + 1)
        for combo in itertools.product(ballots, repeat=voters)
    ]
    universe = ProfileUniverse(m, n)
    assert list(universe) == anonymous
    assert [p.votes for p in universe] == [p.votes for p in anonymous]
    items = list(universe.items())
    assert [universe.profile(item) for item in items] == anonymous
    assert [universe.counts(item) for item in items] == [p.ballot_counts for p in anonymous]
    assert [universe.key(item) for item in items] == [p.ballot_counts for p in anonymous]
    assert len(items) == universe.total()
    sequences = ProfileUniverse(m, n, ordered=True)
    assert [p.votes for p in sequences] == [p.votes for p in ordered]
    items = list(sequences.items())
    assert [sequences.profile(item) for item in items] == ordered
    assert [sequences.counts(item) for item in items] == [p.ballot_counts for p in ordered]
    assert [sequences.key(item) for item in items] == ordered
    assert len(ordered) == sequences.total()


@pytest.mark.parametrize("ordered", [False, True])
def test_over_cap_universes_raise_before_yielding(ordered):
    universe = ProfileUniverse(3, 3, cap=100, ordered=ordered)
    assert universe.total() == (7 + 49 + 343 if ordered else 7 + 28 + 84)
    with pytest.raises(EnumerationCapError):
        iter(universe)
    with pytest.raises(EnumerationCapError):
        universe.items()


def _literal_orbit(universe, item, perms):
    """The items of ``item``'s profile relabeled by each of ``perms``."""
    profile = universe.profile(item)
    out = set()
    for tau in perms:
        ballots = apply_candidate_permutation(tau, profile).ballots()
        image = [universe.index[b] for b in ballots]
        out.add(tuple(image if universe.ordered else sorted(image)))
    return out


@pytest.mark.parametrize("m, n, ordered", [(2, 4, False), (3, 3, False), (4, 2, False), (3, 2, True)])
def test_representatives_are_the_first_item_of_each_orbit(m, n, ordered):
    # against orbits built by relabeling profiles: each orbit once, by its
    # first item in canonical order, and in canonical order
    universe = ProfileUniverse(m, n, ordered=ordered)
    items = list(universe.items())
    position = {item: i for i, item in enumerate(items)}
    perms = list(itertools.permutations(range(m)))

    def first_of_orbit(item, under):
        return min(_literal_orbit(universe, item, under), key=position.__getitem__) == item

    expected = [item for item in items if first_of_orbit(item, perms)]
    assert list(universe.representatives()) == expected
    for fixed in expected[::7]:  # under the relabelings that map one item to itself
        stabilizer = [tau for tau in perms if _literal_orbit(universe, fixed, [tau]) == {fixed}]
        expected_b = [item for item in items if first_of_orbit(item, stabilizer)]
        assert list(universe.representatives(fixing=fixed)) == expected_b


def test_representatives_past_the_table_cap_are_every_item():
    # 3! relabelings of 7 ballots make 42 table entries: over the cap every
    # item is yielded, with or without a fixed item, and no table is built;
    # at the cap the orbits still reduce
    items = list(ProfileUniverse(3, 1).items())
    over = ProfileUniverse(3, 1, cap=10)
    assert list(over.representatives()) == items
    assert list(over.representatives(fixing=(0,))) == items
    assert "relabelings" not in vars(over)
    at = ProfileUniverse(3, 1, cap=42)
    assert list(at.representatives()) == [(0,), (3,), (6,)]
    assert list(at.representatives(fixing=(0,))) == [(0,), (1,), (3,), (5,), (6,)]


def test_compare_rules_av_equals_optimizing_av():
    assert compare_rules(make("seqav", 3), make("optimizing-av", 3), ProfileUniverse(3, 3)) is None


def test_compare_rules_self():
    rule = make("seqpav", 3)
    assert compare_rules(rule, rule, ProfileUniverse(3, 2)) is None


def test_compare_rules_first_difference_is_deterministic():
    universe = ProfileUniverse(3, 4)
    first = compare_rules(make("seqpav", 3), make("optimizing-pav", 3), universe)
    again = compare_rules(make("seqpav", 3), make("optimizing-pav", 3), universe)
    assert first == again
    profile, k, sequential, optimal = first
    assert profile.ballot_multiset == (
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    )
    assert k == 2
    assert sequential == fam({0, 1}, {0, 2}, {1, 2})
    assert optimal == fam({0, 1})


def test_sequential_winners_reachable_through_winning_chains():
    # Structural sanity: recompute reachability with the brute-force scorer.
    for name in ("seqav", "seqpav", "seqccav"):
        rule = make(name, 3)
        valuation = rule.valuation
        for profile in ProfileUniverse(3, 2):
            reachable = {frozenset()}
            for size in range(1, 4):
                grown = set()
                for committee in reachable:
                    scores = {
                        c: committee_score(valuation, profile, committee | {c})
                        for c in range(3)
                        if c not in committee
                    }
                    best = max(scores.values())
                    grown.update(
                        committee | {c} for c, s in scores.items() if s == best
                    )
                reachable = grown
                assert rule.apply(profile, size) <= frozenset(reachable)
