import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seqvote.profiles import (
    Profile,
    ProfileError,
    apply_candidate_permutation,
    apply_voter_permutation,
    ballot_sort_key,
    profile_scale,
    profile_sum,
    validate_ballot,
)

from util import SymmetrizationCapError, symmetrize_profile


def test_construction_and_accessors():
    p = Profile.from_dict(3, {1: {0, 1}, 2: {2}})
    assert p.n == 2
    assert p.voter_ids == (1, 2)
    assert p.ballot(1) == {0, 1}
    assert p.support == {0, 1, 2}
    assert p.ballot_counts == ((frozenset({2}), 1), (frozenset({0, 1}), 1))


def test_approval_counts_count_each_candidates_approvers():
    p = Profile.from_dict(4, {2: {0, 2}, 5: {2}, 9: {0, 1, 2}})
    assert p.approval_counts == (2, 1, 3, 0)
    for ballots in itertools.product([{0}, {1, 2}, {0, 1, 2}], repeat=3):
        p = Profile.from_ballots(3, ballots)
        assert p.approval_counts == tuple(sum(c in b for b in ballots) for c in range(3))


def test_invalid_profiles_rejected():
    with pytest.raises(ProfileError):
        Profile.from_dict(3, {})
    with pytest.raises(ProfileError):
        Profile.from_dict(3, {1: set()})
    with pytest.raises(ProfileError):
        Profile.from_dict(2, {1: {2}})
    with pytest.raises(ProfileError):
        Profile.from_dict(3, {0: {1}})
    with pytest.raises(ProfileError):
        validate_ballot(2, [True])


def test_constructors_validate_each_ballot_once(monkeypatch):
    from seqvote import profiles

    calls = []
    original = profiles.validate_ballot

    def counting(m, approved):
        calls.append(approved)
        return original(m, approved)

    monkeypatch.setattr(profiles, "validate_ballot", counting)
    p = Profile.from_ballots(3, [{0, 1}, [2], {0, 1}])
    assert len(calls) == 3 and p.ballot(2) == frozenset({2})
    calls.clear()
    Profile.from_dict(3, {4: {0}, 2: (1, 2)})
    assert len(calls) == 2
    calls.clear()
    q = Profile.from_counts(3, p.ballot_counts)  # once per distinct ballot
    assert len(calls) == 2 and q == p.canonical()


def test_from_counts_builds_the_canonical_profile():
    p = Profile.from_dict(3, {2: {0, 1}, 5: {2}, 9: {0, 1}})
    q = Profile.from_counts(3, p.ballot_counts)
    assert q.votes == (
        (1, frozenset({2})), (2, frozenset({0, 1})), (3, frozenset({0, 1})),
    )
    assert q.ballot_counts == p.ballot_counts and q == p.canonical()
    for bad in (
        [],
        [({0}, 0)],
        [({0}, True)],
        [({3}, 1)],
        [(set(), 1)],
        [({0, 1}, 1), ({2}, 1)],  # not in canonical order
        [({2}, 1), ({2}, 1)],  # not distinct
    ):
        with pytest.raises(ProfileError):
            Profile.from_counts(3, bad)


def test_sum_of_disjoint_profiles_is_union():
    a = Profile.from_dict(3, {1: {0}})
    b = Profile.from_dict(3, {2: {1}})
    assert (a + b).votes == ((1, frozenset({0})), (2, frozenset({1})))


def test_sum_commutative_up_to_relabeling():
    p = Profile.from_dict(3, {1: {0, 1}, 2: {2}})
    q = Profile.from_dict(3, {3: {1}, 4: {0, 2}})
    relabeled_q = Profile.from_dict(3, {7: {1}, 9: {0, 2}})
    assert (p + q).same_ballots(relabeled_q + p)


def test_sum_duplicates_ballots():
    a = Profile.from_dict(3, {1: {0, 1}})
    b = Profile.from_dict(3, {2: {0, 1}})
    assert (a + b).ballot_counts == ((frozenset({0, 1}), 2),)


def test_sum_rejects_overlapping_ids_and_mixed_m():
    a = Profile.from_dict(3, {1: {0}})
    with pytest.raises(ProfileError):
        profile_sum(a, Profile.from_dict(3, {1: {1}}))
    with pytest.raises(ProfileError):
        profile_sum(a, Profile.from_dict(4, {2: {1}}))


def test_scale_identity_and_replication():
    p = Profile.from_dict(3, {1: {0}, 2: {1, 2}})
    assert profile_scale(1, p).same_ballots(p)
    tripled = profile_scale(3, Profile.from_dict(3, {1: {0}}))
    assert tripled.ballot_counts == ((frozenset({0}), 3),)
    assert tripled.n == 3
    with pytest.raises(ProfileError):
        profile_scale(0, p)


def test_scale_distributes_over_sum_anonymously():
    p = Profile.from_dict(3, {1: {0}})
    q = Profile.from_dict(3, {2: {1, 2}})
    left = profile_scale(2, p + q)
    right = profile_scale(2, p) + profile_scale(2, q).relabeled(first_id=5)
    assert left.same_ballots(right)


def test_scale_keeps_voter_one_in_first_copy():
    p = Profile.from_dict(3, {1: {0}, 2: {1}})
    doubled = profile_scale(2, p)
    assert doubled.ballot(1) == {0}
    assert doubled.n == 4


def test_sum_associative_anonymously():
    p = Profile.from_dict(2, {1: {0}})
    q = Profile.from_dict(2, {2: {1}})
    r = Profile.from_dict(2, {3: {0, 1}})
    assert ((p + q) + r).same_ballots(p + (q + r))


def test_candidate_permutation_examples():
    p = Profile.from_dict(3, {1: {0, 2}})
    assert apply_candidate_permutation((0, 1, 2), p) == p
    swapped = apply_candidate_permutation({0: 1, 1: 0, 2: 2}, p)
    assert swapped.ballot(1) == {1, 2}
    tau = (2, 0, 1)
    inverse = (1, 2, 0)
    assert apply_candidate_permutation(inverse, apply_candidate_permutation(tau, p)) == p
    with pytest.raises(ProfileError):
        apply_candidate_permutation((0, 0, 2), p)


def test_candidate_permutation_preserves_statistics():
    p = Profile.from_dict(3, {1: {0, 1}, 2: {2}, 3: {0, 1, 2}})
    tau = (1, 2, 0)
    q = apply_candidate_permutation(tau, p)
    assert q.n == p.n
    assert sorted(len(b) for b in q.ballots()) == sorted(len(b) for b in p.ballots())
    committee = frozenset({0, 2})
    image = frozenset(tau[c] for c in committee)
    assert sorted(len(b & image) for b in q.ballots()) == sorted(
        len(b & committee) for b in p.ballots()
    )


def test_voter_permutation():
    p = Profile.from_dict(3, {1: {0}, 2: {1}})
    q = apply_voter_permutation({1: 2, 2: 1}, p)
    assert q.ballot(2) == {0} and q.ballot(1) == {1}
    with pytest.raises(ProfileError):
        apply_voter_permutation({1: 2}, p)


def test_symmetrize_single_fixed_candidate():
    # Expected output derived by enumerating the permutations fixing 0.
    p = Profile.from_dict(3, {1: {0, 1}})
    expected = []
    for images in itertools.permutations([1, 2]):
        tau = {0: 0, 1: images[0], 2: images[1]}
        expected.append(frozenset(tau[c] for c in {0, 1}))
    out = symmetrize_profile(p, {0})
    assert out.n == 2
    assert sorted(out.ballots(), key=ballot_sort_key) == sorted(expected, key=ballot_sort_key)
    assert out.ballot_multiset == (frozenset({0, 1}), frozenset({0, 2}))


def test_symmetrize_fixing_everything_is_identity():
    p = Profile.from_dict(3, {1: {0, 2}, 2: {1}})
    assert symmetrize_profile(p, {0, 1, 2}).same_ballots(p)


def test_symmetrize_nothing_fixed():
    p = Profile.from_dict(3, {1: {0}})
    out = symmetrize_profile(p, frozenset())
    assert out.n == 6
    counts = dict(out.ballot_counts)
    assert counts == {
        frozenset({0}): 2,
        frozenset({1}): 2,
        frozenset({2}): 2,
    }


def test_symmetrize_equalizes_n_statistics():
    from seqvote.axioms import compute_n_stats

    p = Profile.from_dict(4, {1: {0, 1}, 2: {1, 2, 3}, 3: {2}})
    fixed = frozenset({0})
    out = symmetrize_profile(p, fixed)
    rows = dict(compute_n_stats(out, fixed))
    reference = rows[1]
    assert all(rows[c] == reference for c in (2, 3))


def test_symmetrize_cap():
    p = Profile.from_dict(4, {1: {0}})
    with pytest.raises(SymmetrizationCapError):
        symmetrize_profile(p, frozenset(), cap=5)


def test_canonical_and_anonymous_equality():
    p = Profile.from_dict(3, {5: {0, 1}, 9: {2}})
    q = p.canonical()
    assert q.voter_ids == (1, 2)
    assert q.same_ballots(p)
    assert q.ballots() == (frozenset({2}), frozenset({0, 1}))


def test_relabeled_numbers_voters_from_a_positive_id():
    p = Profile.from_dict(3, {5: {0, 1}, 9: {2}})
    assert p.relabeled(4).votes == ((4, frozenset({0, 1})), (5, frozenset({2})))
    for first_id in (0, 1.5):
        with pytest.raises(ProfileError):
            p.relabeled(first_id)


# Exactness of the rational arithmetic backing all scores: addition agrees
# with integer cross-multiplication and results are always reduced.
@given(
    p=st.integers(-50, 50),
    q=st.integers(1, 50),
    r=st.integers(-50, 50),
    s=st.integers(1, 50),
)
def test_rational_addition_exact_and_reduced(p, q, r, s):
    total = Fraction(p, q) + Fraction(r, s)
    assert total == Fraction(p * s + r * q, q * s)
    assert math.gcd(total.numerator, total.denominator) == 1
    assert total.denominator > 0


def test_profiles_are_immutable_values():
    a = Profile.from_ballots(3, [{0, 1}, {2}])
    b = Profile.from_dict(3, {2: [2], 1: [1, 0]})
    assert a == b and hash(a) == hash(b) and a is not b
    assert {a: "cached"}[b] == "cached"
    assert a != Profile.from_ballots(3, [{2}, {0, 1}])  # ids matter
    assert a != Profile.from_ballots(4, [{0, 1}, {2}])
    assert a != (a.m, a.votes)
    assert repr(a) == "Profile(m=3, votes=((1, frozenset({0, 1})), (2, frozenset({2}))))"
    assert Profile(3, a.votes) == Profile(m=3, votes=a.votes, checked=True) == a
    for field in ("m", "votes", "ballot_counts"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    with pytest.raises(AttributeError):
        del a.votes
    assert a.ballot_counts == ((frozenset({2}), 1), (frozenset({0, 1}), 1))
    assert (a.m, a.n) == (3, 2)


def test_lazy_fields_are_computed_once_and_kept():
    # each lazy field lands in the profile's __dict__ on first access, where
    # later reads find it; one that from_counts fills in is never computed
    p = Profile.from_ballots(3, [{2}, {0, 1}, {2}])
    fields = ("ballot_multiset", "ballot_counts", "support", "approval_counts")
    assert not any(name in p.__dict__ for name in fields)
    values = [getattr(p, name) for name in fields]
    assert [p.__dict__[name] for name in fields] == values
    assert all(getattr(p, name) is value for name, value in zip(fields, values))
    assert values[1:] == [
        ((frozenset({2}), 2), (frozenset({0, 1}), 1)), frozenset({0, 1, 2}), (1, 1, 2)
    ]
    counts = ((frozenset({1}), 2),)
    q = Profile.from_counts(3, counts, checked=True)
    assert q.ballot_counts is counts and "ballot_multiset" not in q.__dict__
