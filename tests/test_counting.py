import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seqvote.catalog import harmonic, sav_table, step_counting_table, thiele_table
from seqvote.counting import (
    StepCountingTable,
    StepThieleTable,
    ThieleTable,
    Valuation,
    WeightTable,
    committee_score,
    counting_from_weight,
    step_scoring_valuation,
    thiele_as_step_counting,
    thiele_valuation,
    validate_step_counting,
    validate_step_thiele,
    validate_thiele,
    weight_from_counting,
)
from seqvote.profiles import Profile

from util import naive_score, thiele_value


def test_validate_thiele_accepts_linear():
    assert validate_thiele(thiele_table("seqav", 4)).ok


def test_validate_thiele_rejects_constant_zero():
    ok, why = validate_thiele(ThieleTable((0, 0, 0)))
    assert not ok and "h(1) > h(0)" in why


def test_validate_thiele_rejects_decrease():
    ok, why = validate_thiele(ThieleTable((0, 1, Fraction(1, 2))))
    assert not ok and "x=2" in why


def test_validate_thiele_rejects_negative():
    ok, why = validate_thiele(ThieleTable((-1, 1, 2)))
    assert not ok and "negative" in why


def test_validate_step_counting_sav():
    for m in (2, 3, 4):
        assert validate_step_counting(sav_table(m)).ok


def test_validate_step_counting_constant_fails_every_y():
    h = StepCountingTable.from_function(3, lambda x, y, z: 7)
    ok, why = validate_step_counting(h)
    assert not ok and "y=1" in str(why)


def test_validate_step_counting_linear_witnesses():
    h = StepCountingTable.from_function(4, lambda x, y, z: x)
    ok, witnesses = validate_step_counting(h)
    assert ok
    assert all(witnesses[y] == (1, 1) for y in witnesses)


def test_validate_step_thiele():
    from seqvote.catalog import alternating_table

    assert validate_step_thiele(alternating_table(4)).ok
    from seqvote.counting import StepThieleTable

    flat = StepThieleTable.from_function(3, lambda x, y: 1)
    assert not validate_step_thiele(flat).ok


def test_committee_score_pav_pair():
    v = thiele_valuation(thiele_table("seqpav", 3))
    p = Profile.from_dict(3, {1: {0, 1}})
    assert committee_score(v, p, {0, 1}) == Fraction(3, 2)


def test_committee_score_zero_when_disjoint():
    v = thiele_valuation(thiele_table("seqpav", 3))
    p = Profile.from_dict(3, {1: {0}, 2: {0}})
    assert committee_score(v, p, {1, 2}) == 0


def test_committee_score_sav():
    v = step_scoring_valuation(sav_table(3))
    p = Profile.from_dict(3, {1: {0, 1, 2}})
    assert committee_score(v, p, {0, 1}) == Fraction(2, 3)


def test_committee_score_matches_naive_oracle():
    ballots = [{0, 1}, {0, 1}, {2}, {0, 2}]
    p = Profile.from_ballots(3, ballots)
    pav = thiele_table("seqpav", 3)
    v = thiele_valuation(pav)
    for size in range(4):
        for members in itertools.combinations(range(3), size):
            expected = naive_score(thiele_value(list(pav.values)), ballots, members)
            assert committee_score(v, p, members) == expected


def test_counting_from_weight_constant_ones_gives_linear():
    weights = tuple(WeightTable.from_function(3, lambda x, z: 1) for _ in range(3))
    h = counting_from_weight(weights)
    assert all(h(x, y, z) == x for x in range(4) for y in (1, 2, 3) for z in (1, 2, 3))


def test_counting_from_weight_reciprocal_gives_harmonic():
    # Oracle: evaluate the telescoping recursion by hand for x <= 4.
    weights = tuple(
        WeightTable.from_function(4, lambda x, z: Fraction(1, x + 1)) for _ in range(4)
    )
    h = counting_from_weight(weights)
    expected = [Fraction(0)]
    for x in range(1, 5):
        expected.append(expected[-1] + Fraction(1, x))
    for x in range(5):
        assert h(x, 2, 3) == expected[x] == harmonic(x)


def test_counting_from_weight_cover_indicator():
    weights = tuple(
        WeightTable.from_function(3, lambda x, z: 1 if x == 0 else 0) for _ in range(3)
    )
    h = counting_from_weight(weights)
    for y in (1, 2, 3):
        for z in (1, 2, 3):
            assert h(0, y, z) == 0
            assert all(h(x, y, z) == 1 for x in (1, 2, 3))


def test_weight_from_counting_linear_and_harmonic():
    linear = StepCountingTable.from_function(3, lambda x, y, z: x)
    assert all(
        w(x, z) == 1
        for w in weight_from_counting(linear)
        for x in range(3)
        for z in (1, 2, 3)
    )
    pav = thiele_as_step_counting(thiele_table("seqpav", 3))
    assert all(
        w(x, z) == Fraction(1, x + 1)
        for w in weight_from_counting(pav)
        for x in range(3)
        for z in (1, 2, 3)
    )


@given(
    st.integers(2, 3).flatmap(
        lambda m: st.tuples(
            st.just(m), st.lists(st.fractions(max_denominator=6), min_size=m**3, max_size=m**3)
        )
    )
)
def test_weight_counting_round_trip(drawn):
    # m tables of m x m weights read exactly m**3 values
    m, pool = drawn
    values = iter(pool)
    weights = tuple(
        WeightTable.from_function(m, lambda x, z: next(values)) for _ in range(m)
    )
    assert weight_from_counting(counting_from_weight(weights)) == weights


def test_thiele_validation_matches_step_embedding_for_monotone_tables():
    # Over non-negative, non-decreasing tables the two validators agree.
    rows = [
        (0, 1, 2, 3),
        (0, 0, 1, 2),
        (0, 0, 0, 0),
        (1, 1, 1, 1),
        (0, 1, 1, 1),
        (2, 2, 3, 3),
    ]
    for row in rows:
        h = ThieleTable(row)
        assert validate_thiele(h).ok == validate_step_counting(thiele_as_step_counting(h)).ok


def test_normalization_keeps_argmax_behaviour():
    # Positive affine transforms never change any winner set.
    from seqvote.catalog import make_seq_thiele
    from seqvote.oracle import ProfileUniverse

    raw = ThieleTable((3, 5, 7))  # affine image of the linear table
    assert raw.normalized().values == (0, 1, 2)
    curved = ThieleTable(
        tuple(2 + 3 * harmonic(x) for x in range(4))
    )  # affine image of the proportional table
    for table, m in ((raw, 2), (curved, 3)):
        scaled = make_seq_thiele(table, "affine")
        plain = make_seq_thiele(table.normalized(), "normalized")
        for profile in ProfileUniverse(m, 2):
            for k in range(m + 1):
                assert scaled.apply(profile, k) == plain.apply(profile, k)


def test_sign_identity_between_counting_and_weights():
    # The pairwise comparison of committee scores matches the weighted
    # approval comparison: the shared offset cancels.  Exhaustive for m=3,
    # two voters, all committees one below full size.
    from seqvote.oracle import ProfileUniverse, all_committees

    for name in ("seqav", "seqpav", "seqccav", "seqsav", "av-cc-alternating"):
        h = step_counting_table(name, 3)
        valuation = step_scoring_valuation(h)
        weights = weight_from_counting(h)
        for profile in ProfileUniverse(3, 2):
            for committee in all_committees(3, 1):
                step = weights[len(committee)]
                outside = [c for c in range(3) if c not in committee]
                for c, d in itertools.permutations(outside, 2):
                    score_gap = committee_score(
                        valuation, profile, committee | {c}
                    ) - committee_score(valuation, profile, committee | {d})
                    weight_gap = sum(
                        count * step(len(committee & ballot), len(ballot))
                        for ballot, count in profile.ballot_counts
                        if c in ballot
                    ) - sum(
                        count * step(len(committee & ballot), len(ballot))
                        for ballot, count in profile.ballot_counts
                        if d in ballot
                    )
                    assert (score_gap > 0) == (weight_gap > 0)
                    assert (score_gap == 0) == (weight_gap == 0)


def test_table_grid_shape_errors():
    with pytest.raises(ValueError):
        ThieleTable((0,))
    with pytest.raises(ValueError):
        StepCountingTable(((0,),))
    with pytest.raises(ValueError):
        WeightTable(((1, 2), (3,)))


def test_tables_are_immutable_values():
    tables = (
        (ThieleTable, ThieleTable.from_function(3, lambda x: Fraction(x, 2))),
        (StepThieleTable, StepThieleTable.from_function(3, lambda x, y: x * y)),
        (StepCountingTable, sav_table(3)),
        (WeightTable, WeightTable.from_function(3, lambda x, z: Fraction(1, x + z))),
    )
    for cls, table in tables:
        copy = cls(table.values)
        assert table == copy and hash(table) == hash(copy) and table is not copy
        assert table != table.values
        assert repr(table) == f"{cls.__name__}(values={table.values!r})"
        with pytest.raises(AttributeError):
            table.values = copy.values
        with pytest.raises(AttributeError):
            del table.values
    assert ThieleTable(("1/2", 1, Fraction(3, 2))).values == (
        Fraction(1, 2), Fraction(1), Fraction(3, 2)
    )
    assert ThieleTable((0, 1)) != StepThieleTable(((0, 1),))


def test_sav_table_builds_the_literal_satisfaction_table():
    for m in range(1, 7):
        literal = StepCountingTable.from_function(m, lambda x, y, z: Fraction(x, z))
        table = sav_table(m)
        assert table == literal and hash(table) == hash(literal)
        assert all(type(v) is Fraction for yrow in table.values for row in yrow for v in row)


def test_valuations_compare_by_identity():
    table = thiele_table("seqpav", 3)
    a, b = thiele_valuation(table, "pav"), thiele_valuation(table, "pav")
    assert a == a and a != b and len({a, b}) == 2
    assert hash(a) == object.__hash__(a)
    assert repr(a).startswith("Valuation(name='pav', fn=None, counting=<function ")
    with pytest.raises(AttributeError):
        a.name = "other"
    with pytest.raises(ValueError):
        Valuation("neither")
    with pytest.raises(ValueError):
        Valuation("both", fn=lambda b, w: 0, counting=lambda x, y, z: 0)
