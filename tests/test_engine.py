import math
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from seqvote import engine
from seqvote.axioms import Bounds, check_generator_consistency, check_independence_of_losers
from seqvote.catalog import RULE_NAMES, make, make_zoo_rule, sav_table, thiele_table
from seqvote.counting import (
    StepCountingTable,
    StepThieleTable,
    ThieleTable,
    Valuation,
    WeightTable,
    committee_score,
    step_scoring_valuation,
    step_thiele_as_step_counting,
    step_thiele_valuation,
    thiele_as_step_counting,
    thiele_valuation,
    weight_from_counting,
)
from seqvote.engine import (
    BranchCapError,
    GeneratorFunction,
    NoCandidatesError,
    Rule,
    _scored_gains,
    derive_generator,
    derived_generator,
    extension_gains,
    extension_scores,
    generator_step,
    step_generator,
    step_trace,
    weighted_approval_step,
)
from seqvote.oracle import ProfileUniverse, all_committees
from seqvote.profiles import Profile, apply_voter_permutation

from util import (
    as_sets,
    exact_scores,
    fam,
    naive_best_extensions,
    naive_score,
    naive_sequential,
    thiele_value,
)

P1_BALLOTS = [{0, 1}, {0, 1}, {0, 1}, {2}]
P1 = Profile.from_ballots(3, P1_BALLOTS)

AV = thiele_valuation(thiele_table("seqav", 3), "seqav")
PAV = thiele_valuation(thiele_table("seqpav", 3), "seqpav")
CCAV = thiele_valuation(thiele_table("seqccav", 3), "seqccav")


def test_generator_step_av_from_empty():
    # Oracle: approval scores 3, 3, 1.
    assert naive_best_extensions(thiele_value([0, 1, 2, 3]), 3, P1_BALLOTS, set()) == {0, 1}
    assert generator_step(AV, P1, frozenset()) == {0, 1}


def test_generator_step_everyone_approves_everything():
    p = Profile.from_ballots(3, [{0, 1, 2}, {0, 1, 2}])
    for valuation in (AV, PAV, CCAV):
        assert generator_step(valuation, p, frozenset()) == {0, 1, 2}
        assert generator_step(valuation, p, frozenset({1})) == {0, 2}


def test_generator_step_pav_marginals():
    # Adding 1 gains 3 * (3/2 - 1) = 3/2, adding 2 gains 1.
    assert committee_score(PAV, P1, {0, 1}) - committee_score(PAV, P1, {0}) == Fraction(3, 2)
    assert committee_score(PAV, P1, {0, 2}) - committee_score(PAV, P1, {0}) == 1
    assert generator_step(PAV, P1, frozenset({0})) == {1}


def test_generator_step_requires_room():
    with pytest.raises(NoCandidatesError):
        generator_step(AV, P1, frozenset({0, 1, 2}))


def by_valuation(valuation, m=3, **kwargs):
    """The sequential rule of ``valuation``: a rule given only the valuation."""
    return Rule(valuation.name, m, "zoo", valuation=valuation, **kwargs)


def test_sequential_rule_size_zero():
    for valuation in (AV, PAV, CCAV):
        assert by_valuation(valuation).apply(P1, 0) == fam(set())


def test_sequential_rule_examples():
    assert committee_score(PAV, P1, {0, 1}) == Fraction(9, 2)
    assert committee_score(PAV, P1, {0, 2}) == 4
    assert by_valuation(PAV).apply(P1, 2) == fam({0, 1})
    assert by_valuation(CCAV).apply(P1, 2) == fam({0, 2}, {1, 2})
    assert by_valuation(AV).apply(P1, 2) == fam({0, 1})


def test_step_trace_rejects_bad_size():
    with pytest.raises(ValueError):
        step_trace(partial(generator_step, AV), P1, 4)


def test_step_trace_matches_naive_recursion_exhaustively():
    tables = {
        "seqav": thiele_value([0, 1, 2, 3]),
        "seqpav": thiele_value([0, 1, Fraction(3, 2), Fraction(11, 6)]),
        "seqccav": thiele_value([0, 1, 1, 1]),
    }
    for name, naive_value in tables.items():
        valuation = thiele_valuation(thiele_table(name, 3))
        for profile in ProfileUniverse(3, 2):
            expected = naive_sequential(naive_value, 3, profile.ballots(), 3)
            assert list(step_trace(partial(generator_step, valuation), profile, 3)) == expected


_ballots4 = st.sets(st.integers(0, 3), min_size=1, max_size=4).map(frozenset)


@settings(max_examples=80, deadline=None)
@given(ballots=st.lists(_ballots4, min_size=1, max_size=4))
def test_trace_matches_naive_recursion_on_random_instances(ballots):
    # Random electorates on four candidates against the literal recursion.
    profile = Profile.from_ballots(4, ballots)
    pav4 = thiele_table("seqpav", 4)
    expected = naive_sequential(
        thiele_value(list(pav4.values)), 4, profile.ballots(), 4
    )
    valuation = thiele_valuation(pav4)
    assert list(step_trace(partial(generator_step, valuation), profile, 4)) == expected


def test_branch_cap_enforced():
    p = Profile.from_ballots(3, [{0, 1, 2}])
    with pytest.raises(BranchCapError):
        by_valuation(AV, branch_cap=2).apply(p, 2)


def test_trace_stops_at_the_requested_size():
    # One winner at size 1, three tied committees at size 2: a cap of two
    # only bites when size 2 is asked for, and the size-1 prefix survives.
    rule = make("seqav", 4)
    rule.branch_cap = 2
    p = Profile.from_ballots(4, [{0}, {0}, {1}, {2}, {3}])
    assert rule.apply(p, 1) == fam({0})
    with pytest.raises(BranchCapError):
        rule.apply(p, 2)
    assert rule.trace(p, 1) == (fam(set()), fam({0}))
    rule.branch_cap = 3
    assert rule.apply(p, 2) == fam({0, 1}, {0, 2}, {0, 3})
    assert rule.trace(p) == step_trace(partial(generator_step, rule.valuation), p, 4)


def test_anonymous_traces_are_keyed_on_ballot_counts():
    rule = make("seqpav", 3)
    p = Profile.from_ballots(3, [{2}, {0, 1}, {0, 1}])
    trace = rule.trace(p)
    assert rule.trace(p.ballot_counts) is trace
    assert rule.trace(apply_voter_permutation({1: 3, 3: 1}, p)) is trace
    assert len(rule._traces) == 1
    # a profile given by its counts alone is built on a miss
    q = Profile.from_ballots(3, [{0}, {1, 2}])
    assert rule.trace(q.ballot_counts) == step_trace(rule.step, q, 3)
    # an id-sensitive rule traces the canonical profile with ids 1..n
    doubled = make("voter1-doubled-seqav", 3)
    assert doubled.trace(p.ballot_counts) == doubled.trace(p.canonical())


def test_trace_cache_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(engine, "TRACE_CACHE_SIZE", 8)
    rule, fresh = make("seqpav", 3), make("seqpav", 3)
    sizes = []
    remember = rule.remember

    def recording(key, trace):
        # every write to the cache: a miss of Rule.trace or a gain-derived trace
        out = remember(key, trace)
        sizes.append(len(rule._traces))
        return out

    monkeypatch.setattr(rule, "remember", recording)
    # four voters: with three, the search on orbit representatives writes 71 traces
    assert check_independence_of_losers(rule, Bounds(n_single=4)).verdict == "pass-exhaustive"
    assert len(sizes) > 100 and max(sizes) == 8
    for profile in ProfileUniverse(3, 2):  # evicted traces come back exact
        assert rule.trace(profile) == fresh.trace(profile)
    assert len(rule._traces) == 8


def test_weighted_approval_step_plain():
    ones = WeightTable.from_function(3, lambda x, z: 1)
    assert weighted_approval_step(ones, P1, frozenset()) == {0, 1}


def test_weighted_approval_step_single_ballot():
    p = Profile.from_ballots(3, [{2}])
    positive = WeightTable.from_function(3, lambda x, z: Fraction(1, z + x + 1))
    assert weighted_approval_step(positive, p, frozenset()) == {2}


def test_weighted_approval_step_pav_weights():
    reciprocal = WeightTable.from_function(3, lambda x, z: Fraction(1, x + 1))
    # 1 collects 3 * 1/2 = 3/2, 2 collects 1.
    assert weighted_approval_step(reciprocal, P1, frozenset({0})) == {1}
    assert weighted_approval_step(reciprocal, P1, frozenset()) == {0, 1}


def test_counting_weight_bridge_on_small_universe():
    # generator_step through the counting table equals one weighted approval
    # step through its forward differences (acceptance widens the bounds).
    h = sav_table(3)
    valuation = step_scoring_valuation(h)
    weights = weight_from_counting(h)
    for profile in ProfileUniverse(3, 2):
        for committee in all_committees(3, 2):
            assert generator_step(valuation, profile, committee) == weighted_approval_step(
                weights[len(committee)], profile, committee
            )


def test_derive_generator_examples():
    seqav = make("seqav", 3)
    assert derive_generator(seqav, P1, frozenset({0})) == {1}
    # a committee that is not winning at its size yields the empty set
    assert derive_generator(seqav, P1, frozenset({2})) == frozenset()
    trivial = make("trivial", 3)
    for committee in all_committees(3, 2):
        expected = frozenset(range(3)) - committee
        assert derive_generator(trivial, P1, committee) == expected


def test_derive_generator_agrees_with_step_on_small_instances():
    # Exhaustive at m=3, up to three voters, on winning committees.  (On
    # larger electorates the extraction can pick up extensions inherited
    # from tied sibling committees; see the next test.)
    for name in ("seqav", "seqpav", "seqccav", "seqsav", "av-cc-alternating"):
        rule = make(name, 3)
        for profile in ProfileUniverse(3, 3):
            for k in range(3):
                for committee in rule.apply(profile, k):
                    assert derive_generator(rule, profile, committee) == rule.step(
                        profile, committee
                    ), (name, profile, committee)


def test_derive_generator_can_exceed_step_via_tied_siblings():
    # Four voters suffice for the coverage rule: {0,1} enters the winners at
    # size two through the tied parent {1}, so the extraction at {0} also
    # contains 1 even though the step at {0} picks only 2.
    rule = make("seqccav", 3)
    profile = Profile.from_ballots(3, [{0, 1}, {0}, {1, 2}, {2}])
    committee = frozenset({0})
    assert committee in rule.apply(profile, 1)
    assert rule.step(profile, committee) == {2}
    assert derive_generator(rule, profile, committee) == {1, 2}


def test_generator_step_completeness_and_purity():
    valuation = step_scoring_valuation(sav_table(3))
    for profile in ProfileUniverse(3, 2):
        for committee in all_committees(3, 2):
            out = generator_step(valuation, profile, committee)
            assert out and out.isdisjoint(committee)
            assert out == generator_step(valuation, profile, committee)


def test_rule_validates_inputs():
    rule = make("seqav", 3)
    with pytest.raises(ValueError):
        rule.apply(P1, 5)
    with pytest.raises(ValueError):
        rule.apply(Profile.from_ballots(2, [{0}]), 1)


# ---------------------------------------------------------------------------
# Differential test: the integer scoring pass against literal scoring


# Every p/q in [-3, 3] with q <= 6, simplest first so examples shrink to 0.
# Sampling from the list draws far faster than ``st.fractions``.
_RATIONALS = sorted(
    {Fraction(p, q) for q in range(1, 7) for p in range(-3 * q, 3 * q + 1)},
    key=lambda v: (v.denominator, abs(v), v),
)
_rationals = st.sampled_from(_RATIONALS)
_increments = st.sampled_from([v for v in _RATIONALS if v >= 0])


@st.composite
def _counting_cases(draw):
    """``(m, valuation, literal value(ballot, committee), 3-argument table)``.

    Tables are arbitrary rationals (``h(0) != 0``, negative entries, non-unit
    denominators), plus the catalog's reversal of a valid Thiele table.
    """
    m = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("thiele", "step-thiele", "step-scoring", "reverse")))
    if kind == "thiele":
        values = draw(st.lists(_rationals, min_size=m + 1, max_size=m + 1))
        table = ThieleTable(values)
        return m, thiele_valuation(table), thiele_value(values), thiele_as_step_counting(table)
    if kind == "reverse":
        base = draw(_increments)
        steps = [draw(_increments.filter(bool))] + draw(
            st.lists(_increments, min_size=m - 1, max_size=m - 1)
        )
        values = [base]
        for step in steps:
            values.append(values[-1] + step)
        negated = [-v for v in values]
        rule = make_zoo_rule("reverse-seq-thiele", m, ThieleTable(values))
        table = thiele_as_step_counting(ThieleTable(negated))
        return m, rule.valuation, thiele_value(negated), table
    if kind == "step-thiele":
        rows = draw(st.lists(
            st.lists(_rationals, min_size=m + 1, max_size=m + 1), min_size=m, max_size=m
        ))
        table = StepThieleTable(rows)

        def value(ballot, committee):
            return rows[len(committee) - 1][len(ballot & committee)] if committee else 0

        return m, step_thiele_valuation(table), value, step_thiele_as_step_counting(table)
    grid = draw(st.lists(
        st.lists(st.lists(_rationals, min_size=m, max_size=m), min_size=m, max_size=m),
        min_size=m + 1, max_size=m + 1,
    ))
    table = StepCountingTable(grid)

    def value(ballot, committee):
        if not committee:
            return 0
        return grid[len(ballot & committee)][len(committee) - 1][len(ballot) - 1]

    return m, step_scoring_valuation(table), value, table


@settings(max_examples=150, deadline=None)
@given(case=_counting_cases(), data=st.data())
def test_integer_scoring_matches_literal_scores(case, data):
    m, valuation, value, table = case
    ballot = st.sets(st.integers(0, m - 1), min_size=1).map(frozenset)
    ballots = data.draw(st.lists(ballot, min_size=1, max_size=6))
    profile = Profile.from_ballots(m, ballots)
    weights = weight_from_counting(table)
    for committee in all_committees(m, m - 1):
        expected = {
            c: naive_score(value, ballots, committee | {c})
            for c in range(m)
            if c not in committee
        }
        scores = extension_scores(valuation, profile, committee)
        assert scores == expected
        assert scores == {
            c: committee_score(valuation, profile, committee | {c}) for c in expected
        }
        assert generator_step(valuation, profile, committee) == weighted_approval_step(
            weights[len(committee)], profile, committee
        )
    assert committee_score(valuation, profile, frozenset()) == naive_score(
        value, ballots, frozenset()
    )
    assert list(step_trace(partial(generator_step, valuation), profile, m)) == naive_sequential(
        value, m, ballots, m
    )


@settings(max_examples=60, deadline=None)
@given(case=_counting_cases(), data=st.data())
def test_scored_trace_records_the_scores_of_every_parent(case, data):
    # A rule given only its valuation steps by generator_step over it; the
    # scores its trace records are extension_scores of every parent.
    m, valuation, value, _ = case
    ballot = st.sets(st.integers(0, m - 1), min_size=1).map(frozenset)
    ballots = data.draw(st.lists(ballot, min_size=1, max_size=6))
    profile = Profile.from_ballots(m, ballots)
    rule = Rule("by-valuation", m, "zoo", valuation=valuation)
    k = data.draw(st.integers(0, m))
    trace, scores = as_sets(rule.scored_trace(profile, k))
    assert trace == step_trace(partial(generator_step, valuation), profile, k)
    assert trace == rule.trace(profile, k)
    parents = [W for level in trace[:k] for W in level]
    assert sorted(scores, key=sorted) == sorted(parents, key=sorted)
    for W in parents:
        base, gains, scale = scores[W]
        assert all(type(n) is int for n in (base, scale, *gains.values()))
        assert exact_scores(scores[W]) == extension_scores(valuation, profile, W)
        assert exact_scores(scores[W]) == {
            c: naive_score(value, ballots, W | {c}) for c in range(m) if c not in W
        }


_VALUED_RULES = [name for name in RULE_NAMES if make(name, 3).valuation is not None]


@pytest.mark.parametrize("source", _VALUED_RULES + ["random-table"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scores_add_over_disjoint_electorates(source, data):
    # Scores add over disjoint electorates, and so do the integer gains and
    # bases of one level, whose denominator depends only on |W| and m; the
    # continuity certificate and generator consistency rest on this.
    if source == "random-table":
        m, valuation, _, _ = data.draw(_counting_cases())
    else:
        m = data.draw(st.integers(1, 5))
        valuation = make(source, m).valuation
    ballot = st.sets(st.integers(0, m - 1), min_size=1).map(frozenset)
    a = Profile.from_ballots(m, data.draw(st.lists(ballot, min_size=1, max_size=4)))
    b = Profile.from_ballots(m, data.draw(st.lists(ballot, min_size=1, max_size=4)))
    b = b.relabeled(a.n + 1)
    union = a + b
    for W in all_committees(m, m - 1):
        for measure in (extension_gains, extension_scores):
            parts = measure(valuation, a, W), measure(valuation, b, W)
            assert measure(valuation, union, W) == {c: parts[0][c] + parts[1][c] for c in parts[0]}
        if valuation.counting is not None:
            level = valuation.level(len(W) + 1, m)
            mask = sum(1 << c for c in W)
            base = _scored_gains(level, union, mask)[0]
            assert base == _scored_gains(level, a, mask)[0] + _scored_gains(level, b, mask)[0]


def test_scored_trace_of_rules_that_do_not_step_by_their_valuation():
    profile = Profile.from_ballots(3, [{0, 1}, {2}, {0}])
    optimizing = make("optimizing-pav", 3)  # brute force, scores shown afterwards
    trace, scores = as_sets(optimizing.scored_trace(profile, 2))
    assert trace == optimizing.trace(profile, 2)
    parents = [W for level in trace[:2] for W in level]
    assert sorted(scores, key=sorted) == sorted(parents, key=sorted)
    for W in parents:
        assert exact_scores(scores[W]) == extension_scores(optimizing.valuation, profile, W)
    # a custom fn valuation hands its exact scores over as they are
    custom = make("candidate-a-doubled-seqav", 3)
    trace, scores = as_sets(custom.scored_trace(profile, 2))
    for W in (W for level in trace[:2] for W in level):
        assert scores[W] == (0, extension_scores(custom.valuation, profile, W), 1)
    doubled = make("voter1-doubled-seqav", 3)  # no valuation, no scores
    assert as_sets(doubled.scored_trace(profile, 2)) == (doubled.trace(profile, 2), None)
    with pytest.raises(ValueError):
        make("seqav", 3).scored_trace(Profile.from_ballots(2, [{0}]), 1)
    # a step by another valuation than the rule's is traced, then scored
    seqav, seqpav = make("seqav", 3).valuation, make("seqpav", 3).valuation
    mixed = Rule("mixed", 3, "zoo", step=partial(generator_step, seqav), valuation=seqpav)
    trace, scores = as_sets(mixed.scored_trace(profile, 2))
    assert trace == mixed.trace(profile, 2)
    for W in (W for level in trace[:2] for W in level):
        assert exact_scores(scores[W]) == extension_scores(seqpav, profile, W)


def test_a_step_by_the_rules_own_valuation_is_scored_on_masks():
    # the step given outright, not derived from the valuation: the mask
    # path all the same, which leaves nothing in the trace cache
    valuation = make("seqpav", 3).valuation
    rule = Rule("explicit", 3, "zoo", step=partial(generator_step, valuation), valuation=valuation)
    profile = Profile.from_ballots(3, [{0, 1}, {2}, {0}, {1, 2}])
    assert rule.scored_trace(profile, 3) == make("seqpav", 3).scored_trace(profile, 3)
    assert not rule._traces


def test_scored_trace_raises_the_cap_where_step_trace_does():
    # Singletons at m=8 tie everywhere: level j holds C(8, j) committees, so
    # every cap up to C(8, 4) is hit at some level of k = 4, or at none.  A
    # custom fn valuation is traced on masks too, at the caps around each
    # level's size; one that raises at a committee of size 4 raises there
    # under every cap level 4 exceeds, as step_trace steps the whole level,
    # and one that raises at every committee of size 3 raises the error of
    # the parent step_trace steps first, whatever order the masks take.
    m = 8
    profile = Profile.from_ballots(m, [[c] for c in range(m)])

    def approvals(ballot, W):
        return Fraction(len(ballot & W))

    def raising(ballot, W):
        if W == {4, 5, 6, 7}:
            raise ValueError("no value at {4, 5, 6, 7}")
        return approvals(ballot, W)

    def raising_at_three(ballot, W):
        if len(W) == 3:
            raise ValueError(f"no value at {sorted(W)}")
        return approvals(ballot, W)

    level_caps = sorted({j + d for j in map(partial(math.comb, m), range(1, 5)) for d in (-1, 0)})
    cases = [(make("seqav", m).valuation, range(1, math.comb(m, 4) + 1))]
    fns = (approvals, raising, raising_at_three)
    cases += [(Valuation(fn.__name__, fn), level_caps) for fn in fns]

    def outcome(trace, *args):
        try:
            return trace(*args)
        except (BranchCapError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"

    raised = set()
    for valuation, caps in cases:
        step = partial(generator_step, valuation)
        for cap in caps:
            rule = Rule("singletons", m, "zoo", valuation=valuation, branch_cap=cap)
            for k in range(5):
                expected = outcome(step_trace, step, profile, k, cap)
                got = outcome(rule.scored_trace, profile, k)
                if isinstance(got, tuple):
                    got = as_sets(got)[0]
                else:
                    raised.add((valuation.name, got.split(":")[0]))
                assert got == expected, (valuation.name, cap, k)
    assert raised == {
        ("seqav", "BranchCapError"), ("approvals", "BranchCapError"),
        ("raising", "BranchCapError"), ("raising", "ValueError"),
        ("raising_at_three", "BranchCapError"), ("raising_at_three", "ValueError"),
    }


def test_scored_trace_scores_each_parent_of_an_fn_valuation_once(monkeypatch):
    # candidate-a-doubled-seqav steps by a custom fn valuation: the trace
    # that finds each parent scores its extensions, once each.  On
    # singletons at m=5, k=4, the parents are {}, {0}, four {0, c} and six
    # {0, c, d}, with 5, 4, 3 and 2 extensions.
    calls = []

    def counted(*args):
        calls.append(args)
        return committee_score(*args)

    monkeypatch.setattr(engine, "committee_score", counted)
    rule = make("candidate-a-doubled-seqav", 5)
    trace, scores = as_sets(rule.scored_trace(Profile.from_ballots(5, [[c] for c in range(5)]), 4))
    assert [len(level) for level in trace] == [1, 1, 4, 6, 4]
    assert len(scores) == 12
    assert len(calls) == 5 + 4 + 4 * 3 + 6 * 2


def test_step_trace_refuses_a_choice_inside_the_committee():
    # A step that returns W | choice at |W| = 1 on one profile would make
    # its f(A, 2) mix sizes ({0}, {0, 1} and {0, 2}); the trace and both
    # consistency checks raise, the derived one reading that profile's row
    # off its trace, and the failing choice outranks a cap its level exceeds.
    m = 3
    counts = ((frozenset({0}), 2),)

    def step(profile, W):
        choice = generator_step(AV, profile, W)
        return W | choice if len(W) == 1 and profile.ballot_counts == counts else choice

    profile = Profile.from_counts(m, counts)
    message = re.escape("generator chose [0] from inside the committee [0]")
    for cap in (1, 10):
        rule = Rule("inside", m, "zoo", step=step, branch_cap=cap)
        with pytest.raises(ValueError, match=message):
            rule.trace(profile, 3)
    for g in (step_generator(rule), derived_generator(rule)):
        with pytest.raises(ValueError, match=message):
            check_generator_consistency(g, Bounds(n_pair_each=2))


def test_rule_needs_a_step_an_apply_direct_or_a_valuation():
    with pytest.raises(ValueError):
        Rule("nothing", 3, "zoo")
    with pytest.raises(ValueError):
        Rule("both", 3, "zoo", step=lambda a, w: w, apply_direct=lambda a, k: a)
    rule = Rule("av", 3, "seq-thiele", valuation=AV)
    assert rule.step(P1, frozenset()) == generator_step(AV, P1, frozenset()) == {0, 1}


def test_generator_functions_are_immutable_values():
    rule = make("seqpav", 3)
    g = GeneratorFunction("g", 3, rule.step, id_sensitive=True)
    by_keyword = GeneratorFunction(name="g", m=3, fn=rule.step, id_sensitive=True)
    assert g == by_keyword and hash(g) == hash(by_keyword)
    assert g != GeneratorFunction("g", 3, rule.step)
    assert (g.id_sensitive, g.derived_from) == (True, None)
    assert step_generator(rule) == step_generator(rule)
    assert derived_generator(rule).derived_from is rule
    assert repr(g) == (
        f"GeneratorFunction(name='g', m=3, fn={rule.step!r}, id_sensitive=True, "
        "derived_from=None)"
    )
    with pytest.raises(AttributeError):
        g.m = 4
    with pytest.raises(AttributeError):
        del g.fn
