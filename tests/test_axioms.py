import hashlib
import itertools
import random
from fractions import Fraction
from functools import partial
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from seqvote import axioms, catalog, gains
from seqvote.axioms import (
    Bounds,
    PreconditionError,
    check_anonymity,
    check_clone_axiom,
    check_committee_monotonicity,
    check_committee_separability,
    check_continuity,
    check_generator_consistency,
    check_independence_of_losers,
    check_information_basis,
    check_neutrality,
    check_non_imposition,
    compute_n_stats,
    continuity_search,
    run_suite,
    z_pairs,
)
from seqvote.catalog import continuity_gap_instance, make
from seqvote.cli import render_report
from seqvote.counting import Valuation
from seqvote.engine import (
    DEFAULT_BRANCH_CAP,
    BranchCapError,
    GeneratorFunction,
    Rule,
    derive_generator,
    derived_generator,
    extension_gains,
    generator_step,
    step_generator,
    step_trace,
)
from seqvote.oracle import EnumerationCapError, ProfileUniverse, all_committees
from seqvote.predicates import CLONE_AXIOMS
from seqvote.profiles import Profile, apply_candidate_permutation, apply_voter_permutation

from util import (
    derived_row_by_step_trace,
    fam,
    naive_clone_witness,
    naive_consistency_witness,
    naive_continuity_search,
    naive_independence_witness,
    naive_monotonicity_witness,
    naive_neutrality_witness,
    naive_proportionality_witness,
)

P1 = Profile.from_ballots(3, [{0, 1}, {0, 1}, {0, 1}, {2}])
SMALL = Bounds(n_single=4, n_perm=2, n_pair_each=2, n_pair_total=3)


# ---------------------------------------------------------------------------
# Gain rows

# the catalog rules that step by generator_step over one valuation, table or
# fn, and read no voter ids
GAIN_ROW_RULES = (
    "seqav", "seqpav", "seqccav", "seqsav", "av-cc-alternating", "candidate-a-doubled-seqav",
    "clone-trusting", "reverse-seqav", "reverse-seqpav", "reverse-seqccav",
)
# those whose valuation is a table, searched over orbit representatives
TABLE_ROW_RULES = tuple(name for name in GAIN_ROW_RULES if name != "candidate-a-doubled-seqav")


def test_the_catalog_rules_with_gain_rows():
    rules = {name: make(name, 3) for name in catalog.RULE_NAMES}
    rows = {name: gains.gain_rows(rule) for name, rule in rules.items()}
    assert [name for name, row in rows.items() if row is not None] == list(GAIN_ROW_RULES)
    universe = ProfileUniverse(3, 1)
    reduced = [name for name, rule in rules.items() if axioms._Traces(rule, universe).reduced]
    assert reduced == list(TABLE_ROW_RULES)


def _outcome(trace, *args):
    """What ``trace(*args)`` returns, or the class and text of the
    BranchCapError or ValueError it raises."""
    try:
        return trace(*args)
    except (BranchCapError, ValueError) as error:
        return f"{type(error).__name__}: {error}"


def _fractions(size):
    return st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
                    min_size=size, max_size=size)


@st.composite
def _fn_valuations(draw, m):
    """``fn(b, W) = sum of w[c] over b & W, plus t[|W|] if b meets W``: an
    fn valuation that names candidates, its values with denominators 1..6."""
    w, t = draw(_fractions(m)), draw(_fractions(m + 1))
    return Valuation("drawn", lambda b, W: sum((w[c] for c in b & W), t[len(W)] if b & W else 0))


@pytest.mark.parametrize("m", (2, 3, 4))
@pytest.mark.parametrize("name", GAIN_ROW_RULES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_gain_rows_match_stepping_the_profiles(name, m, data):
    # the catalog rule, or a rule stepping by a drawn fn valuation
    rule = make(name, m)
    if data.draw(st.booleans()):
        rule = Rule("drawn", m, "zoo", valuation=data.draw(_fn_valuations(m)))
    rows = gains.gain_rows(rule)
    universe = ProfileUniverse(m, 4)
    ballot = st.integers(0, len(universe.ballots) - 1)
    item = st.lists(ballot, min_size=1, max_size=4).map(lambda x: tuple(sorted(x)))
    a, b, j = data.draw(item), data.draw(item), data.draw(st.integers(1, 3))
    p_a, p_b = universe.profile(a), universe.profile(b)
    g_a, g_b = rows.gains(a), rows.gains(b)
    traces = axioms._Traces(rule, universe)
    # an item's trace, the trivial last step included
    assert rows.trace(g_a, m, rule.branch_cap) == rule.trace_uncached(p_a)
    # generator_step picks the largest gains at every committee below size m - 1
    committees = all_committees(m, m - 2)
    index = {W: i for i, W in enumerate(committees)}
    derived_row = 0
    union = Profile.from_ballots(m, p_a.ballots() + p_b.ballots())
    for i, W in enumerate(committees):
        # the exact extension gains times one positive factor per committee
        at, exact = rows.at(g_a, W), extension_gains(rule.valuation, p_a, W)
        scale = next((Fraction(at[c], exact[c]) for c in at if exact[c]), 1)
        assert scale == 1 if rule.valuation.counting else scale > 0
        assert at == {c: scale * exact[c] for c in exact}
        assert {c for c in at if at[c] == max(at.values())} == generator_step(rule.valuation, p_a, W)
        derived_row |= sum(1 << (i * m + c) for c in derive_generator(rule, union, W))
    # a union's gains are the sum of its sides', and its derived row is read
    # off their trace
    g_ab = list(map(add, g_a, g_b))
    assert g_ab == rows.gains(tuple(sorted(a + b)))

    def row_ab(k, cap):
        return axioms._derived_row(rows.trace(g_ab, k, cap), index, m)

    assert row_ab(m - 1, rule.branch_cap) == derived_row
    # jA + B from j * G(A) + G(B)
    expected = rule.trace_uncached(Profile.from_ballots(m, p_a.ballots() * j + p_b.ballots()))
    for k in range(m + 1):
        assert traces.combined(a, j, b, 1, k) == expected[: k + 1]
    # a small branch cap fires where step_trace fires, through the tracer too
    rule.branch_cap = cap = data.draw(st.integers(0, 3))
    for k in range(m + 1):
        expected = _outcome(step_trace, rule.step, union, k, cap)
        assert _outcome(rows.trace, g_ab, k, cap) == expected
        assert _outcome(traces, a, k) == _outcome(rule.trace_uncached, p_a, k)
        if 0 < k < m:
            expected = _outcome(derived_row_by_step_trace, rule.step, union, k, cap)
            assert _outcome(row_ab, k, cap) == expected


@pytest.mark.parametrize("name", TABLE_ROW_RULES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gain_row_rules_commute_with_candidate_relabeling(name, data):
    # what the orbit reduction rests on: relabeling a profile relabels
    # every family, stepped outright and traced from gain rows alike
    m = data.draw(st.integers(2, 5))
    rule = make(name, m)
    ballot = st.frozensets(st.integers(0, m - 1), min_size=1)
    profile = Profile.from_ballots(m, data.draw(st.lists(ballot, min_size=1, max_size=6)))
    tau = data.draw(st.permutations(range(m)))
    relabeled = apply_candidate_permutation(tau, profile)
    expected = tuple(
        frozenset(frozenset(tau[c] for c in W) for W in family)
        for family in rule.trace_uncached(profile)
    )
    assert rule.trace_uncached(relabeled) == expected
    rows = gains.gain_rows(rule)
    universe = ProfileUniverse(m, 1)
    item = tuple(sorted(universe.index[b] for b in relabeled.ballots()))
    assert rows.trace(rows.gains(item), m, rule.branch_cap) == expected


def _refuse(*args):
    raise AssertionError("gain rows built for a rule whose step is not partial(generator_step, v)")


GAIN_FREE = (
    "cc-tiebreak-seqav", "voter1-doubled-seqav", "optimizing-av", "optimizing-pav",
    "optimizing-ccav",
)


def _outcomes(reports):
    """Each report's verdict and witness, but for the checks that read the
    valuation: continuity's certificate and the statistics check."""
    valued = ("continuity", "proper", "information-basis")
    return [(r.axiom, r.verdict, render_report(r.witness)) for r in reports if r.axiom not in valued]


def test_a_rule_builds_its_gain_rows_once(monkeypatch):
    built = []
    build = gains.GainRows.__init__

    def counted(self, valuation, m):
        built.append(valuation)
        build(self, valuation, m)

    monkeypatch.setattr(gains.GainRows, "__init__", counted)
    rule = make("seqpav", 4)
    bounds = Bounds(
        n_single=2, n_perm=2, n_pair_each=2, n_pair_total=2, n_continuity=1, n1_max=3, n2_max=3
    )
    run_suite(rule, "all", bounds)
    assert built == [rule.valuation]
    # a step by another valuation gets rows of its own
    other = make("seqav", 4).valuation
    rule.step = partial(generator_step, other)
    assert gains.gain_rows(rule).valuation is other
    assert built == [rule.valuation, other]


def test_only_a_step_by_generator_step_over_a_valuation_takes_gain_rows(monkeypatch):
    m = 3
    bounds = Bounds(
        n_single=2, n_perm=2, n_pair_each=2, n_pair_total=2, n_continuity=1, n1_max=3, n2_max=3
    )
    seqav, seqpav = make("seqav", m), make("seqpav", m)
    expected = _outcomes(run_suite(seqav, "all", bounds))
    # seqpav differs in generator consistency and clone acceptance
    assert _outcomes(run_suite(seqpav, "all", bounds)) != expected
    monkeypatch.setattr(gains.GainRows, "__init__", _refuse)
    # seqav's step as a plain function, on a rule whose table valuation is
    # seqpav's: the checks follow the step, not the table
    custom = Rule(
        "custom", m, "seq-thiele", step=lambda p, W: generator_step(seqav.valuation, p, W),
        valuation=seqpav.valuation,
    )
    assert gains.gain_rows(custom) is None
    assert _outcomes(run_suite(custom, "all", bounds)) == expected
    for name in GAIN_FREE:  # every check, each generator consistency included
        rule = make(name, m)
        assert gains.gain_rows(rule) is None
        run_suite(rule, "all", bounds)


# ---------------------------------------------------------------------------
# n-statistics


def test_z_pairs_bounds():
    assert z_pairs(3, 1) == ((0, 1), (1, 2))
    assert z_pairs(3, 2) == ()  # committees one below full size carry no data
    assert all(k < l for k, l in z_pairs(4, 2))


def test_compute_n_stats_example():
    rows = dict(compute_n_stats(P1, {0}))
    pairs = z_pairs(3, 1)
    assert pairs == ((0, 1), (1, 2))
    assert rows[1] == (0, 3)  # candidate 1: three ballots of size 2 hitting W once
    assert rows[2] == (1, 0)  # candidate 2: one singleton ballot missing W
    assert rows[1][pairs.index((1, 2))] == 3
    assert rows[2][pairs.index((0, 1))] == 1


def test_n_stats_row_sums_bounded_by_electorate():
    for committee in ({0}, {1}, set()):
        for _, counts in compute_n_stats(P1, committee):
            assert sum(counts) <= P1.n


# ---------------------------------------------------------------------------
# Anonymity / neutrality


def test_anonymity_passes_for_approval():
    report = check_anonymity(make("seqav", 3), SMALL)
    assert report.verdict == "pass-exhaustive"


def test_anonymity_violation_for_voter1_doubled_is_replayable():
    rule = make("voter1-doubled-seqav", 3)
    report = check_anonymity(rule, SMALL)
    assert report.verdict == "violation"
    w = report.witness
    permuted = apply_voter_permutation(w["voter_permutation"], w["profile"])
    assert rule.apply(w["profile"], w["k"]) == w["families"][0]
    assert rule.apply(permuted, w["k"]) == w["families"][1]
    assert w["families"][0] != w["families"][1]


def test_anonymity_violation_for_unflagged_id_reading_rule():
    # The voter-1-doubled step without the id_sensitive flag: its traces are
    # cached per ballot multiset, which every voter relabeling shares, so
    # the check must trace relabeled profiles by their vote sequence.
    rule = Rule("unflagged", 3, "zoo", step=catalog._voter1_doubled_step)
    report = check_anonymity(rule, SMALL)
    assert report.verdict == "violation"
    w = report.witness
    permuted = apply_voter_permutation(w["voter_permutation"], w["profile"])
    assert step_trace(rule.step, w["profile"], w["k"])[w["k"]] == w["families"][0]
    assert step_trace(rule.step, permuted, w["k"])[w["k"]] == w["families"][1]
    assert w["families"][0] != w["families"][1]


def test_anonymity_witness_replays_after_a_relabeled_profile_filled_the_cache():
    # The unflagged rule caches its trace of voters 1:{1}, 2:{0} under the
    # ballot counts it shares with 1:{0}, 2:{1}; the anonymity witness must
    # still be the rule's output on its own profile, not that cached trace.
    rule = Rule("unflagged", 3, "zoo", step=catalog._voter1_doubled_step)
    rule.apply(Profile.from_ballots(3, [{1}, {0}]), 1)
    report = check_anonymity(rule, SMALL)
    assert report.verdict == "violation"
    w = report.witness
    permuted = apply_voter_permutation(w["voter_permutation"], w["profile"])
    assert step_trace(rule.step, w["profile"], w["k"])[w["k"]] == w["families"][0]
    assert step_trace(rule.step, permuted, w["k"])[w["k"]] == w["families"][1]


def test_anonymity_passes_for_trivial():
    assert check_anonymity(make("trivial", 3), SMALL).verdict == "pass-exhaustive"


def _first_id_step(valuation, profile, W):
    """The largest score's candidates if the first voter has id 1, every
    outsider otherwise: it binds one valuation but reads voter ids."""
    if profile.votes[0][0] == 1:
        return generator_step(valuation, profile, W)
    return frozenset(range(profile.m)) - W


def test_anonymity_searches_a_bound_step_that_is_not_generator_step():
    rule = Rule("first-id", 3, "zoo", step=partial(_first_id_step, make("seqav", 3).valuation))
    report = check_anonymity(rule, SMALL)
    assert report.verdict == "violation"
    w = report.witness
    permuted = apply_voter_permutation(w["voter_permutation"], w["profile"])
    assert step_trace(rule.step, w["profile"], w["k"])[w["k"]] == w["families"][0]
    assert step_trace(rule.step, permuted, w["k"])[w["k"]] == w["families"][1]


def test_anonymity_of_a_step_by_a_valuation_is_decided_without_tracing():
    # no profile is traced, so a branch cap the traces exceed no longer
    # raises, where neutrality, over the same universe, still does
    bounds = Bounds(n_perm=3)
    used = {"m": 3, "n": 3, "permutations": "all of S_n plus an id shift"}
    for name in ("seqav", "seqpav", "seqsav"):
        rule = make(name, 3)
        rule.branch_cap = 1
        report = check_anonymity(rule, bounds)
        assert (report.verdict, report.bounds, report.note) == ("pass-exhaustive", used, "")
        with pytest.raises(BranchCapError):
            check_neutrality(rule, bounds)
    # the universe is still held to its cap
    with pytest.raises(EnumerationCapError):
        check_anonymity(make("seqav", 3), Bounds(n_perm=40))
    # an id-sensitive rule is still traced
    rule = make("voter1-doubled-seqav", 3)
    rule.branch_cap = 1
    with pytest.raises(BranchCapError):
        check_anonymity(rule, bounds)


def test_neutrality_passes_for_pav():
    assert check_neutrality(make("seqpav", 3), SMALL).verdict == "pass-exhaustive"


def test_neutrality_violation_for_candidate_doubled_is_replayable():
    rule = make("candidate-a-doubled-seqav", 3)
    report = check_neutrality(rule, SMALL)
    assert report.verdict == "violation"
    w = report.witness
    tau = w["candidate_permutation"]
    permuted = apply_candidate_permutation(tau, w["profile"])
    expected = frozenset(frozenset(tau[c] for c in W) for W in rule.apply(w["profile"], w["k"]))
    assert rule.apply(permuted, w["k"]) != expected


# sha256 of ``render_report`` of the check at n_perm = 3, recorded while
# every item was tried under all of S_m: the two generating relabelings
# find the violation, and the fallback to S_m keeps the first witness
CANDIDATE_A_NEUTRALITY_SHA256 = {
    3: "18461d1e79d9322f902294c626d7c7960a251362a2f790914b81528310dc9157",
    4: "11293f8600d31d934c4458988c9052378c37a978ab77a5b4dab0f96ad87feda2",
}


@pytest.mark.parametrize("m", sorted(CANDIDATE_A_NEUTRALITY_SHA256))
def test_candidate_a_doubled_keeps_its_first_neutrality_witness(m):
    report = check_neutrality(make("candidate-a-doubled-seqav", m), Bounds(n_perm=3))
    assert report.verdict == "violation"
    text = render_report(report)
    assert hashlib.sha256(text.encode()).hexdigest() == CANDIDATE_A_NEUTRALITY_SHA256[m]


def test_neutrality_passes_for_trivial():
    assert check_neutrality(make("trivial", 3), SMALL).verdict == "pass-exhaustive"


def _lowest_outsider(profile, W):
    """The lowest-numbered candidate outside W: neutral on no profile."""
    return frozenset({min(c for c in range(profile.m) if c not in W)})


def _last_doubled(profile, W):
    """Approval voting's step with the last candidate's approvals counted
    twice: it commutes with the relabelings that fix the last candidate,
    the transposition of candidates 0 and 1 among them, and no others."""
    totals = dict.fromkeys((c for c in range(profile.m) if c not in W), 0)
    for _, ballot in profile.votes:
        for c in ballot:
            if c in totals:
                totals[c] += 2 if c == profile.m - 1 else 1
    best = max(totals.values())
    return frozenset(c for c, total in totals.items() if total == best)


@pytest.mark.parametrize("name", (
    "seqpav", "candidate-a-doubled-seqav", "cc-tiebreak-seqav", "voter1-doubled-seqav",
    "trivial", "optimizing-pav", "lowest-outsider", "last-doubled",
))
def test_neutrality_matches_relabeling_each_profile(name):
    # the relabeled items and their traces against profiles relabeled and
    # stepped outright: the same verdict and the same first witness
    if name == "lowest-outsider":  # id-sensitive, so its universe is ordered
        rule = Rule(name, 3, "zoo", step=_lowest_outsider, id_sensitive=True)
    elif name == "last-doubled":  # only the cycle of the two generators exposes it
        rule = Rule(name, 3, "zoo", step=_last_doubled)
    else:
        rule = make(name, 3)
    report = check_neutrality(rule, Bounds(n_perm=2))
    expected = naive_neutrality_witness(rule, 2)
    assert report.verdict == ("pass-exhaustive" if expected is None else "violation")
    assert render_report(report.witness) == render_report(expected)


# ---------------------------------------------------------------------------
# Non-imposition / continuity


def test_non_imposition_approval_covered_by_two_voters():
    report = check_non_imposition(make("seqav", 3), Bounds(n_single=2))
    assert report.verdict == "pass"
    electing = report.witness["electing_profiles"]
    # one approval ballot {0,1} uniquely elects {0,1} at size two
    assert electing[(2, (0, 1))].ballot_multiset == (frozenset({0, 1}),)


def test_non_imposition_trivial_inconclusive_with_structural_ties():
    report = check_non_imposition(make("trivial", 3), Bounds(n_single=3))
    assert report.verdict == "inconclusive"
    assert "structural" in report.note
    assert report.witness["uncovered"]


def test_non_imposition_coverage_rule_elects_pair():
    rule = make("seqccav", 3)
    profile = Profile.from_ballots(3, [{0}, {0}, {1}])
    assert rule.apply(profile, 1) == fam({0})
    assert rule.apply(profile, 2) == fam({0, 1})
    report = check_non_imposition(rule, Bounds(n_single=3))
    assert report.verdict == "pass"


def test_continuity_immediate_majority():
    rule = make("seqav", 3)
    a = Profile.from_ballots(3, [{0}, {0}])
    b = Profile.from_ballots(3, [{1}])
    report = check_continuity(rule, a, b, 1)
    assert report.verdict == "pass" and report.witness["j"] == 1


def test_continuity_needs_three_copies():
    rule = make("seqav", 3)
    a = Profile.from_ballots(3, [{0}])
    b = Profile.from_ballots(3, [{1}, {1}])
    report = check_continuity(rule, a, b, 1)
    assert report.verdict == "pass" and report.witness["j"] == 3


def test_continuity_gap_for_cc_tiebreak():
    rule = make("cc-tiebreak-seqav", 3)
    a, b, k = continuity_gap_instance(3)
    report = check_continuity(rule, a, b, k, j_max=16)
    assert report.verdict == "inconclusive"
    assert "replication" in report.note


def test_continuity_precondition():
    rule = make("seqav", 3)
    tied = Profile.from_ballots(3, [{0}, {1}])
    with pytest.raises(PreconditionError):
        check_continuity(rule, tied, tied.relabeled(), 1)


def test_continuity_search_certified_for_valuation_rules():
    bounds = Bounds(n_continuity=2, n_continuity_other=1)
    for name in ("seqav", "seqpav", "seqccav", "reverse-seqccav"):
        assert continuity_search(make(name, 3), bounds).verdict == "pass"


def test_continuity_certificate_survives_tied_sibling_extensions():
    # At {0} the winners one size up include {0,1} inherited from the tied
    # parent {1}, with no score edge over the losing {0,3}; the certificate
    # must lean on the argmax extension {0,2} instead of crashing or
    # returning a bogus bound.
    rule = make("seqccav", 4)
    a = Profile.from_ballots(4, [{0, 1}, {0}, {1, 2}, {2}, {3}])
    assert frozenset({0, 1}) in rule.apply(a, 2)
    assert rule.step(a, frozenset({0})) == {2}
    b = Profile.from_ballots(4, [{3}])
    report = check_continuity(rule, a, b, 4)
    assert report.bounds["certified_bound"] >= 1
    assert report.verdict == "pass"


CERTIFIABLE = (
    "seqav", "seqpav", "seqccav", "seqsav", "av-cc-alternating",
    "candidate-a-doubled-seqav", "clone-trusting",
    "reverse-seqav", "reverse-seqpav", "reverse-seqccav",
)


def _certifiable(rule):
    # the tracer gives certificate gains, at no committee here
    return axioms._Traces(rule, axioms._universe(rule, 1)).gains((0,), ()) is not None


def test_the_certifiable_catalog_rules():
    # a step by the rule's valuation, and no voter ids read
    certifiable = [name for name in catalog.RULE_NAMES if _certifiable(make(name, 3))]
    assert certifiable == list(CERTIFIABLE)


def test_the_certificate_reads_the_valuation_the_step_maximizes():
    # cc-tiebreak-seqav's step carrying seqav's valuation: its score gaps
    # say nothing about the coverage tie-break, so nothing is certified and
    # every report is cc-tiebreak-seqav's own
    zoo = make("cc-tiebreak-seqav", 3)
    rule = Rule("cc-with-valuation", 3, "zoo", step=zoo.step, valuation=make("seqav", 3).valuation)
    a, b, k = continuity_gap_instance(3)

    def unnamed(report):
        return {**report.asdict(), "subject": None}

    for j_max in (1, 16):
        expected = check_continuity(zoo, a, b, k, j_max=j_max)
        assert expected.verdict == "inconclusive"
        assert unnamed(check_continuity(rule, a, b, k, j_max=j_max)) == unnamed(expected)
        bounds = Bounds(n_continuity=2, j_max=j_max)
        expected = continuity_search(zoo, bounds)
        assert unnamed(continuity_search(rule, bounds)) == unnamed(expected)
    assert not _certifiable(rule)


@pytest.mark.parametrize("name", CERTIFIABLE)
def test_continuity_certificate_alone_decides_at_one_copy(name):
    # at j_max = 1 a searched count above one can only come from the
    # certificate; the literal oracle, which has none, stops at j_max
    assert continuity_search(make(name, 3), Bounds(j_max=1)).verdict == "pass"


def test_continuity_search_stops_at_a_limit_of_zero():
    # no count is tried, as in check_continuity: no count restores this
    # rule's gap instance, so a search past its limit would never end
    report = continuity_search(make("cc-tiebreak-seqav", 3), Bounds(j_max=0))
    assert report.verdict == "inconclusive"
    assert "up to 0 restores" in report.note


def test_j_max_caps_the_replications_of_a_certified_instance():
    # one voter for {0} against two for {1}: the certificate gives 3 copies
    rule = make("seqav", 3)
    a = Profile.from_ballots(3, [{0}])
    b = Profile.from_ballots(3, [{1}, {1}])
    assert check_continuity(rule, a, b, 1, j_max=3).witness["j"] == 3
    report = check_continuity(rule, a, b, 1, j_max=2)
    assert report.verdict == "pass" and report.bounds["certified_bound"] == 3
    assert report.witness == {"a": a, "b": b, "k": 1}
    assert "exceeds j_max = 2" in report.note and "3 copies restore" in report.note


@pytest.mark.parametrize("name", ["seqpav", "candidate-a-doubled-seqav"])
def test_continuity_search_replicates_no_further_than_j_max(name, monkeypatch):
    # a certified count above j_max is never searched to, by gain rows or by
    # profiles; the note says that some minimal count exceeds j_max
    counts = []
    combined = axioms._Traces.combined

    def counted(traces, a, i, b, j, k):
        counts.append(i)
        return combined(traces, a, i, b, j, k)

    monkeypatch.setattr(axioms._Traces, "combined", counted)
    report = continuity_search(make(name, 3), Bounds(n_continuity=1, j_max=1))
    assert report.verdict == "pass" and "exceeds j_max = 1" in report.note
    assert counts and max(counts) == 1
    default = continuity_search(make(name, 3), Bounds(n_continuity=1, j_max=16))
    assert "largest minimal replication count seen: 3" in default.note


@pytest.mark.parametrize("name", catalog.RULE_NAMES)
def test_continuity_search_matches_the_per_instance_loop(name):
    report = continuity_search(make(name, 3))
    assert render_report(report) == render_report(naive_continuity_search(make(name, 3), Bounds()))


# the largest minimal replication count of the continuity note, recorded
# while A ranged over every item: at m = 3 with the default bounds, and at
# m = 4 with A of up to two voters
LARGEST_REPLICATION_COUNT = {
    "seqav": (2, 2), "seqpav": (3, 4), "seqccav": (2, 2), "seqsav": (3, 7),
    "av-cc-alternating": (2, 2), "candidate-a-doubled-seqav": (3, 3), "clone-trusting": (5, 5),
    "reverse-seqav": (2, 2), "reverse-seqpav": (3, 4), "reverse-seqccav": (2, 2),
}


@pytest.mark.parametrize("name", GAIN_ROW_RULES)
def test_continuity_note_keeps_its_largest_replication_count(name):
    # A ranges over orbit representatives for the rules with table rows; the
    # count is the same over every item, as each orbit shares its counts
    for m, bounds in ((3, Bounds()), (4, Bounds(n_continuity=2))):
        report = continuity_search(make(name, m), bounds)
        count = LARGEST_REPLICATION_COUNT[name][m - 3]
        assert report.verdict == "pass"
        assert report.note.endswith(f"; largest minimal replication count seen: {count}")


def test_continuity_check_caches_only_a():
    rule = make("seqpav", 3)
    a = Profile.from_ballots(3, [{0, 1}, {0}])
    b = Profile.from_ballots(3, [{2}, {2}, {1, 2}])
    report = check_continuity(rule, a, b, 1, j_max=4)
    assert report.verdict == "pass" and report.witness["j"] > 1
    assert list(rule._traces) == [a.ballot_counts]


def test_continuity_search_caches_only_the_searched_profiles():
    # jA + B is built for one comparison; only the A side, at most
    # n_continuity voters, belongs in the rule's cache.
    rule = make("seqpav", 3)
    bounds = Bounds(n_continuity=3)
    assert continuity_search(rule, bounds).verdict == "pass"
    assert max(sum(count for _, count in key) for key in rule._traces) <= bounds.n_continuity


# ---------------------------------------------------------------------------
# Committee monotonicity / generator consistency


def test_monotonicity_holds_for_sequential_rules():
    for name in ("seqav", "seqpav", "seqsav", "reverse-seqav"):
        assert check_committee_monotonicity(make(name, 3), SMALL).verdict == "pass-exhaustive"


def test_monotonicity_violation_for_optimizing_pav_is_replayable():
    rule = make("optimizing-pav", 3)
    report = check_committee_monotonicity(rule, Bounds(n_single=4))
    assert report.verdict == "violation"
    w = report.witness
    assert w["profile"].ballot_multiset == (
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    )
    assert w["committee"] == frozenset({2})
    assert w["committee"] in rule.apply(w["profile"], 1)
    assert not any(w["committee"] < W for W in rule.apply(w["profile"], 2))


def test_generator_consistency_for_pav_step():
    rule = make("seqpav", 3)
    report = check_generator_consistency(step_generator(rule), Bounds(n_pair_each=2))
    assert report.verdict == "pass-exhaustive"


def test_generator_consistency_violation_for_reverse_derived():
    rule = make("reverse-seqccav", 3)
    report = check_generator_consistency(derived_generator(rule), Bounds(n_pair_each=2))
    assert report.verdict == "violation"
    w = report.witness
    # replay the three evaluations recorded in the witness
    from seqvote.engine import derive_generator

    assert derive_generator(rule, w["a"], w["committee"]) == w["g_a"]
    assert derive_generator(rule, w["b"], w["committee"]) == w["g_b"]
    combined = w["a"] + w["b"]
    assert derive_generator(rule, combined, w["committee"]) == w["g_combined"]
    assert w["g_combined"] != w["intersection"] != frozenset()


def test_generator_consistency_on_disjoint_copy_of_itself():
    # g(2A, W) = g(A, W): the intersection with itself never shrinks.
    rule = make("seqpav", 3)
    for profile in ProfileUniverse(3, 2):
        doubled = profile + profile.relabeled(first_id=10)
        for committee in ({0}, {1}, set()):
            assert rule.step(doubled, frozenset(committee)) == rule.step(
                profile, frozenset(committee)
            )


def _voter1_outside(profile, W):
    """Voter 1's approvals outside W if voter 1 votes and has any, else every outsider."""
    ballot = dict(profile.votes).get(1, frozenset())
    return (ballot - W) or frozenset(range(profile.m)) - W


def test_generator_consistency_evaluates_what_the_generator_sees():
    # B's voters are renumbered above A's, so an id-sensitive generator never
    # sees a voter 1 in B; one flagged anonymous is evaluated on canonical
    # profiles, where B's first voter is voter 1.
    bounds = Bounds(n_pair_each=2)
    by_ids = GeneratorFunction("voter1-outside", 3, _voter1_outside, id_sensitive=True)
    assert check_generator_consistency(by_ids, bounds).verdict == "pass-exhaustive"
    flagged = GeneratorFunction("voter1-outside", 3, _voter1_outside)
    report = check_generator_consistency(flagged, bounds)
    assert report.verdict == "violation"
    w = report.witness
    assert w["a"].votes == ((1, frozenset({0})),)
    assert w["b"].votes == ((2, frozenset({1})),)
    assert (w["committee"], w["g_a"], w["g_b"], w["g_combined"], w["intersection"]) == (
        frozenset({0}), frozenset({1, 2}), frozenset({1}), frozenset({1, 2}), frozenset({1})
    )


def _voter1_in_company(profile, W):
    """Voter 1's approvals outside W among two or more voters, else every outsider."""
    if profile.n >= 2:
        return dict(profile.votes).get(1, frozenset()) - W
    return frozenset(range(profile.m)) - W


def test_id_sensitive_generator_consistency_violation_replays():
    g = GeneratorFunction("voter1-in-company", 3, _voter1_in_company, id_sensitive=True)
    report = check_generator_consistency(g, Bounds(n_pair_each=2))
    assert report.verdict == "violation"
    w = report.witness
    a, b, W = w["a"], w["b"], w["committee"]
    assert a.votes == ((1, frozenset({0})),) and b.votes == ((2, frozenset({0})),)
    assert W == frozenset()
    assert g.fn(a, W) == w["g_a"] == frozenset({0, 1, 2})
    assert g.fn(b, W) == w["g_b"] == frozenset({0, 1, 2})
    assert g.fn(a + b, W) == w["g_combined"] == frozenset({0})
    assert w["intersection"] == w["g_a"] & w["g_b"] != w["g_combined"]


def _crowd_shy(profile, W):
    """Every outsider for a lone voter, none for a larger electorate."""
    return frozenset(range(profile.m)) - W if profile.n == 1 else frozenset()


def _crowd_picky(profile, W):
    """Every outsider for a lone voter, only the smallest for a larger electorate."""
    outside = frozenset(range(profile.m)) - W
    return outside if profile.n == 1 else frozenset({min(outside)})


def _generators(m):
    """Step and derived generators of catalog rules, and test generators, by name."""
    out = {}
    for name in ("seqpav", "reverse-seqccav", "cc-tiebreak-seqav", "voter1-doubled-seqav"):
        rule = make(name, m)
        out[f"step({name})"] = step_generator(rule)
        out[f"derived({name})"] = derived_generator(rule)
    out["voter1-outside"] = GeneratorFunction(
        "voter1-outside", m, _voter1_outside, id_sensitive=True
    )
    out["voter1-in-company"] = GeneratorFunction(
        "voter1-in-company", m, _voter1_in_company, id_sensitive=True
    )
    # anonymous ones: an empty combined choice is no violation, and the
    # first violation pairs a profile with itself
    out["crowd-shy"] = GeneratorFunction("crowd-shy", m, _crowd_shy)
    out["crowd-picky"] = GeneratorFunction("crowd-picky", m, _crowd_picky)
    return out


CONSISTENCY_CASES = [
    (name, m, 2) for m in (2, 3) for name in sorted(_generators(m))
] + [("derived(voter1-doubled-seqav)", 3, 3)]


@pytest.mark.parametrize("name, m, n", CONSISTENCY_CASES)
def test_generator_consistency_matches_the_per_committee_search(name, m, n):
    g = _generators(m)[name]
    report = check_generator_consistency(g, Bounds(n_pair_each=n))
    expected = naive_consistency_witness(g, n)
    assert report.verdict == ("pass-exhaustive" if expected is None else "violation")
    assert render_report(report.witness) == render_report(expected)


def test_consistency_search_caches_only_shared_traces():
    # One trace per profile of the ordered universe up to three voters
    # (7 + 49 + 343) at most; the unions and B's renumbered profiles are
    # built for one comparison each and must not fill the cache.
    rule = make("voter1-doubled-seqav", 3)
    before = len(rule._traces)
    check_generator_consistency(derived_generator(rule), Bounds(n_pair_each=3))
    assert len(rule._traces) - before <= 399


def test_a_derived_pass_reads_its_items_off_the_rules_cached_traces():
    # with gain rows too: a derived generator reads an item's row off the
    # trace the single-profile checks share
    rule = make("seqav", 3)
    report = check_generator_consistency(derived_generator(rule), Bounds(n_pair_each=2))
    assert report.verdict == "pass-exhaustive"  # so every item was read
    universe = ProfileUniverse(3, 2)
    representatives = list(universe.representatives())
    assert len(representatives) == 12
    assert all(rule.cached(universe.counts(a), 3) is not None for a in representatives)


def test_native_step_of_cc_tiebreak_is_consistent_but_derived_is_not():
    rule = make("cc-tiebreak-seqav", 3)
    bounds = Bounds(n_pair_each=2)
    assert check_generator_consistency(step_generator(rule), bounds).verdict == "pass-exhaustive"
    assert check_generator_consistency(derived_generator(rule), bounds).verdict == "violation"


STEPPED_CASES = [
    (name, m) for m in (2, 3) for name in catalog.RULE_NAMES if make(name, m).step is not None
]


@pytest.mark.parametrize("name, m", STEPPED_CASES)
def test_one_pass_matches_each_generator_alone(name, m):
    # run_suite checks a rule's own step, then its derived generator, one
    # pass each; each witness is the naive search's, which also evaluates
    # committees of size m - 1 and decides no step without searching it
    bounds = Bounds(n_pair_each=2)
    rule = make(name, m)
    alone = []
    for g in (step_generator(rule), derived_generator(rule)):
        report = check_generator_consistency(g, bounds)
        naive = naive_consistency_witness(g, 2)
        assert report.verdict == ("pass-exhaustive" if naive is None else "violation")
        assert render_report(report.witness) == render_report(naive)
        alone.append(render_report(report))
    suite = run_suite(rule, "monotone", Bounds(n_single=2, n_pair_each=2))[1:]
    assert [render_report(r) for r in suite] == alone


def test_voter1_doubled_at_four_candidates():
    # the id-sensitive pass at m = 4, for each generator: the derived one
    # reads the row of every B renumbered above A off the rule's own trace
    rule = make("voter1-doubled-seqav", 4)
    for g in (step_generator(rule), derived_generator(rule)):
        report = check_generator_consistency(g, Bounds(n_pair_each=2))
        assert render_report(report.witness) == render_report(naive_consistency_witness(g, 2))
        assert report.verdict == "pass-exhaustive"


@pytest.mark.parametrize("names", [
    # the first generator has its witness at the first pair, the others go on
    ("crowd-picky", "derived(seqpav)", "step(seqpav)"),
    ("derived(reverse-seqccav)", "step(reverse-seqccav)", "crowd-shy"),
    ("voter1-in-company", "derived(voter1-doubled-seqav)", "step(voter1-doubled-seqav)"),
])
def test_one_pass_over_generators_of_different_rules(names):
    # passes over generators sharing rules and their trace caches give the
    # same reports in either order, each with the naive search's witness
    bounds = Bounds(n_pair_each=2)
    generators = _generators(3)
    forward = [check_generator_consistency(generators[name], bounds) for name in names]
    generators = _generators(3)
    backward = [check_generator_consistency(generators[name], bounds) for name in reversed(names)]
    for name, report, other in zip(names, forward, reversed(backward)):
        assert render_report(report) == render_report(other)
        expected = naive_consistency_witness(generators[name], 2)
        assert render_report(report.witness) == render_report(expected)


def test_no_union_is_evaluated_at_size_m_minus_1():
    m, n = 3, 2
    calls = []  # (voters, committee size) of every call

    def counting(profile, W):
        calls.append((profile.n, len(W)))
        return frozenset(range(profile.m)) - W

    check_generator_consistency(GeneratorFunction("everyone", m, counting), Bounds(n_pair_each=n))
    assert any(voters > n for voters, _ in calls)  # unions were evaluated
    assert all(size < m - 1 for _, size in calls)

    # a rule's own step and its derived generator, as the suite runs them: the items of
    # the universe are traced in full through the rule's cache, the unions
    # only up to size m - 1
    calls.clear()
    rule = Rule("counted-seqav", m, "zoo", step=counting)
    run_suite(rule, "monotone", Bounds(n_single=n, n_pair_each=n))
    unions = [size for voters, size in calls if voters > n]
    assert unions and max(unions) < m - 1


def _inside(profile, W):
    """Every candidate, members of W included."""
    return frozenset(range(profile.m))


def test_a_choice_inside_the_committee_is_an_error():
    bounds = Bounds(n_pair_each=2)
    with pytest.raises(ValueError, match="from inside the committee"):
        check_generator_consistency(GeneratorFunction("inside", 3, _inside), bounds)
    rule = Rule("inside", 3, "zoo", step=_inside)
    with pytest.raises(ValueError, match="from inside the committee"):
        check_generator_consistency(derived_generator(rule), bounds)


def _drawn_valuation(data, m):
    """A table or ``fn`` valuation with values drawn from a few small
    rationals, so extensions tie often."""
    values = [Fraction(v, d) for v in range(-2, 3) for d in (1, 2)]
    if data.draw(st.booleans(), label="table"):
        grid = {
            (x, y, z): data.draw(st.sampled_from(values))
            for y in range(m + 1) for z in range(1, m + 1) for x in range(min(y, z) + 1)
        }
        return Valuation("drawn-table", counting=lambda x, y, z: grid[x, y, z])
    seed = data.draw(st.integers(0, 2**32), label="seed")
    return Valuation("drawn-fn", fn=lambda ballot, W: values[hash((seed, ballot, W)) % len(values)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_step_by_the_largest_score_is_consistent(data):
    # the lemma that decides such steps without a search: scores add over
    # disjoint electorates, so wherever J = g(A, W) & g(B, W) is not empty,
    # the step on A + B chooses exactly J
    m = data.draw(st.integers(2, 5), label="m")
    valuation = _drawn_valuation(data, m)
    electorate = st.lists(
        st.frozensets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=4
    )
    a = Profile.from_ballots(m, data.draw(electorate, label="A"))
    b = Profile.from_ballots(m, data.draw(electorate, label="B")).relabeled(a.n + 1)
    for W in all_committees(m, m - 1):
        joint = generator_step(valuation, a, W) & generator_step(valuation, b, W)
        if joint:
            assert generator_step(valuation, a + b, W) == joint


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_step_by_the_largest_score_is_anonymous(data):
    # the lemma that decides anonymity for such steps without a search: the
    # step reads the ballot counts alone, which every voter relabeling and
    # the id shift keep
    m = data.draw(st.integers(2, 5), label="m")
    valuation = _drawn_valuation(data, m)
    electorate = st.lists(
        st.frozensets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=4
    )
    profile = Profile.from_ballots(m, data.draw(electorate, label="A"))
    ids = profile.voter_ids
    others = [apply_voter_permutation(dict(zip(ids, image)), profile)
              for image in itertools.permutations(ids)]
    others.append(profile.relabeled(2))
    for W in all_committees(m, m - 1):
        choice = generator_step(valuation, profile, W)
        assert [generator_step(valuation, other, W) for other in others] == [choice] * len(others)


def _boom(ballot, W):
    raise AssertionError("a decided step is never called")


def _parity_step(valuation, profile, W):
    """The largest score's candidates for an odd electorate, every outsider
    for an even one: not additive."""
    if profile.n % 2:
        return generator_step(valuation, profile, W)
    return frozenset(range(profile.m)) - W


def test_only_a_step_by_the_largest_score_is_decided():
    bounds = Bounds(n_pair_each=2)
    # decided by the step's identity, for a table or an fn valuation: the
    # step is never called
    for valuation in (make("seqpav", 3).valuation, Valuation("boom", fn=_boom)):
        g = GeneratorFunction("decided", 3, partial(generator_step, valuation))
        report = check_generator_consistency(g, bounds)
        assert (report.verdict, report.bounds, report.note) == (
            "pass-exhaustive", {"m": 3, "n_each": 2}, ""
        )
    # a step that binds one valuation but is not generator_step is searched
    g = GeneratorFunction("parity", 3, partial(_parity_step, make("seqav", 3).valuation))
    report = check_generator_consistency(g, bounds)
    assert report.verdict == "violation"
    assert render_report(report.witness) == render_report(naive_consistency_witness(g, 2))
    # and so is generator_step bound to no valuation, which fails when called
    with pytest.raises(TypeError):
        check_generator_consistency(GeneratorFunction("bare", 3, partial(generator_step)), bounds)


def test_a_decided_step_is_held_to_the_universe_cap():
    # three candidates and 40 voters a side: far more profiles than the cap
    bounds = Bounds(n_pair_each=40)
    searched = _generators(3)["crowd-shy"]
    with pytest.raises(EnumerationCapError) as expected:
        check_generator_consistency(searched, bounds)
    for g in (step_generator(make("seqpav", 3)), step_generator(make("candidate-a-doubled-seqav", 3))):
        with pytest.raises(EnumerationCapError) as error:
            check_generator_consistency(g, bounds)
        assert str(error.value) == str(expected.value)


def test_each_unordered_pair_is_visited_once(monkeypatch):
    # relabeling tables over the universe's cap (3! * 7 = 42 > 41 >= 35
    # profiles of up to two voters): the representatives fall back to every
    # item, and the pass still pairs A only with B from A on and finds the
    # same first witness
    g = derived_generator(make("seqpav", 3))
    expected = check_generator_consistency(g, Bounds(n_pair_each=2))
    assert expected.verdict == "violation"
    capped = partial(ProfileUniverse, cap=41)
    monkeypatch.setattr(axioms, "ProfileUniverse", capped)
    universe = capped(3, 2)
    assert list(universe.representatives()) == list(universe.items())
    items = list(universe.items())
    pairs = [(a, b) for a, others in axioms._pairs(universe, True, False) for b in others]
    assert pairs == [(a, b) for pos, a in enumerate(items) for b in items[pos:]]
    got = check_generator_consistency(derived_generator(make("seqpav", 3)), Bounds(n_pair_each=2))
    assert render_report(got) == render_report(expected)
    # under the default cap: the reduced pairs, B from A on
    universe = ProfileUniverse(3, 3)
    pairs = [(a, b) for a, others in axioms._pairs(universe, True, False) for b in others]
    assert all((len(b), b) >= (len(a), a) for a, b in pairs)
    assert len(pairs) == 2733 - 1114


CAPS = st.integers(1, 3) | st.just(DEFAULT_BRANCH_CAP)


def test_a_failing_choice_outranks_an_overflow_at_its_level():
    # at size 2, one committee of f(A, 1) has three children, over the cap
    # of 2, and the other chooses nothing: step_trace reports the empty
    # choice, whatever order its set steps the level in
    m = 4
    index = {W: i for i, W in enumerate(all_committees(m, m - 2))}
    profile = Profile.from_ballots(m, [range(m)])
    for wide, empty in itertools.permutations(range(m), 2):
        masks = [0] * len(index)
        masks[index[frozenset()]] = 1 << wide | 1 << empty
        masks[index[frozenset({wide})]] = ((1 << m) - 1) ^ 1 << wide

        def step(_, W, masks=masks):
            return frozenset(c for c in range(m) if masks[index[W]] >> c & 1)

        expected = "ValueError: generator step returned no candidates mid-run"
        assert _outcome(step_trace, step, profile, 2, 2) == expected
        # one level down, with no failing choice left, the cap fires
        masks[index[frozenset({empty})]] = 1 << wide
        assert _outcome(step_trace, step, profile, 2, 2).startswith("BranchCapError")


def _random_step(seed, id_sensitive, failing):
    """Weighted approval with pseudo-random weights in 0..2, which tie
    often: each vote adds to each candidate c outside the committee W a
    weight keyed by the ballot, W and c, and by the voter id too for an
    ``id_sensitive`` step, and the step chooses the best.  Scores add over disjoint
    electorates, so the step is consistent and a pass goes on to the end.
    A ``failing`` step, on about one in 40 of what it sees of a profile (its
    votes, or its ballot counts) and W, chooses nothing or a member of W."""

    def step(profile, W):
        outside = [c for c in range(profile.m) if c not in W]
        if failing:
            seen = profile.votes if id_sensitive else profile.ballot_counts
            draw = hash((seed, seen, W)) % 80
            if draw < 2:
                return W | {outside[0]} if W and draw else frozenset()
        scores = dict.fromkeys(outside, 0)
        for voter, ballot in profile.votes:
            who = voter if id_sensitive else 0
            for c in outside:
                scores[c] += hash((seed, who, ballot, W, c)) % 3
        best = max(scores.values())
        return frozenset(c for c in outside if scores[c] == best)

    return step


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32), id_sensitive=st.booleans(), failing=st.booleans(), cap=CAPS
)
def test_random_steps_in_the_consistency_pass(seed, id_sensitive, failing, cap):
    # the rule's own step, then its derived generator, as the suite runs
    # them: a pass raises only what a trace or a checked choice raises, a
    # step that never fails raises only the cap, and where it and the naive
    # search both finish, they give one witness; under the default cap
    # both must finish
    m = 3
    step = _random_step(seed, id_sensitive, failing)
    rule = Rule("random", m, "zoo", step=step, id_sensitive=id_sensitive, branch_cap=cap)
    for g in (step_generator(rule), derived_generator(rule)):
        got = _outcome(check_generator_consistency, g, Bounds(n_pair_each=2))
        if failing:
            continue
        if isinstance(got, str):
            assert got.startswith("BranchCapError") and cap != DEFAULT_BRANCH_CAP
            continue
        naive = _outcome(naive_consistency_witness, g, 2)
        assert cap != DEFAULT_BRANCH_CAP or not isinstance(naive, str), naive
        if not isinstance(naive, str):
            assert got.verdict == ("pass-exhaustive" if naive is None else "violation")
            assert render_report(got.witness) == render_report(naive)


def test_a_derived_pass_raises_what_the_rules_trace_raises():
    # An id-sensitive seqav step that, on one voter approving everything
    # with voter id 2 (B renumbered above a one-voter A), chooses nothing
    # at {0} and its own member at {2}.  The derived pass reads that
    # profile's row off the rule's own trace, so it raises that trace's
    # error, from whichever of the two its set steps first.
    m = 3
    av = make("seqav", m).valuation
    probe = Profile(m, ((2, frozenset(range(m))),))
    odd = {frozenset({0}): frozenset(), frozenset({2}): frozenset({2})}

    def step(profile, W):
        if profile.votes == probe.votes and W in odd:
            return odd[W]
        return generator_step(av, profile, W)

    rule = Rule("probe", m, "zoo", step=step, id_sensitive=True)
    expected = _outcome(rule.trace_uncached, probe)
    assert expected.startswith("ValueError: generator")
    got = _outcome(check_generator_consistency, derived_generator(rule), Bounds(n_pair_each=1))
    assert got == expected


def test_a_derived_pass_traces_a_union_only_as_deep_as_its_row_is_needed():
    # An id-sensitive seqav step that chooses nothing at every committee of
    # size 1 of one union, {0, 1} (voter 1) + {0, 2} (voter 2).  The sides'
    # derived choices meet only at the empty committee ({0, 1} & {0, 2}),
    # so the pass traces that union to size 1 and never meets the failure.
    m = 3
    av = make("seqav", m).valuation
    union = Profile(m, ((1, frozenset({0, 1})), (2, frozenset({0, 2}))))

    def step(profile, W):
        if profile.votes == union.votes and len(W) == 1:
            return frozenset()
        return generator_step(av, profile, W)

    rule = Rule("deep-failure", m, "zoo", step=step, id_sensitive=True)
    assert _outcome(rule.trace_uncached, union, 2).startswith("ValueError")
    report = check_generator_consistency(derived_generator(rule), Bounds(n_pair_each=1))
    assert report.verdict == "pass-exhaustive"


# ---------------------------------------------------------------------------
# Independence of losers / committee separability


def test_independence_of_losers_pav():
    assert check_independence_of_losers(make("seqpav", 3), Bounds(n_single=3)).verdict == "pass-exhaustive"


def test_independence_of_losers_violation_for_sav_is_replayable():
    rule = make("seqsav", 3)
    report = check_independence_of_losers(rule, Bounds(n_single=4))
    assert report.verdict == "violation"
    w = report.witness
    assert w["committee"] in rule.apply(w["profile"], w["k"])
    assert w["committee"] not in rule.apply(w["shrunk_profile"], w["k"])
    # the shrinking only removed candidates outside the committee
    shrunk = sorted(w["shrunk_profile"].ballot_multiset)
    assert w["shrunk_profile"].n == w["profile"].n
    for ballot in shrunk:
        assert ballot  # never empty


def test_shrinkings_preserve_committee_part():
    from seqvote.axioms import _ballot_shrinkings

    options = _ballot_shrinkings(frozenset({0, 1, 2}), frozenset({0}))
    assert options == (
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 1, 2}),
    )
    # a ballot disjoint from the committee may shrink anywhere except empty
    options = _ballot_shrinkings(frozenset({1, 2}), frozenset({0}))
    assert frozenset() not in options and len(options) == 3


@pytest.mark.parametrize("ordered", [False, True])
def test_shrinkings_follow_the_per_voter_product(ordered):
    # the first independence-of-losers witness depends on this order
    from seqvote.axioms import _ballot_shrinkings, _shrunk

    universe = ProfileUniverse(3, 3, ordered=ordered)
    moves = {}
    for item in universe.items():
        for committee in all_committees(3):
            per_voter = [_ballot_shrinkings(universe.ballots[i], committee) for i in item]
            literal = []
            for choice in itertools.product(*per_voter):
                shrunk = tuple(universe.index[b] for b in choice)
                literal.append(shrunk if ordered else tuple(sorted(shrunk)))
            expected = [shrunk for shrunk in dict.fromkeys(literal) if shrunk != item]
            assert list(dict.fromkeys(_shrunk(universe, item, committee, moves))) == expected


# sha256 of ``render_report`` of the check, recorded before both profile
# universes moved to ballot-index items: the first witness (seqsav) and the
# pass over every shrinking of the ordered universe (voter1-doubled-seqav).
INDEPENDENCE_OF_LOSERS_SHA256 = {
    ("seqsav", 4, 4): "906af03b77d2ec6fdd64a557a649002375a6162f92e839fb66d867145ad32204",
    ("voter1-doubled-seqav", 3, 3): "128f2d2ead9c09da4e7bd21d0eb8a14f1f0db38024676583cccefbe6a5250ca1",
}


@pytest.mark.parametrize("name, m, n", sorted(INDEPENDENCE_OF_LOSERS_SHA256))
def test_independence_of_losers_reports_are_pinned(name, m, n):
    report = check_independence_of_losers(make(name, m), Bounds(n_single=n))
    text = render_report(report)
    assert hashlib.sha256(text.encode()).hexdigest() == INDEPENDENCE_OF_LOSERS_SHA256[name, m, n]


def _top_elects_zero(profile, W):
    """Candidate 0 first if anyone approves the top candidate, else 1; then
    the lowest outsider.  Only dropping the top candidate, the last one any
    ballot can drop, makes a winner lose."""
    if not W:
        return frozenset({0 if any(profile.m - 1 in b for b in profile.ballots()) else 1})
    return frozenset({min(c for c in range(profile.m) if c not in W)})


def _drop_test_rule(name, m):
    if name == "ordered-seqsav":  # an anonymous violator over the ordered universe
        return Rule(name, m, "zoo", valuation=make("seqsav", m).valuation, id_sensitive=True)
    if name == "top-elects-zero":
        return Rule(name, m, "zoo", step=_top_elects_zero)
    return make(name, m)


@pytest.mark.parametrize("name", catalog.RULE_NAMES + ("ordered-seqsav", "top-elects-zero"))
def test_single_drops_decide_independence_of_losers(name):
    # the verdict over single drops is the verdict over every shrinking, and
    # the first witness is the full search's; a universe holds the smaller
    # ones, so a pass at the largest n is a pass at every n
    for m, n_max in ((2, 4), (3, 4), (4, 2)):
        rule = _drop_test_rule(name, m)
        for n in range(n_max, 0, -1):
            universe = axioms._universe(rule, n)
            traces = axioms._Traces(rule, universe)
            first = next(axioms._shrinking_witnesses(traces, universe.items()), None)
            drops = axioms._single_drops_violate(traces, universe.items())
            assert drops == (first is not None)
            if traces.reduced:  # the same verdict on orbit representatives
                reduced = universe.representatives()
                assert axioms._single_drops_violate(traces, reduced) == drops
            report = check_independence_of_losers(rule, Bounds(n_single=n))
            assert render_report(report.witness) == render_report(first)
            if first is None:
                break
    if name == "top-elects-zero":
        assert first["shrunk_profile"].ballots() == (frozenset({0}),)


def test_separability_coverage_rule():
    assert check_committee_separability(make("seqccav", 3), Bounds(n_pair_total=3)).verdict == "pass-exhaustive"


def test_separability_caches_no_union():
    # A + B is built for one comparison; only the sides, at most
    # n_pair_total - 1 voters each, belong in the rule's cache.
    rule = make("seqpav", 3)
    bounds = Bounds(n_pair_total=3)
    assert check_committee_separability(rule, bounds).verdict == "pass-exhaustive"
    assert max(sum(count for _, count in key) for key in rule._traces) <= bounds.n_pair_total - 1


def test_separability_violation_for_alternating_is_replayable():
    rule = make("av-cc-alternating", 4)
    report = check_committee_separability(rule, Bounds(n_pair_total=4))
    assert report.verdict == "violation"
    w = report.witness
    combined = w["a"] + w["b"]
    assert w["committee"] in rule.apply(combined, w["k"])
    part_ok_a = w["part_a"] in rule.apply(w["a"], len(w["part_a"]))
    part_ok_b = w["part_b"] in rule.apply(w["b"], len(w["part_b"]))
    assert not (part_ok_a and part_ok_b)
    assert w["a"].support | w["b"].support == frozenset(range(4))
    assert w["a"].support.isdisjoint(w["b"].support)


# ---------------------------------------------------------------------------
# Clone axioms


def test_clone_rejection_coverage_passes():
    assert check_clone_axiom(make("seqccav", 3), "rejection", Bounds(n_single=4)).verdict == "pass-exhaustive"


def test_clone_rejection_violation_for_approval_is_replayable():
    rule = make("seqav", 3)
    report = check_clone_axiom(rule, "rejection", Bounds(n_single=4))
    assert report.verdict == "violation"
    w = report.witness
    assert rule.apply(w["profile"], w["k"]) == frozenset({w["committee"]})
    c, d = w["clones"]
    assert {c, d} <= w["committee"]


def test_clone_proportionality_approval_violation():
    rule = make("seqav", 3)
    report = check_clone_axiom(rule, "proportionality", Bounds(n1_max=4, n2_max=3))
    assert report.verdict == "violation"
    w = report.witness
    share = Fraction(w["n1"], w["k"])
    if w["requires"] == "include c":
        assert share < w["n2"] and w["c"] not in w["committee"]
    else:
        assert share > w["n2"] and w["c"] in w["committee"]
    assert w["committee"] in rule.apply(w["profile"], w["k"])


def test_clone_proportionality_the_stated_instance():
    # Four clone-bloc voters against three singleton voters: the clones win
    # both seats although the lone candidate represents more voters.
    rule = make("seqav", 3)
    profile = Profile.from_ballots(3, [{0, 1}] * 4 + [{2}] * 3)
    assert rule.apply(profile, 2) == fam({0, 1})
    assert Fraction(4, 2) < 3


def test_clone_acceptance_approval_passes():
    assert check_clone_axiom(make("seqav", 3), "acceptance", Bounds(n_single=4)).verdict == "pass-exhaustive"


def test_clone_acceptance_pav_violation():
    report = check_clone_axiom(make("seqpav", 3), "acceptance", Bounds(n_single=4))
    assert report.verdict == "violation"


def test_distrust_approval_passes():
    assert check_clone_axiom(make("seqav", 3), "distrust", Bounds(n_single=4)).verdict == "pass-exhaustive"


def test_distrust_violation_for_clone_trusting_is_replayable():
    rule = make("clone-trusting", 3)
    report = check_clone_axiom(rule, "distrust", Bounds(n_single=5))
    assert report.verdict == "violation"
    w = report.witness
    assert rule.apply(w["profile"], w["k"]) == frozenset({w["committee"]})
    assert w["singleton_reports"] > w["approvals_of_chosen"]
    assert w["chosen"] in w["committee"] and w["ignored"] not in w["committee"]


def test_unknown_clone_axiom_rejected():
    with pytest.raises(ValueError):
        check_clone_axiom(make("seqav", 3), "unanimity")


# ---------------------------------------------------------------------------
# Information basis


def test_information_basis_for_catalog_rules_small():
    for name in ("seqpav", "seqsav"):
        rule = make(name, 3)
        report = check_information_basis(rule.valuation, Bounds(n_stats=2), m=3)
        assert report.verdict == "pass-exhaustive"


def test_information_basis_special_cases():
    rule = make("seqpav", 4)
    committee = frozenset({0})
    profile = Profile.from_ballots(4, [{0, 1}, {2, 3}])
    tau = (0, 1, 3, 2)  # fixes the committee pointwise
    permuted = apply_candidate_permutation(tau, profile)
    assert compute_n_stats(profile, committee) == compute_n_stats(permuted, committee)
    assert rule.step(profile, committee) == rule.step(permuted, committee)
    relabeled = apply_voter_permutation({1: 5, 2: 6}, profile)
    assert compute_n_stats(profile, committee) == compute_n_stats(relabeled, committee)
    assert rule.step(profile, committee) == rule.step(relabeled, committee)


def test_information_basis_fails_for_non_neutral_valuation():
    # The candidate-favouring valuation reacts to data outside the statistics.
    rule = make("candidate-a-doubled-seqav", 3)
    report = check_information_basis(rule.valuation, Bounds(n_stats=2), m=3)
    assert report.verdict == "violation"
    w = report.witness
    assert compute_n_stats(w["profile_1"], w["committee"]) == compute_n_stats(
        w["profile_2"], w["committee"]
    )
    assert w["choice_1"] != w["choice_2"]


# ---------------------------------------------------------------------------
# Suites


def test_suite_pav_clones_matches_expected_matrix():
    reports = {r.axiom: r.verdict for r in run_suite(make("seqpav", 3), "clones", SMALL)}
    assert reports == {
        "clone-rejection": "violation",
        "clone-acceptance": "violation",
        "distrust": "pass-exhaustive",
        "clone-proportionality": "pass-exhaustive",
    }


def test_suite_trivial_proper():
    bounds = Bounds(n_single=3, n_perm=2, n_continuity=2, n_continuity_other=1)
    reports = {r.axiom: r.verdict for r in run_suite(make("trivial", 3), "proper", bounds)}
    assert reports["non-imposition"] == "inconclusive"
    assert reports["anonymity"] == "pass-exhaustive"
    assert reports["neutrality"] == "pass-exhaustive"
    assert reports["continuity"] == "pass"
    assert reports["proper"] == "inconclusive"


@pytest.mark.parametrize("name", catalog.RULE_NAMES)
def test_the_trace_cache_holds_only_universe_items(name):
    # a profile built for one comparison (a clone-proportionality profile,
    # B renumbered above A, an id-shifted one) is stepped outside the cache
    rule = make(name, 3)
    run_suite(rule, "all", Bounds(n_single=3))
    universe = axioms._universe(rule, 3)
    assert set(rule._traces) <= set(map(universe.key, universe.items()))


def test_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite(make("seqav", 3), "everything")


def test_universal_checks_hold_at_four_candidates():
    # Same story one candidate up (the acceptance suite pins m=3 at wider
    # voter bounds); generator consistency is repeated only for the rule
    # whose scores genuinely depend on ballot sizes.
    bounds = Bounds(n_single=3, n_perm=2, n_pair_each=2)
    for name in ("seqav", "seqpav", "seqccav", "seqsav", "av-cc-alternating"):
        rule = make(name, 4)
        assert check_anonymity(rule, bounds).verdict == "pass-exhaustive"
        assert check_neutrality(rule, bounds).verdict == "pass-exhaustive"
        assert check_committee_monotonicity(rule, bounds).verdict == "pass-exhaustive"
    sav = make("seqsav", 4)
    assert check_generator_consistency(step_generator(sav), bounds).verdict == "pass-exhaustive"


# ---------------------------------------------------------------------------
# Reduced searches


REDUCED_CASES = [(name, m, 3) for m in (2, 3) for name in catalog.RULE_NAMES] + [
    (name, 4, 2) for name in ("seqpav", "seqsav", "av-cc-alternating")
]


@pytest.mark.parametrize("name, m, n", REDUCED_CASES)
def test_reduced_searches_match_the_literal_ones(name, m, n):
    # each search decided on orbit representatives, or for neutrality on two
    # generating relabelings, against a literal search over every item and
    # all of S_m: the same verdicts, first witnesses and continuity note
    bounds = Bounds(
        n_single=n, n_perm=n, n_pair_each=min(n, 2), n_continuity=n, n1_max=4, n2_max=4
    )
    rule = make(name, m)
    pairs = [
        (check_neutrality(rule, bounds), naive_neutrality_witness(rule, n)),
        (check_committee_monotonicity(rule, bounds), naive_monotonicity_witness(rule, n)),
        (check_independence_of_losers(rule, bounds), naive_independence_witness(rule, n)),
        (check_clone_axiom(rule, "proportionality", bounds),
         naive_proportionality_witness(rule, bounds)),
    ]
    for which in ("rejection", "acceptance", "distrust"):
        pairs.append((check_clone_axiom(rule, which, bounds), naive_clone_witness(rule, which, n)))
    generators = (derived_generator(rule),)
    if rule.step is not None:
        generators = (step_generator(rule), *generators)
    for g in generators:
        report = check_generator_consistency(g, bounds)
        pairs.append((report, naive_consistency_witness(g, bounds.n_pair_each)))
    for report, expected in pairs:
        assert report.verdict == ("pass-exhaustive" if expected is None else "violation")
        assert render_report(report.witness) == render_report(expected)
    expected = naive_continuity_search(rule, bounds)
    assert render_report(continuity_search(rule, bounds)) == render_report(expected)


@pytest.mark.parametrize("which", ["rejection", "acceptance"])
def test_a_reduced_violation_traces_only_representatives(which):
    # a reduced search runs once: finding a violation, it traces no item
    # outside the first items of the orbits
    rule = make("seqpav", 3)
    assert check_clone_axiom(rule, which, Bounds(n_single=3)).verdict == "violation"
    universe = axioms._universe(rule, 3)
    traced = {item for item in universe.items() if rule.cached(universe.counts(item), 0)}
    assert traced and traced <= set(universe.representatives())


# Each reduced check, called on a fresh rule with a branch cap; what it ends
# with is its witness (None for a pass), or its error's type and message.
CAPPED_CHECKS = {
    "neutrality": check_neutrality,
    "monotonicity": check_committee_monotonicity,
    "consistency": lambda rule, bounds: [
        check_generator_consistency(g, bounds).witness
        for g in (step_generator(rule), derived_generator(rule))
    ],
    "continuity": continuity_search,
    "independence": check_independence_of_losers,
    **{
        which: (lambda which: lambda rule, bounds: check_clone_axiom(rule, which, bounds))(which)
        for which in CLONE_AXIOMS
    },
}


def _raises_at_the_largest_rows(ballot, W):
    """Approval scores, but raising at every committee of size m - 1 = 2."""
    if len(W) == 2:
        raise ZeroDivisionError("no score at two members")
    return Fraction(len(ballot & W))


@pytest.mark.parametrize("check", CAPPED_CHECKS)
def test_an_fn_that_raises_raises_from_the_rows_after_the_cap(check):
    # rows evaluate the fn at every ballot and committee W + c, so a check
    # that traces raises the fn's error, never a verdict; a universe over
    # its cap raises first, before any row is built
    def run(n):
        return CAPPED_CHECKS[check](rule, Bounds(
            n_single=n, n_perm=n, n_pair_each=n, n_continuity=n, n1_max=n, n2_max=n
        ))

    rule = Rule("raising", 3, "zoo", valuation=Valuation("raising", _raises_at_the_largest_rows))
    if check != "proportionality":  # whose universe holds one voter
        with pytest.raises(EnumerationCapError):
            run(30)
        assert rule.gain_rows is None
    with pytest.raises(ZeroDivisionError, match="no score at two members"):
        run(2)


def _capped_bounds(m):
    n = 3 if m == 3 else 2
    return Bounds(n_single=n, n_perm=n, n_pair_each=2, n_continuity=n, n1_max=4, n2_max=4)


def _capped_outcome(check, name, m, cap):
    """What ``check`` ends with on rule ``name`` at m with ``branch_cap = cap``:
    its witness (a list of them for consistency) or continuity report,
    rendered, or its error."""
    rule = make(name, m)
    rule.branch_cap = cap
    try:
        found = check(rule, _capped_bounds(m))
    except (BranchCapError, ValueError) as error:
        return f"{type(error).__name__}: {error}"
    if isinstance(found, axioms.AxiomReport) and found.axiom != "continuity":
        found = found.witness
    return render_report(found)


def _literal_consistency_witnesses(rule, bounds):
    return [
        naive_consistency_witness(g, bounds.n_pair_each)
        for g in (step_generator(rule), derived_generator(rule))
    ]


LITERAL_CHECKS = {
    "monotonicity": lambda rule, bounds: naive_monotonicity_witness(rule, bounds.n_single),
    "consistency": _literal_consistency_witnesses,
    "continuity": naive_continuity_search,
    "independence": lambda rule, bounds: naive_independence_witness(rule, bounds.n_single),
    "proportionality": naive_proportionality_witness,
    **{
        which: (lambda which: lambda rule, bounds: naive_clone_witness(rule, which, bounds.n_single))(which)
        for which in ("rejection", "acceptance", "distrust")
    },
}


@pytest.mark.parametrize("m", [3, 4])
def test_reduced_searches_under_branch_caps_match_the_literal_ones(m):
    # a branch cap makes traces raise: each reduced search raises the error,
    # or finds the witness, that the literal search over every item meets
    # first; neutrality, which orbits do not reduce, and at m = 4 the
    # slow literal searches are left to the pins below
    for cap in range(1, 7):
        for check, literal in LITERAL_CHECKS.items():
            if m == 4 and check in ("consistency", "continuity"):
                continue
            got = _capped_outcome(CAPPED_CHECKS[check], "seqpav", m, cap)
            assert got == _capped_outcome(literal, "seqpav", m, cap), (check, cap)


# sha256 of every outcome of ``_capped_outcome`` for one rule and m, checks
# in ``CAPPED_CHECKS`` order within each cap 1..6, joined by newlines,
# recorded where every orbit-reduced search that found a violation or
# raised was searched again over every item: every gain-row rule at m = 3,
# and three of them at m = 4
CAPPED_SHA256 = {
    ("seqav", 3): "04e02577520a504bce248c0865a29e81b2bd60adaa4a8aa962fb1a1858077b72",
    ("seqpav", 3): "b6f6d9ed498e47ba1af52497595ebd33b57c8b9ba3ca884d8198e39ea674b66f",
    ("seqccav", 3): "b609fc4ad4df1be08b8d29d65bc8c8f6fcf0c49b05932b42caff1a8b44617e05",
    ("seqsav", 3): "cc436ff73c6d2208718400dd94a4ccea5733c21913b5c0016ac5e450b78cfbb7",
    ("av-cc-alternating", 3): "f6b6e36d0eff964c26999018fba9d36c06389dd2c8a43bd2d1ec6498251047fc",
    ("clone-trusting", 3): "9c34a78cbc32235f0d0282d044b0345aabfd1f6a6907d9b9d8bf671313946d8b",
    ("reverse-seqav", 3): "bc7eb93dc32760dd600f4ec5c73737edd297569077d420ff978dbcbe43a8023e",
    ("reverse-seqpav", 3): "92ef0a48b047b55751a207ecc8e45e3be0e551f1c521cc02e61bdeaacef04e97",
    ("reverse-seqccav", 3): "8a090b9fcb24f7da4f96a2ff7801d1308636b7b9d3fd50bc9df475c4797a8263",
    ("seqpav", 4): "a02144a1bd8cfe706c7aa1f2a3510878292f155847057944c40c213fe497db4e",
    ("seqsav", 4): "1eb30fb54976fba9f861ec5292d320385a16c9638758b1d831f0b9dac975eea0",
    ("av-cc-alternating", 4): "01eb1ed8be23953d59a2d9f73a266edfafc8e0699292d35b6e51b5bfe170943c",
}


@pytest.mark.parametrize("name, m", sorted(CAPPED_SHA256))
def test_reduced_searches_under_branch_caps_are_pinned(name, m):
    outcomes = [
        _capped_outcome(check, name, m, cap) for cap in range(1, 7) for check in CAPPED_CHECKS.values()
    ]
    text = "\n".join(outcomes)
    assert hashlib.sha256(text.encode()).hexdigest() == CAPPED_SHA256[name, m]
