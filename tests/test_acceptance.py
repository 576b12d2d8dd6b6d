"""Acceptance suite.

Each test implements one exit criterion end to end and prints a one-line
pass marker; every comparison is exact (rational arithmetic, tolerance
zero).  Expected wall-clock stays well inside the stated budgets on a
laptop-class machine.

Run just this file with ``pytest tests/test_acceptance.py -v -s``.
"""

import subprocess
import sys

from seqvote import catalog, witnesses
from seqvote.axioms import (
    Bounds,
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
)
from seqvote.catalog import continuity_gap_instance, make, step_counting_table, thiele_table
from seqvote.cli import format_profile, parse_profile
from seqvote.counting import (
    step_scoring_valuation,
    thiele_valuation,
    weight_from_counting,
)
from seqvote.engine import (
    derived_generator,
    generator_step,
    step_generator,
    weighted_approval_step,
)
from seqvote.oracle import ProfileUniverse, all_committees, brute_force_optimal

MAIN_RULES = ("seqav", "seqpav", "seqccav", "seqsav", "av-cc-alternating")
THIELE_RULES = ("seqav", "seqpav", "seqccav")


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def test_criterion_1_sequential_approval_matches_brute_force():
    """Sequential approval equals its optimizing variant on every instance
    with three candidates and up to three voters, all sizes."""
    rule = make("seqav", 3)
    valuation = thiele_valuation(thiele_table("seqav", 3), "av")
    checked = 0
    for profile in ProfileUniverse(3, 3):
        for k in range(4):
            assert rule.apply(profile, k) == brute_force_optimal(valuation, profile, k), (
                profile,
                k,
            )
            checked += 1
    report(f"criterion 1 PASS: seqav == brute-force approval on {checked} instances")


def test_criterion_2_sequential_rules_are_proper_and_consistent():
    """All five named sequential rules pass anonymity, neutrality, and
    committee monotonicity exhaustively; their generator steps are consistent
    over all disjoint pairs with up to two voters per side (three candidates)."""
    bounds = Bounds(n_single=5, n_perm=3, n_pair_each=2)
    for name in MAIN_RULES:
        rule = make(name, 3)
        for check in (check_anonymity, check_neutrality, check_committee_monotonicity):
            outcome = check(rule, bounds)
            assert outcome.verdict == "pass-exhaustive", (name, outcome)
        consistency = check_generator_consistency(step_generator(rule), bounds)
        assert consistency.verdict == "pass-exhaustive", (name, consistency)
    report(f"criterion 2 PASS: {', '.join(MAIN_RULES)} proper + consistent at m=3")


def test_criterion_3_weighted_approval_bridge():
    """For every catalog counting table and every profile/committee pair with
    m <= 4 and n <= 3, one generator step equals one weighted approval step
    under the forward-difference weights."""
    pairs = 0
    for m in (2, 3, 4):
        committees = all_committees(m, m - 1)
        profiles = list(ProfileUniverse(m, 3))
        for name in MAIN_RULES:
            table = step_counting_table(name, m)
            valuation = step_scoring_valuation(table, name)
            weights = weight_from_counting(table)
            for profile in profiles:
                for committee in committees:
                    assert generator_step(
                        valuation, profile, committee
                    ) == weighted_approval_step(weights[len(committee)], profile, committee), (
                        name,
                        m,
                        profile,
                        committee,
                    )
                    pairs += 1
    report(f"criterion 3 PASS: counting/weight bridge exact on {pairs} steps")


def test_criterion_4_loser_independence_and_separability_split_the_classes():
    """seqSAV fails independence of losers and the alternating rule fails
    committee separability within m <= 4, n <= 4, while the three sequential
    Thiele rules pass both exhaustively at those bounds."""
    sav_hit = None
    for m in (3, 4):
        outcome = check_independence_of_losers(make("seqsav", m), Bounds(n_single=4))
        if outcome.verdict == "violation":
            sav_hit = (m, outcome)
            break
    assert sav_hit is not None
    alternating_hit = None
    for m in (3, 4):
        outcome = check_committee_separability(
            make("av-cc-alternating", m), Bounds(n_pair_total=4)
        )
        if outcome.verdict == "violation":
            alternating_hit = (m, outcome)
            break
    assert alternating_hit is not None
    for name in THIELE_RULES:
        for m in (3, 4):
            assert (
                check_independence_of_losers(make(name, m), Bounds(n_single=4)).verdict
                == "pass-exhaustive"
            ), (name, m)
            assert (
                check_committee_separability(make(name, m), Bounds(n_pair_total=4)).verdict
                == "pass-exhaustive"
            ), (name, m)
    report(
        "criterion 4 PASS: seqsav loser-dependence at m="
        f"{sav_hit[0]}, alternating separability failure at m={alternating_hit[0]}, "
        "Thiele rules clean at m<=4 n<=4"
    )


def test_criterion_5_clone_witnesses_and_positive_directions():
    """The four witness constructions replay their violations exactly, and
    the characterized rules pass the corresponding checks exhaustively."""
    cases = [
        ("T2", "seqav"),
        ("T3-distrust", "clone-trusting"),
        ("T3-acceptance", "seqpav"),
        ("T3-acceptance", "seqccav"),
        ("T4", "seqav"),
        ("T4", "seqccav"),
    ]
    for construction, table_name in cases:
        table = thiele_table(table_name, 3)
        witness = witnesses.build_witness(construction, table)
        rule = catalog.make_seq_thiele(table, table_name)
        trace = rule.trace(witness.profile, witness.k)
        for level, family in witness.expected_trace:
            assert trace[level] == family, (construction, table_name, level)
        assert witnesses.predicate_holds(witness, rule), (construction, table_name)

    bounds = Bounds(n_single=5, n1_max=8, n2_max=8, k_max_proportional=3)
    positives = [
        ("seqccav", "rejection"),
        ("seqav", "acceptance"),
        ("seqav", "distrust"),
        ("seqpav", "proportionality"),
    ]
    for name, axiom in positives:
        outcome = check_clone_axiom(make(name, 3), axiom, bounds)
        assert outcome.verdict == "pass-exhaustive", (name, axiom, outcome)
    report(
        "criterion 5 PASS: 6 witnesses replayed exactly; "
        "positive clone directions exhaustive at m=3 n<=5 (blocs up to 8+8)"
    )


def test_criterion_6_zoo_rules_fail_exactly_their_axiom():
    """Every zoo rule produces its advertised verdict while passing the
    remaining bounded universal checks."""
    bounds = Bounds(n_single=4, n_perm=3, n_pair_each=2)

    def universal_checks(rule, generator):
        return {
            "anonymity": check_anonymity(rule, bounds),
            "neutrality": check_neutrality(rule, bounds),
            "committee-monotonicity": check_committee_monotonicity(rule, bounds),
            "generator-consistency": check_generator_consistency(generator, bounds),
        }

    matrix = {}

    rule = make("voter1-doubled-seqav", 3)
    checks = universal_checks(rule, step_generator(rule))
    assert checks.pop("anonymity").verdict == "violation"
    matrix["voter1-doubled-seqav"] = checks

    rule = make("candidate-a-doubled-seqav", 3)
    checks = universal_checks(rule, step_generator(rule))
    assert checks.pop("neutrality").verdict == "violation"
    matrix["candidate-a-doubled-seqav"] = checks

    rule = make("trivial", 3)
    checks = universal_checks(rule, derived_generator(rule))
    imposition = check_non_imposition(rule, bounds)
    assert imposition.verdict == "inconclusive" and "structural" in imposition.note
    matrix["trivial"] = checks

    rule = make("cc-tiebreak-seqav", 3)
    checks = universal_checks(rule, step_generator(rule))
    base, extra, k = continuity_gap_instance(3)
    continuity = check_continuity(rule, base, extra, k, j_max=Bounds().j_max)
    assert continuity.verdict == "inconclusive"
    matrix["cc-tiebreak-seqav"] = checks

    rule = make("reverse-seqccav", 3)
    checks = universal_checks(rule, derived_generator(rule))
    assert checks.pop("generator-consistency").verdict == "violation"
    matrix["reverse-seqccav"] = checks

    for name, checks in matrix.items():
        for axiom, outcome in checks.items():
            assert outcome.verdict == "pass-exhaustive", (name, axiom, outcome)
    report("criterion 6 PASS: independence matrix reproduced for all five zoo rules")


def test_criterion_7_equal_statistics_give_equal_choices():
    """For every catalog counting table, profiles with four candidates and up
    to two voters that share all n-statistics get identical generator
    choices, for every committee with at most two members."""
    bounds = Bounds(n_stats=2, w_max_stats=2)
    for name in MAIN_RULES:
        table = step_counting_table(name, 4)
        valuation = step_scoring_valuation(table, name)
        outcome = check_information_basis(valuation, bounds, m=4)
        assert outcome.verdict == "pass-exhaustive", (name, outcome)
    report("criterion 7 PASS: n-statistics determine every catalog generator at m=4")


def test_criterion_8_infrastructure_exactness(tmp_path):
    """Profile round-trips, byte-identical CLI reports, and the closed-form
    profile counts."""
    # parse/format round trip both ways
    for profile in ProfileUniverse(3, 2):
        assert parse_profile(format_profile(profile)) == profile.canonical()
    canonical = "m=3\n1: 2\n3: 0 1\n"
    assert format_profile(parse_profile(canonical)) == canonical

    # deterministic reports, byte for byte
    path = tmp_path / "p1.txt"
    path.write_text(canonical)
    for command in (
        [sys.executable, "-m", "seqvote.cli", "compute", "seqpav", str(path), "3"],
        [sys.executable, "-m", "seqvote.cli", "witness", "T4", "seqav"],
    ):
        first = subprocess.run(command, capture_output=True)
        second = subprocess.run(command, capture_output=True)
        assert first.stdout and first.stdout == second.stdout

    # enumeration counts match the closed form
    import math

    for m in (2, 3):
        for n in (1, 2, 3, 4):
            universe = ProfileUniverse(m, n)
            per_count = {}
            for profile in universe:
                per_count[profile.n] = per_count.get(profile.n, 0) + 1
            for voters in range(1, n + 1):
                expected = math.comb(2**m - 1 + voters - 1, voters)
                assert per_count[voters] == expected == universe.count(voters)
    report("criterion 8 PASS: round-trips, deterministic reports, exact counts")
