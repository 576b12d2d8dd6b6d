import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqvote import catalog, cli, witnesses
from seqvote.cli import (
    EXIT_CAP,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    ProfileParseError,
    TableParseError,
    format_profile,
    main,
    parse_counting_table,
    parse_profile,
    render_report,
)
from seqvote.counting import StepCountingTable, StepThieleTable, ThieleTable
from seqvote.engine import extension_scores
from seqvote.oracle import ProfileUniverse
from seqvote.profiles import CapError, Profile, ProfileError

from util import (
    SymmetrizationCapError,
    as_sets,
    compute_report,
    fam,
    naive_compute_pretty,
    naive_render_report,
)

P1_TEXT = "m=3\n3: 0 1\n1: 2\n"


def run_cli(*argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Profile parsing and formatting


def test_parse_profile_example():
    profile = parse_profile(P1_TEXT)
    assert profile.m == 3
    assert profile.ballot_counts == (
        (frozenset({2}), 1),
        (frozenset({0, 1}), 3),
    )
    assert profile.voter_ids == (1, 2, 3, 4)
    assert profile.ballot(1) == {0, 1} and profile.ballot(4) == {2}


def test_parse_profile_comments_and_blanks():
    text = "# leading comment\n\nm=2\n# another\n2: 0\n\n1: 0 1\n"
    profile = parse_profile(text)
    assert profile.n == 3


def test_parse_profile_candidate_out_of_range():
    with pytest.raises(ProfileParseError) as err:
        parse_profile("m=2\n1: 2\n")
    assert "candidate index 2 >= m=2" in str(err.value)
    assert err.value.line == 2


def test_parse_profile_empty_ballot():
    with pytest.raises(ProfileParseError) as err:
        parse_profile("m=3\n1:\n")
    assert "empty ballot" in str(err.value) and err.value.line == 2


def test_parse_profile_other_errors_carry_lines():
    for text, fragment in [
        ("3: 0 1\n", "header"),
        ("m=3\nx: 0\n", "count"),
        ("m=3\n0: 0\n", "positive"),
        ("m=3\n1: 0 0\n", "duplicate"),
        ("m=3\n1: zero\n", "bad candidate"),
        ("m=0\n1: 0\n", "at least 1"),
        ("m=3\n", "no ballot"),
        ("", "header"),
    ]:
        with pytest.raises(ProfileParseError) as err:
            parse_profile(text)
        assert fragment in str(err.value)


def test_format_profile_is_canonical():
    profile = Profile.from_ballots(3, [{2}, {0, 1}, {0, 1}, {0, 1}])
    assert format_profile(profile) == "m=3\n1: 2\n3: 0 1\n"


def test_parse_format_round_trip_on_canonical_text():
    canonical = "m=3\n1: 2\n3: 0 1\n"
    assert format_profile(parse_profile(canonical)) == canonical


def test_parse_of_format_is_identity_on_profiles():
    for profile in ProfileUniverse(3, 2):
        assert parse_profile(format_profile(profile)) == profile.canonical()


# ---------------------------------------------------------------------------
# Counting-table files


def test_parse_thiele_table():
    table = parse_counting_table("# linear\nh(0)=0\nh(1)=1\nh(2)=2\n")
    assert isinstance(table, ThieleTable)
    assert table.values == (0, 1, 2)


def test_parse_table_fraction_values():
    table = parse_counting_table("h(0)=0\nh(1)=1\nh(2)=3/2\n")
    assert str(table(2)) == "3/2"


def test_parse_step_tables():
    lines = [
        f"h({x},{y})={x if y % 2 else min(x, 1)}"
        for x in range(3)
        for y in (1, 2)
    ]
    table = parse_counting_table("\n".join(lines))
    assert isinstance(table, StepThieleTable)
    lines = [
        f"h({x},{y},{z})={x}/{z}"
        for x in range(3)
        for y in (1, 2)
        for z in (1, 2)
    ]
    table = parse_counting_table("\n".join(lines))
    assert isinstance(table, StepCountingTable)


def test_parse_table_missing_entry_never_defaulted():
    with pytest.raises(TableParseError) as err:
        parse_counting_table("h(0)=0\nh(2)=2\n")
    assert "missing" in str(err.value)


def test_parse_tables_put_every_entry_in_its_cell():
    two = parse_counting_table("\n".join(
        f"h({x},{y})={10 * x + y}" for y in (1, 2) for x in range(3)
    ))
    assert all(two(x, y) == 10 * x + y for x in range(3) for y in (1, 2))
    three = parse_counting_table("\n".join(
        f"h({x},{y},{z})={x}/{y + z}" for z in (1, 2) for y in (1, 2) for x in range(3)
    ))
    assert all(
        three(x, y, z) == Fraction(x, y + z) for x in range(3) for y in (1, 2) for z in (1, 2)
    )
    # h(x,y) grids are read y-major: with h(1,1) and h(0,2) absent, h(1,1) is named
    with pytest.raises(TableParseError, match=r"missing table entry h\(1, 1\)"):
        parse_counting_table("h(0,1)=0\nh(2,1)=1\nh(1,2)=1\nh(2,2)=1\n")
    grid = [f"h({x},{y},{z})=0" for x in range(3) for y in (1, 2) for z in (1, 2)]
    with pytest.raises(TableParseError, match=r"entry h\(3, 1, 1\) outside the grid for m=2"):
        parse_counting_table("\n".join(grid + ["h(3,1,1)=0"]))


def test_parse_table_rejects_junk_and_duplicates():
    with pytest.raises(TableParseError):
        parse_counting_table("g(0)=1\n")
    with pytest.raises(TableParseError):
        parse_counting_table("h(0)=0\nh(0)=1\nh(1)=1\n")
    with pytest.raises(TableParseError):
        parse_counting_table("")


# ---------------------------------------------------------------------------
# compute


def test_compute_pav_trace(tmp_path, capsys):
    path = tmp_path / "p1.txt"
    path.write_text(P1_TEXT)
    code, out, _ = run_cli("compute", "seqpav", str(path), "2", capsys=capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert [step["committees"] for step in report["trace"]] == [
        [[]],
        [[0], [1]],
        [[0, 1]],
    ]
    first_scores = report["steps"][0]["per_parent"][0]["scores"]
    assert first_scores == {"0": "3", "1": "3", "2": "1"}
    second = report["steps"][1]["per_parent"][0]["scores"]
    assert second == {"1": "9/2", "2": "4"}


def test_compute_coverage_final(tmp_path, capsys):
    path = tmp_path / "p1.txt"
    path.write_text(P1_TEXT)
    code, out, _ = run_cli("compute", "seqccav", str(path), "2", capsys=capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["trace"][-1]["committees"] == [[0, 2], [1, 2]]


def test_compute_size_zero(tmp_path, capsys):
    path = tmp_path / "p1.txt"
    path.write_text(P1_TEXT)
    code, out, _ = run_cli("compute", "trivial", str(path), "0", capsys=capsys)
    assert code == EXIT_OK
    assert json.loads(out)["trace"] == [{"committees": [[]], "size": 0}]


def test_compute_pretty_uses_letter_names(tmp_path, capsys):
    path = tmp_path / "p1.txt"
    path.write_text(P1_TEXT)
    code, out, _ = run_cli("compute", "seqpav", str(path), "2", "--pretty", capsys=capsys)
    assert code == EXIT_OK
    assert "size 2: {a,b}" in out
    assert "extending {a}: b=9/2, c=4" in out
    assert "0" not in out.replace("m=3", "").replace("size 0", "")  # letters only
    # the machine report keeps indices
    code, out, _ = run_cli("compute", "seqpav", str(path), "2", capsys=capsys)
    assert '"committees"' in out and "{a,b}" not in out


def test_compute_with_table_file(tmp_path, capsys):
    table = tmp_path / "h.cfg"
    table.write_text("h(0)=0\nh(1)=1\nh(2)=3/2\nh(3)=11/6\n")
    path = tmp_path / "p1.txt"
    path.write_text(P1_TEXT)
    code, out, _ = run_cli("compute", "table", str(path), "2", "--table", str(table), capsys=capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["trace"][-1]["committees"] == [[0, 1]]
    assert "table_digest" in report


# Small tie-heavy inputs; the table has h(0) != 0, so every displayed score
# carries the offset n*h(0).
TIE_INPUTS = {
    "singletons-8": "m=8\n" + "".join(f"1: {c}\n" for c in range(8)),
    "cyclic-pairs-8": "m=8\n" + "".join(f"1: {c} {(c + 1) % 8}\n" for c in range(8)),
    "cyclic-pairs-5": "m=5\n" + "".join(f"1: {c} {(c + 1) % 5}\n" for c in range(5)),
    "singletons-12": "m=12\n" + "".join(f"1: {c}\n" for c in range(12)),
    "cyclic-pairs-14": "m=14\n" + "".join(f"1: {c} {(c + 1) % 14}\n" for c in range(14)),
}
SHIFTED_TABLE = "h(0)=1/3\nh(1)=3/2\nh(2)=2\nh(3)=9/4\nh(4)=5/2\nh(5)=5/2\n"

# sha256 of ``seqvote compute <rule> <input> <k>`` as JSON and with
# ``--pretty``, recorded before reports had their own JSON writer (m <= 8)
# and before compute reports were written straight from the trace (m 12 and
# 14, where candidates have two digits: score keys and families are ordered
# by their text, so "10" precedes "2", and parents numerically).
COMPUTE_SHA256 = {
    ("seqav", "singletons-8", "4"): (
        "23b2a26ca2942a3556a9a8be2a8cc395319740b665d6dbfbd71e6485249874d9",
        "3e4c4d805b182268d039a2a5e3755e833765268138249f2fca2c7b18fccac72c",
    ),
    ("seqpav", "cyclic-pairs-8", "4"): (
        "f6e0b9466daf048bfdf30442c183098a5b73baea4bfa8cbf05f9d97ad59a8547",
        "fccaaf8fe0abe0e30b5726634f0838daac94f7cda74d7747e45d8001b7607bc2",
    ),
    ("table", "cyclic-pairs-5", "3"): (
        "a5c2cae2da1480882b7ff20a742416df197c07b0bf45f2ff07c31564c1a230f5",
        "ed36183dac0727890f01056af17823cac6185f4717012429c52cb66660eaad8c",
    ),
    ("seqav", "singletons-12", "3"): (
        "078ee1625343651d35c835692b5a90a1e7e340445872e673e31371d3459a5362",
        "aec5538ec0d492901002d1099f65f0d4aa08043d5aad1d1d9356a0c743043432",
    ),
    ("seqpav", "cyclic-pairs-14", "3"): (
        "f1fdde2cfc29f79cc08516ae90d66fa59cab60aa87bfb0a3681debb33cf736e5",
        "91c63ef3ecd31127a80833a4cfb221cc8a52c49dc0d5131a4aadbdaede809af6",
    ),
}


@pytest.mark.parametrize("rule, inputs, k", sorted(COMPUTE_SHA256))
def test_compute_reports_are_pinned_on_tie_heavy_inputs(rule, inputs, k, tmp_path, capsys):
    path = tmp_path / "profile.txt"
    path.write_text(TIE_INPUTS[inputs])
    table = tmp_path / "h.cfg"
    table.write_text(SHIFTED_TABLE)
    extra = ["--table", str(table)] if rule == "table" else []
    for pretty, digest in zip(([], ["--pretty"]), COMPUTE_SHA256[rule, inputs, k]):
        code, out, _ = run_cli("compute", rule, str(path), k, *extra, *pretty, capsys=capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, pretty


def _tie_heavy(m: int) -> dict[str, str]:
    ballots = {
        "singletons": [[c] for c in range(m)],
        "cyclic-pairs": [[c, (c + 1) % m] for c in range(m)],
        "everyone": [list(range(m))] * 2,
        "two-blocs": [[0, 1]] * 2 + [[c] for c in range(2, m)],
    }
    return {
        name: f"m={m}\n" + "".join(f"1: {' '.join(map(str, b))}\n" for b in rows)
        for name, rows in ballots.items()
    }


@pytest.mark.parametrize("rule_name", catalog.RULE_NAMES)
def test_compute_reports_the_extension_scores_of_every_parent(rule_name, tmp_path, capsys):
    # The scores come from the trace's own steps; extension_scores is the oracle.
    path = tmp_path / "profile.txt"
    for m in (2, 3, 4, 5):
        rule = catalog.make(rule_name, m)
        for name, text in _tie_heavy(m).items():
            path.write_text(text)
            code, out, _ = run_cli("compute", rule_name, str(path), str(m), capsys=capsys)
            assert code == EXIT_OK
            profile = parse_profile(text)
            parents = 0
            for step in json.loads(out)["steps"]:
                for entry in step["per_parent"]:
                    parents += 1
                    if rule.valuation is None:
                        assert "scores" not in entry
                        continue
                    scores = extension_scores(rule.valuation, profile, frozenset(entry["parent"]))
                    expected = {str(c): str(score) for c, score in scores.items()}
                    assert entry["scores"] == expected, (m, name, entry["parent"])
            assert parents == sum(len(level) for level in rule.trace(profile, m)[:m])


_SHIFTED_RULE = catalog.make_seq_thiele(parse_counting_table(SHIFTED_TABLE), "table")


@pytest.mark.parametrize("rule_name", [*catalog.RULE_NAMES, "table"])
@settings(max_examples=2, deadline=None)
@given(m=st.integers(1, 12), data=st.data())
def test_compute_writers_match_the_report_dict(rule_name, m, data):
    # render_compute and render_compute_pretty write (trace, scores) directly;
    # the oracle builds the report dict and renders it the generic way.
    if rule_name == "table":
        rule, table_digest = _SHIFTED_RULE, "d1" * 32
        m = rule.m
    else:
        rule, table_digest = catalog.make(rule_name, m), None
    ballot = st.frozensets(st.integers(0, m - 1), min_size=1)
    profile = Profile.from_ballots(m, data.draw(st.lists(ballot, min_size=1, max_size=5)))
    k = data.draw(st.integers(0, m))
    masks = rule.scored_trace(profile, k)
    digest = hashlib.sha256(format_profile(profile).encode()).hexdigest()
    report = compute_report(rule.name, m, k, digest, *as_sets(masks), table_digest)
    written = cli.render_compute(rule.name, m, k, digest, *masks, table_digest)
    assert written == render_report(report)
    assert cli.render_compute_pretty(rule.name, m, k, *masks) == naive_compute_pretty(report)


@pytest.mark.parametrize(
    "rule_name, m, k, ballots",
    [
        ("seqav", 10, 5, [[c] for c in range(10)]),  # every committee ties
        ("seqpav", 11, 5, [[c, (c + 1) % 11] for c in range(11)]),  # two-digit candidates
        # f(A, 1) = {{0}, {1}, {3}); {1} chooses {3} alone, yet {0, 1} is in
        # f(A, 2), through {0}: a parent lists an extension it did not choose
        ("seqpav", 4, 2, [[2, 3], [0, 3], [0, 1], [1]]),
    ],
)
def test_compute_writers_match_the_report_dict_at_tie_depth(rule_name, m, k, ballots):
    rule = catalog.make(rule_name, m)
    profile = Profile.from_ballots(m, ballots)
    masks = rule.scored_trace(profile, k)
    report = compute_report(rule.name, m, k, "ab" * 32, *as_sets(masks))
    assert cli.render_compute(rule.name, m, k, "ab" * 32, *masks) == render_report(report)
    assert cli.render_compute_pretty(rule.name, m, k, *masks) == naive_compute_pretty(report)
    if m == 4:
        assert rule.step(profile, frozenset({1})) == {3}
        [entry] = [e for e in report["steps"][1]["per_parent"] if e["parent"] == {1}]
        assert entry["extensions"] == fam({0, 1}, {1, 3})


def test_compute_branch_cap_leaves_stdout_empty(tmp_path, capsys):
    # C(8, 4) = 70 committees tie at the last level: a cap of 69 is hit there
    path = tmp_path / "singletons.txt"
    path.write_text("m=8\n" + "".join(f"1: {c}\n" for c in range(8)))
    for pretty in ([], ["--pretty"]):
        code, out, err = run_cli(
            "compute", "seqav", str(path), "4", "--branch-cap", "69", *pretty, capsys=capsys
        )
        assert (code, out) == (EXIT_CAP, "")
        assert "more than 69 tied committees" in err
        code, out, _ = run_cli(
            "compute", "seqav", str(path), "4", "--branch-cap", "70", *pretty, capsys=capsys
        )
        assert code == EXIT_OK and out


def test_compute_table_m_mismatch(tmp_path, capsys):
    table = tmp_path / "h.cfg"
    table.write_text("h(0)=0\nh(1)=1\n")
    path = tmp_path / "p1.txt"
    path.write_text(P1_TEXT)
    code, _, err = run_cli("compute", "table", str(path), "1", "--table", str(table), capsys=capsys)
    assert code == EXIT_USAGE
    assert "table is for m=1" in err


def test_compute_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("m=2\n1: 2\n")
    code, _, err = run_cli("compute", "seqav", str(bad), "1", capsys=capsys)
    assert code == EXIT_USAGE and "candidate index" in err

    ties = tmp_path / "ties.txt"
    ties.write_text("m=3\n1: 0 1 2\n")
    code, _, err = run_cli(
        "compute", "seqav", str(ties), "2", "--branch-cap", "1", capsys=capsys
    )
    assert code == EXIT_CAP and "cap" in err.lower()

    code, _, _ = run_cli("compute", "unknown-rule", str(ties), "1", capsys=capsys)
    assert code == EXIT_USAGE


def test_compute_cap_applies_only_up_to_k(tmp_path, capsys):
    # Size 1 has one winner and size 2 ties three ways: a cap of two must not
    # fire for k=1, whose trace never reaches size 2.
    path = tmp_path / "p.txt"
    path.write_text("m=4\n2: 0\n1: 1\n1: 2\n1: 3\n")
    code, out, _ = run_cli("compute", "seqav", str(path), "1", "--branch-cap", "2", capsys=capsys)
    assert code == EXIT_OK
    assert json.loads(out)["trace"][1]["committees"] == [[0]]
    code, _, err = run_cli("compute", "seqav", str(path), "2", "--branch-cap", "2", capsys=capsys)
    assert code == EXIT_CAP and "cap" in err.lower()


def test_input_errors_exit_2(tmp_path, capsys):
    path = tmp_path / "p1.txt"
    path.write_text(P1_TEXT)
    decreasing = tmp_path / "dec.cfg"
    decreasing.write_text("h(0)=0\nh(1)=1\nh(2)=1/2\nh(3)=1/3\n")
    no_candidates = tmp_path / "zero.cfg"
    no_candidates.write_text("h(0)=0\n")
    missing = str(tmp_path / "missing.txt")
    linear = tmp_path / "lin.cfg"
    linear.write_text("h(0)=0\nh(1)=1\nh(2)=2\nh(3)=3\n")
    zero_denominator = tmp_path / "zero-denominator.cfg"
    zero_denominator.write_text("h(0)=0\nh(1)=1/0\nh(2)=2\nh(3)=3\n")
    axioms = ["axioms", "seqav", "proper"]
    for argv, message in (
        (["compute", "seqav", str(path), "4"], "committee size 4 outside 0..3"),
        (["compute", "seqav", missing, "1"], "cannot read"),
        (["compute", "reverse-borda", str(path), "1"], "unknown Thiele table"),
        (["compute", "table", str(path), "2", "--table", str(decreasing)], "h decreases"),
        (["witness", "T2", str(decreasing)], "h decreases"),
        (["witness", "T2", missing], "cannot read"),
        (["witness", "T2", "seqav", "--m", "0"], "--m must be at least 1"),
        (["compute", "table", str(path), "1", "--table", str(no_candidates)], "m >= 1"),
        (["compute", "seqav", str(path), "1", "--branch-cap", "0"],
         "--branch-cap must be at least 1, got 0"),
        (["compute", "seqav", str(path), "1", "--branch-cap", "-1"],
         "--branch-cap must be at least 1, got -1"),
        (axioms + ["--max-voters", "0"], "--max-voters must be at least 1, got 0"),
        (axioms + ["--max-voters", "-2"], "--max-voters must be at least 1, got -2"),
        (axioms + ["--max-m", "1"], "--max-m must be at least 2, got 1"),
        (axioms + ["--j-max", "0"], "--j-max must be at least 1, got 0"),
        (axioms + ["--branch-cap", "0"], "--branch-cap must be at least 1, got 0"),
        (["witness", "T2", str(linear), "--m", "0"], "--m must be at least 1, got 0"),
        (["witness", "T2", str(linear), "--m", "7"], "--m 7 differs from the table's m=3"),
        (["compute", "seqav", str(path), "1", "--table", str(linear)],
         "--table needs the rule name 'table', got 'seqav'"),
        (["compute", "table", str(path), "1"], "rule 'table' needs --table"),
        (["compute", "table", str(path), "1", "--table", str(zero_denominator)],
         "bad table entry at line 2: 'h(1)=1/0'"),
        (["witness", "T2", str(zero_denominator)], "bad table entry at line 2: 'h(1)=1/0'"),
    ):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == EXIT_USAGE and out == "", argv
        assert err.startswith("error: ") and message in err, argv


def test_a_witness_over_the_voter_cap_exits_3_before_building(tmp_path, capsys):
    # The first deviation is 1/10^9, so T2 needs 10^9 + 4 voters.
    table = tmp_path / "tiny-deviation.cfg"
    table.write_text("h(0)=0\nh(1)=1\nh(2)=1000000001/1000000000\nh(3)=3\n")
    started = time.perf_counter()
    code, out, err = run_cli("witness", "T2", str(table), capsys=capsys)
    assert time.perf_counter() - started < 1
    assert code == EXIT_CAP and out == ""
    assert err == f"cap exceeded: T2 needs 1000000004 voters, cap is {witnesses.WITNESS_VOTER_CAP}\n"


def test_every_cap_error_is_a_cap_error():
    # main catches CapError, so none of the modules that raise one is imported
    # for its except clause; each keeps its old base too.
    from seqvote.engine import BranchCapError
    from seqvote.oracle import EnumerationCapError

    for error, base in (
        (BranchCapError, RuntimeError),
        (EnumerationCapError, RuntimeError),
        (SymmetrizationCapError, ProfileError),
    ):
        assert issubclass(error, CapError) and issubclass(error, base)


def test_internal_errors_are_not_usage_errors(tmp_path, capsys, monkeypatch):
    def unverified(*args):
        raise witnesses.WitnessVerificationError("T2: replay disagrees")

    monkeypatch.setattr(witnesses, "build_witness", unverified)
    code, out, err = run_cli("witness", "T2", "seqav", capsys=capsys)
    assert code == EXIT_INTERNAL and out == ""
    assert "internal error: WitnessVerificationError: T2: replay disagrees" in err

    def broken_lookup(name, m):
        raise KeyError("internal table slot")

    monkeypatch.setattr(catalog, "make", broken_lookup)
    path = tmp_path / "p1.txt"
    path.write_text(P1_TEXT)
    code, _, err = run_cli("compute", "seqav", str(path), "1", capsys=capsys)
    assert code == EXIT_INTERNAL and "internal error: KeyError" in err


def test_profile_errors_past_the_parser_are_not_usage_errors(tmp_path, capsys, monkeypatch):
    # parse_profile reports bad input as ProfileParseError; a ProfileError
    # raised after it is seqvote's own fault, and a symmetrization cap is a cap.
    path = tmp_path / "p1.txt"
    path.write_text(P1_TEXT)
    for error, code, message in (
        (ProfileError("misused algebra"), EXIT_INTERNAL, "internal error: ProfileError"),
        (SymmetrizationCapError("too many voters"), EXIT_CAP, "cap exceeded: too many"),
    ):
        def broken_parse(text, error=error):
            raise error

        monkeypatch.setattr(cli, "parse_profile", broken_parse)
        got, out, err = run_cli("compute", "seqav", str(path), "1", capsys=capsys)
        assert got == code and out == "" and message in err


# ---------------------------------------------------------------------------
# axioms


def test_axioms_command_clones_for_pav(tmp_path, capsys):
    code, out, _ = run_cli(
        "axioms", "seqpav", "clones", "--max-voters", "4", "--max-m", "3", capsys=capsys
    )
    assert code == EXIT_VIOLATION
    report = json.loads(out)
    at_three = {r["axiom"]: r["verdict"] for run in report["runs"] if run["m"] == 3 for r in run["reports"]}
    assert at_three["clone-rejection"] == "violation"
    assert at_three["clone-acceptance"] == "violation"
    assert at_three["distrust"] == "pass-exhaustive"
    assert at_three["clone-proportionality"] == "pass-exhaustive"


def test_axioms_command_all_for_approval(capsys):
    # everything passes except the two clone axioms that characterize other
    # rules
    code, out, _ = run_cli(
        "axioms", "seqav", "all", "--max-voters", "3", "--max-m", "3", capsys=capsys
    )
    assert code == EXIT_VIOLATION
    report = json.loads(out)
    at_three = {
        r["axiom"]: r["verdict"]
        for run in report["runs"]
        if run["m"] == 3
        for r in run["reports"]
    }
    failing = {axiom for axiom, verdict in at_three.items() if verdict == "violation"}
    assert failing == {"clone-rejection", "clone-proportionality"}
    assert at_three["independence-of-losers"] == "pass-exhaustive"
    assert at_three["committee-separability"] == "pass-exhaustive"
    assert at_three["information-basis"] == "pass-exhaustive"
    assert at_three["proper"] == "pass"


def test_axioms_command_proper_for_trivial(capsys):
    code, out, _ = run_cli(
        "axioms", "trivial", "proper", "--max-voters", "3", "--max-m", "3", capsys=capsys
    )
    assert code == EXIT_OK
    report = json.loads(out)
    verdicts = {r["axiom"]: r["verdict"] for run in report["runs"] for r in run["reports"]}
    assert verdicts["non-imposition"] == "inconclusive"
    assert verdicts["anonymity"] == "pass-exhaustive"


def test_axioms_command_handles_id_sensitive_rules(capsys):
    # raw ballot-to-id assignments are enumerated for the id-weighted rule
    code, out, _ = run_cli(
        "axioms", "voter1-doubled-seqav", "monotone", "--max-voters", "2",
        "--max-m", "3", capsys=capsys,
    )
    assert code == EXIT_OK
    report = json.loads(out)
    for run in report["runs"]:
        for r in run["reports"]:
            assert r["verdict"] == "pass-exhaustive"


def test_axioms_command_exposes_derived_generator_gap(capsys):
    # the reversal's own step is consistent, the extracted generator is not;
    # the suite reports both, labeled by subject
    code, out, _ = run_cli(
        "axioms", "reverse-seqccav", "monotone", "--max-voters", "2",
        "--max-m", "3", capsys=capsys,
    )
    assert code == EXIT_VIOLATION
    report = json.loads(out)
    rows = {
        (run["m"], r["subject"]): r["verdict"]
        for run in report["runs"]
        for r in run["reports"]
        if r["axiom"] == "generator-consistency"
    }
    assert rows[(3, "step(reverse-seqccav)")] == "pass-exhaustive"
    assert rows[(3, "derived(reverse-seqccav)")] == "violation"


# sha256 of ``seqvote axioms <rule> all --max-voters 2`` (m 2..3), recorded
# before the checkers moved to count vectors; every rule exits 1.
AXIOMS_ALL_N2_SHA256 = {
    "seqav": "0c877a60ed05f3749d1a253725cdcbcf60255223b29c98caef05bf5ea35d5135",
    "seqpav": "468995366bbf0da6779a3b434bf2a3015964a518263d55198531bef4b4dc8427",
    "seqccav": "f7076b3fb63cdab8974ae1992cc2eb79d0c7225fe596e29a69647be170febe23",
    "seqsav": "aaf1dab6a8a113aef9d299926f9f95caa76ec514eadffb800409d7fc5828796e",
    "av-cc-alternating": "b97567d0af815e6867c3c9f84c8505fa3fc8c5ab71b0cde23c863aa549637121",
    "voter1-doubled-seqav": "1b36c2e6a8572bbbad99b7205aea86e083530c8318e9e558f8422a3aed480e0c",
    "candidate-a-doubled-seqav": "5dd0482fbc42b08c72ce9d0113dd4f492199249c9d2698f137ff3593d1a4f1a8",
    "trivial": "8706f6fefc7d974c523d797424889049456642a79c2338b73c6b5950ee2eb65e",
    "cc-tiebreak-seqav": "912feab1ea6a097426e001944918c96d68c2badae92285b0f68eeff0b1dcac87",
    "clone-trusting": "7ca6bbdb367bc99d842d01fbeea0355aef3806888b1acdc0fe09ab4cbc39c419",
    "optimizing-av": "ed42e027805fc8394495a55877d98ef3fae0e45f755c3f2279a21154355e9cff",
    "optimizing-pav": "65a57dbb02b8b14f29a8d53da4d9d1df0aa483084d5a5e73ccfa114f062382cb",
    "optimizing-ccav": "1f195955414f94c2cb54cfcfb17978c96bd38cf10efb5079c3c5bdb2859a1746",
    "reverse-seqav": "57153b003badc230b614354b68530e533e2b63cf4fe1458e0fcd1f87fbd12937",
    "reverse-seqpav": "d6148054400a1b79535071d9c9eeca7289a2cb21808d633dd98df59463e13a72",
    "reverse-seqccav": "e58a2d6039369a8253e3622e748fa13eeae23b702e2ba25ac8c9f584a89983d0",
}


def test_axioms_all_reports_are_pinned_for_every_catalog_rule(capsys):
    assert sorted(AXIOMS_ALL_N2_SHA256) == sorted(catalog.RULE_NAMES)
    for name, digest in AXIOMS_ALL_N2_SHA256.items():
        code, out, _ = run_cli("axioms", name, "all", "--max-voters", "2", capsys=capsys)
        assert code == EXIT_VIOLATION, name
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


@pytest.mark.parametrize(
    "argv",
    [
        # m=2 passes; at m=3 the anonymous universe of non-imposition holds
        # C(47, 7) - 1 profiles
        ("axioms", "seqav", "proper", "--max-voters", "40"),
        # the ordered universe of an id-sensitive rule: 3 + 9 + ... + 3^13
        # ballot sequences already at m=2
        ("axioms", "voter1-doubled-seqav", "all", "--max-voters", "13"),
    ],
)
def test_axioms_over_the_universe_cap_exits_3(argv, capsys):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == EXIT_CAP
    assert out == ""
    assert "cap exceeded" in err and "cap is 1000000" in err


# ---------------------------------------------------------------------------
# witness


def test_witness_command_t4_approval(capsys):
    code, out, _ = run_cli("witness", "T4", "seqav", capsys=capsys)
    assert code == EXIT_VIOLATION
    report = json.loads(out)
    assert report["verdict"] == "violation-reproduced"
    assert report["matches_expected"] is True
    assert report["profile_text"] == "m=3\n3: 2\n4: 0 1\n"
    assert report["observed"] == [[0, 1]]


def test_witness_command_no_witness(capsys):
    code, out, _ = run_cli("witness", "T2", "seqccav", capsys=capsys)
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "no-witness"


def test_witness_t4_on_the_proportional_table_is_linear_in_m(capsys):
    # the table and the harmonic target are running sums; with one
    # harmonic(x) call per x this took 16-24 s on a 2-vCPU VM
    start = time.perf_counter()
    code, out, _ = run_cli("witness", "T4", "seqpav", "--m", "2000", capsys=capsys)
    assert time.perf_counter() - start < 2
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "no-witness"


def test_witness_command_wider_candidate_set(capsys):
    code, out, _ = run_cli("witness", "T2", "seqav", "--m", "4", capsys=capsys)
    assert code == EXIT_VIOLATION
    report = json.loads(out)
    assert report["witness"]["profile"]["m"] == 4
    assert report["observed"] == [[0, 1]]


def test_witness_command_t3_acceptance_pav(capsys):
    code, out, _ = run_cli("witness", "T3-acceptance", "seqpav", capsys=capsys)
    assert code == EXIT_VIOLATION
    report = json.loads(out)
    assert report["profile_text"] == "m=3\n2: 2\n3: 0 1\n"
    assert report["observed"] == [[0, 2], [1, 2]]


def test_witness_command_from_table_file(tmp_path, capsys):
    table = tmp_path / "h.cfg"
    table.write_text("h(0)=0\nh(1)=1\nh(2)=1\nh(3)=1\n")
    code, out, _ = run_cli("witness", "T4", str(table), capsys=capsys)
    assert code == EXIT_VIOLATION
    assert json.loads(out)["witness"]["params"]["n1"] == 5


def test_witness_command_rejects_step_tables(tmp_path, capsys):
    table = tmp_path / "h.cfg"
    lines = [f"h({x},{y},{z})={x}" for x in range(3) for y in (1, 2) for z in (1, 2)]
    table.write_text("\n".join(lines))
    code, _, err = run_cli("witness", "T2", str(table), capsys=capsys)
    assert code == EXIT_USAGE and "one-argument" in err


def test_invalid_thiele_tables_are_refused_with_one_message(tmp_path, capsys):
    # cmd_witness (exit 2) and the witness builders (ValueError) refuse an
    # invalid h(x) file with the catalog's message, byte for byte.
    for values, why in (
        ("0 1 1/2 1/3", "h decreases at x=2"),
        ("0 0 0", "h(1) > h(0) fails"),
    ):
        table = tmp_path / "h.cfg"
        table.write_text("".join(f"h({x})={v}\n" for x, v in enumerate(values.split())))
        message = f"invalid Thiele counting function: {why}"
        code, out, err = run_cli("witness", "T2", str(table), capsys=capsys)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")
        for construction in witnesses.CONSTRUCTIONS:
            with pytest.raises(ValueError) as refused:
                witnesses.build_witness(construction, parse_counting_table(table.read_text()))
            assert str(refused.value) == message


# (exit code, sha256) of ``seqvote witness <construction> <table> --m 4``,
# recorded before reports had their own JSON writer.
WITNESS_M4_SHA256 = {
    ("T2", "seqpav"): (1, "05f68a1154d1d7a771297d0366696f8e5c2504ef8c286f7695d518589000ff1b"),
    ("T2", "seqav"): (1, "2a4351758c67853f35d1111adf2004d495891150b051f3033cf7677a86498edb"),
    ("T3-distrust", "seqpav"): (0, "173d12f1ce22907f7d6f553aca62b66e5ea7f38cf25ecaf5d466d3f2f7aad2fb"),
    ("T3-distrust", "seqav"): (0, "e03daa574fa68114c8e45fabd4d2e1c01eedc5a5d4fe6f96746705d6e48fa9a6"),
    ("T3-acceptance", "seqpav"): (1, "d3b55b6d55005bb788c240ecafffd2f51eef4f068b9867187f6e741cbb2942c1"),
    ("T3-acceptance", "seqav"): (0, "afe8301fb8c907084023c7a03cb7f91f01dd3a8eb2bb39e3fe5e2b403a5317b5"),
    ("T4", "seqpav"): (0, "a1356d8061c98ba7b1293132bc55b52390a431ad039de55ba315c88bce5fa769"),
    ("T4", "seqav"): (1, "8f8d8b3f7bb1efbdaa9014194168c4898b26492df8b10b91f8ba0eb164555e3b"),
}


def test_witness_reports_are_pinned_at_four_candidates(capsys):
    assert {c for c, _ in WITNESS_M4_SHA256} == set(witnesses.CONSTRUCTIONS)
    for (construction, table), (exit_code, digest) in WITNESS_M4_SHA256.items():
        code, out, _ = run_cli("witness", construction, table, "--m", "4", capsys=capsys)
        assert code == exit_code, (construction, table)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (construction, table)


# ---------------------------------------------------------------------------
# report determinism


def test_reports_are_byte_identical_across_runs(tmp_path):
    path = tmp_path / "p1.txt"
    path.write_text(P1_TEXT)
    command = [
        sys.executable, "-m", "seqvote.cli", "compute", "seqpav", str(path), "3",
    ]
    first = subprocess.run(command, capture_output=True)
    second = subprocess.run(command, capture_output=True)
    assert first.stdout == second.stdout
    assert first.stdout


def test_render_report_handles_report_structures():
    rendered = render_report(
        {
            "family": fam({0, 1}, {2}),
            "score": Fraction(3, 2),
            "profile": Profile.from_ballots(2, [{0}]),
            "pair": (1, frozenset({0})),
        }
    )
    assert rendered.endswith("\n")
    data = json.loads(rendered)
    assert data["family"] == [[0, 1], [2]]
    assert data["score"] == "3/2"
    assert data["profile"]["votes"] == [[1, [0]]]


_texts = st.text(max_size=6) | st.text(
    alphabet=st.sampled_from('"\\/\n\t\x00\x1f\x7f aZ\u00e9\u2603\U0001d11e'), max_size=6
)
_fractions = st.fractions(min_value=-7, max_value=7, max_denominator=12)
_committees = st.frozensets(st.integers(0, 12), max_size=4)
_families = st.frozensets(_committees, max_size=5)
_hashables = st.none() | st.booleans() | st.integers(-20, 20) | _fractions | _texts
_leaves = (
    _hashables
    | _committees
    | _families
    | _families.map(lambda family: family | {frozenset()})
    | st.frozensets(_hashables, max_size=4)
    | st.frozensets(st.tuples(st.integers(0, 12), _committees), max_size=3)
    | st.lists(st.frozensets(st.integers(0, 2), min_size=1), min_size=1, max_size=3).map(
        lambda ballots: Profile.from_ballots(3, ballots)
    )
)
_keys = (
    _texts
    | st.integers(-20, 20)
    | _fractions
    | st.tuples(st.integers(0, 12), _committees)
    | _committees
)
_reports = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=80, deadline=None)
@given(data=_reports)
def test_render_report_matches_the_stdlib_encoder(data):
    assert render_report(data) == naive_render_report(data)


def test_usage_errors_exit_2(capsys):
    assert main(["compute"]) == EXIT_USAGE
    assert main(["witness", "T7", "seqav"]) == EXIT_USAGE
