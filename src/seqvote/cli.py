"""Command-line front end.

Profiles travel in a small text format::

    # header, then one line per ballot bloc
    m=3
    3: 0 1
    1: 2

Counting tables load from files of ``h(x)=p/q`` lines (or ``h(x,y)=``,
``h(x,y,z)=``); every grid entry must be present, nothing is defaulted.

Reports are JSON in one byte format (:func:`render_report`): two-space
indent with ``","`` and ``": "`` separators; dict keys in the order of their
string form, so ``"10"`` precedes ``"2"``; sets as arrays sorted by each
member's compact JSON text, sets of ints numerically; rationals as ``"p/q"``
strings; candidates as indices; strings ASCII-escaped (``\\uXXXX``); no
timestamps.  Identical inputs give byte-identical output.  The ``compute``
report is written in the same bytes by :func:`render_compute`, straight
from the committee bit masks and integers of the scored trace; the
``axioms`` and ``witness`` reports go through the standard library's
encoder, :func:`render_report`, which converts them to plain JSON values.

Exit codes: 0 all pass/computed, 1 a violation was found (or a witness
reproduced one), 2 usage or parse error, 3 a cap was exceeded, 4 an internal
error (a bug in seqvote, never the input's fault).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from math import gcd

from . import catalog
from .catalog import UnknownRuleError
from .counting import StepCountingTable, StepThieleTable, ThieleTable
from .engine import Rule
from .profiles import CapError, Profile

# A ``compute`` run loads only profiles, counting, engine, catalog and this
# module: the axiom checkers and the witness constructions are imported by
# their commands, and ``traceback`` on the internal-error path.

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    """A command-line argument the command cannot use (bad size, unreadable file)."""


class ProfileParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"{message} at line {line}")


class TableParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Profile files


_HEADER_RE = re.compile(r"^m\s*=\s*(\d+)$")


def parse_profile(text: str) -> Profile:
    """Parse the profile file format; voters get ids 1..n in file order."""
    m = None
    ballots: list[frozenset[int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m is None:
            match = _HEADER_RE.match(line)
            if not match:
                raise ProfileParseError("expected header 'm=<int>'", lineno)
            m = int(match.group(1))
            if m < 1:
                raise ProfileParseError("m must be at least 1", lineno)
            continue
        count_part, sep, cand_part = line.partition(":")
        if not sep:
            raise ProfileParseError("expected '<count>: <candidates>'", lineno)
        try:
            count = int(count_part.strip())
        except ValueError:
            raise ProfileParseError(f"bad count {count_part.strip()!r}", lineno) from None
        if count < 1:
            raise ProfileParseError(f"count must be positive, got {count}", lineno)
        tokens = cand_part.split()
        if not tokens:
            raise ProfileParseError("empty ballot", lineno)
        members: list[int] = []
        for token in tokens:
            try:
                c = int(token)
            except ValueError:
                raise ProfileParseError(f"bad candidate {token!r}", lineno) from None
            if c in members:
                raise ProfileParseError(f"duplicate candidate {c}", lineno)
            if not 0 <= c < m:
                raise ProfileParseError(f"candidate index {c} >= m={m}", lineno)
            members.append(c)
        ballots.extend([frozenset(members)] * count)
    if m is None:
        raise ProfileParseError("missing 'm=<int>' header")
    if not ballots:
        raise ProfileParseError("no ballot lines")
    # every ballot is a non-empty frozenset of distinct candidates in 0..m-1
    return Profile(m, tuple(enumerate(ballots, 1)), checked=True)


def format_profile(profile: Profile) -> str:
    """Canonical text form: merged counts, ballots sorted by size then members."""
    lines = [f"m={profile.m}"]
    for ballot, count in profile.ballot_counts:
        lines.append(f"{count}: " + " ".join(str(c) for c in sorted(ballot)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Counting-table files


_ENTRY_RE = re.compile(
    r"^h\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?(?:,\s*(\d+)\s*)?\)\s*=\s*(-?\d+(?:\s*/\s*\d*[1-9]\d*)?)$"
)


def parse_counting_table(text: str):
    """Parse ``h(...)=p/q`` lines into the matching table type."""
    entries: dict[tuple, Fraction] = {}
    arity = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _ENTRY_RE.match(line)
        if not match:
            raise TableParseError(f"bad table entry at line {lineno}: {line!r}")
        x, y, z, value = match.groups()
        key = tuple(int(g) for g in (x, y, z) if g is not None)
        if arity is None:
            arity = len(key)
        elif len(key) != arity:
            raise TableParseError(f"mixed entry arities at line {lineno}")
        if key in entries:
            raise TableParseError(f"duplicate entry h{key} at line {lineno}")
        entries[key] = Fraction(value.replace(" ", ""))
    if not entries:
        raise TableParseError("no table entries")
    # m is the largest x of h(x), or the largest committee size y otherwise
    m = max(key[0] if arity == 1 else key[1] for key in entries)
    if m < 1:
        raise TableParseError("a table needs at least one candidate (m >= 1)")
    used = set()

    def entry(*key):
        if key not in entries:
            raise TableParseError(f"missing table entry h{key} (grid is never defaulted)")
        used.add(key)
        return entries[key]

    table = (ThieleTable, StepThieleTable, StepCountingTable)[arity - 1].from_function(m, entry)
    extra = [key for key in entries if key not in used]
    if extra:
        raise TableParseError(f"entry h{extra[0]} outside the grid for m={m}")
    return table


#: The rule constructor of each table type :func:`parse_counting_table` returns.
_TABLE_RULES = {
    ThieleTable: catalog.make_seq_thiele,
    StepThieleTable: catalog.make_step_thiele,
    StepCountingTable: catalog.make_step_scoring,
}


def rule_from_table(table, name: str = "table") -> Rule:
    """The sequential rule of a parsed table; an invalid table is a parse error."""
    try:
        return _TABLE_RULES[type(table)](table, name)
    except ValueError as exc:
        raise TableParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# Report rendering


_escape = json.encoder.encode_basestring_ascii


def render_report(data) -> str:
    """The report as JSON text in the byte format of the module docstring."""
    return json.dumps(_jsonable(data), indent=2, sort_keys=True) + "\n"


def _compact(value) -> str:
    """One-line JSON of plain JSON values: the default separators, keys sorted."""
    return json.dumps(value, sort_keys=True)


def _jsonable(obj):
    """``obj`` as plain JSON values: str keys, sets as sorted lists, a
    ``Fraction`` as ``"p/q"``, a :class:`Profile` and a record by their fields."""
    if isinstance(obj, (str, int)) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {
            _compact(_jsonable(k)) if isinstance(k, (tuple, frozenset)) else str(k): _jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, (frozenset, set)):
        if all(isinstance(item, int) for item in obj):
            return sorted(obj)
        return sorted(map(_jsonable, obj), key=_compact)
    if isinstance(obj, Profile):
        votes = [[voter, sorted(ballot)] for voter, ballot in obj.votes]
        return {"m": obj.m, "votes": votes, "text": format_profile(obj)}
    if hasattr(obj, "asdict"):  # a Record: an AxiomReport or a Witness
        return _jsonable(obj.asdict())
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _digest(text: str) -> str:
    import hashlib  # here, so that only the ops that print a digest load it

    return hashlib.sha256(text.encode()).hexdigest()


def candidate_letter(c: int) -> str:
    """Human display name for a candidate index: a, b, ..., z, c26, c27, ..."""
    return chr(ord("a") + c) if c < 26 else f"c{c}"


def _named(trace, names: list[str], sep: str) -> tuple[dict, dict]:
    """``(bits, text)`` by mask U of ``trace``: U's bits in order and its
    names joined by ``sep``, built from U less its top bit."""
    bits, text = {0: ()}, {0: ""}

    def add(U: int) -> None:
        top = U.bit_length() - 1
        rest = U ^ 1 << top
        if rest not in bits:
            add(rest)
        bits[U] = bits[rest] + (1 << top,)
        text[U] = text[rest] + sep + names[top] if rest else names[top]

    for level in trace[1:]:
        for U in level:
            add(U)
    return bits, text


def _cells(scored, memos: list[dict], heads: list[str], tail: str) -> list[str]:
    """``heads[c] + score + tail`` per outside c of a parent's ``(base, gains,
    D)``, the score as ``str(Fraction)`` prints it, once per ``memos[c]``."""
    base, gains, scale = scored
    row = []
    for c, gain in gains.items():
        n, memo = base + gain, memos[c]
        text = memo.get(n)
        if text is None:  # a custom valuation's Fraction n has scale 1
            g = gcd(n.numerator, scale)
            p, q = n.numerator // g, scale // g * n.denominator
            text = memo[n] = heads[c] + (str(p) if q == 1 else f"{p}/{q}") + tail
        row.append(text)
    return row


# a newline and an indent of 2 to 12 spaces: the line starts of a compute report
_I2, _I4, _I6, _I8, _I10, _I12 = ("\n" + " " * n for n in (2, 4, 6, 8, 10, 12))


def render_compute(
    rule_name: str,
    m: int,
    k: int,
    input_digest: str,
    trace,
    scores,
    table_digest: str | None = None,
) -> str:
    """The ``compute`` report as JSON, straight from the masks and integers
    of :meth:`Rule.scored_trace`, in the bytes :func:`render_report` writes
    for the report object (keys ``command``, ``input_digest``, ``k``, ``m``,
    ``rule``, ``steps``, ``table_digest`` with ``--table`` only, ``trace``),
    which is never built.  Each committee's text is made once and laid out
    by one ``str.replace`` per depth, each family once for ``trace[j]`` and
    ``steps[j-1]``; the extensions come from one pass over the next family."""
    bits, text = _named(trace, [str(c) for c in range(m)], ", ")
    heads = [f'{_I12}"{c}": "' for c in range(m)]

    def laid(U: int, nl: str) -> str:  # U as an array indented by nl
        inner = nl + "  "
        return "[" + inner + text[U].replace(", ", "," + inner) + nl + "]" if U else "[]"

    # families in compact-text order: extensions collected in it are sorted
    orders = [sorted(level, key=lambda U: text[U] + "]") for level in trace]
    families = ["[" + _I8 + ("," + _I8).join([laid(U, _I8) for U in order]) + _I6 + "]"
                for order in orders]
    # one flat list of pieces, joined once: no piece is copied into another
    out = [
        "{", _I2, '"command": "compute",', _I2, '"input_digest": ', _escape(input_digest),
        ",", _I2, f'"k": {k},', _I2, f'"m": {m},', _I2, '"rule": ', _escape(rule_name),
        ",", _I2, '"steps": [' if k else '"steps": []',
    ]
    for j in range(1, k + 1):
        parents = sorted(trace[j - 1], key=bits.__getitem__)
        below = {P: [] for P in parents}
        for U in orders[j]:
            extension = laid(U, _I12)
            for bit in bits[U]:
                got = below.get(U ^ bit)
                if got is not None:
                    got.append(extension)
        out += [
            _I4 if j == 1 else "," + _I4, "{", _I6, '"chosen": ', families[j],
            ",", _I6, '"per_parent": [',
        ]
        memos = [{} for _ in range(m)]
        sep = _I8 + "{" + _I10 + '"extensions": '
        for P in parents:
            extensions = below[P]
            out += [sep, "[" + _I12 + ("," + _I12).join(extensions) + _I10 + "]"
                    if extensions else "[]", "," + _I10 + '"parent": ', laid(P, _I10)]
            if scores is not None:
                # cells agree up to their key's digits, and the closing quote
                # sorts before every digit: sorted, they are in key order
                row = sorted(_cells(scores[P], memos, heads, '"'))
                out += ["," + _I10 + '"scores": {', ",".join(row), _I10 + "}"]
            out.append(_I8 + "}")
            sep = "," + _I8 + "{" + _I10 + '"extensions": '
        out += [_I6, "],", _I6, f'"size": {j}', _I4, "}"]
    if k:
        out += [_I2, "]"]
    if table_digest is not None:
        out += [",", _I2, '"table_digest": ', _escape(table_digest)]
    out += [",", _I2, '"trace": [']
    for j, family in enumerate(families):
        out += [
            _I4 if j == 0 else "," + _I4, "{", _I6, '"committees": ', family,
            ",", _I6, f'"size": {j}', _I4, "}",
        ]
    out.append(_I2 + "]\n}\n")
    return "".join(out)


def render_compute_pretty(rule_name: str, m: int, k: int, trace, scores) -> str:
    """Plain-text trace with candidates as letters (indices stay in JSON
    mode), from the masks and integers :func:`render_compute` reads."""
    letters = [candidate_letter(c) for c in range(m)]
    heads = [name + "=" for name in letters]
    bits, text = _named(trace, letters, ",")
    orders = [sorted(level, key=bits.__getitem__) for level in trace]
    lines = [f"{rule_name} on m={m}, k={k}"]
    for j, order in enumerate(orders):
        lines.append(f"  size {j}: " + " ".join(["{" + text[U] + "}" for U in order]))
    if scores is not None:
        for order in orders[:k]:
            memos = [{} for _ in range(m)]
            for P in order:
                row = _cells(scores[P], memos, heads, "")
                lines.append("  extending {" + text[P] + "}: " + ", ".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _read_input(path: str) -> str:
    try:
        with open(path) as file:  # not pathlib, which an op would import for this alone
            return file.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_rule(args, m: int) -> tuple[Rule, str | None]:
    if args.table is None:
        if args.rule == "table":
            raise UsageError("rule 'table' needs --table <file>")
        return catalog.make(args.rule, m), None
    if args.rule != "table":
        raise UsageError(f"--table needs the rule name 'table', got {args.rule!r}")
    table_text = _read_input(args.table)
    table = parse_counting_table(table_text)
    if table.m != m:
        raise TableParseError(f"table is for m={table.m}, input needs m={m}")
    return rule_from_table(table), _digest(table_text)


def _at_least(option: str, value: int | None, low: int) -> None:
    if value is not None and value < low:
        raise UsageError(f"{option} must be at least {low}, got {value}")


def cmd_compute(args) -> int:
    _at_least("--branch-cap", args.branch_cap, 1)
    profile_text = _read_input(args.profile)
    profile = parse_profile(profile_text)
    rule, table_digest = _load_rule(args, profile.m)
    if args.branch_cap is not None:
        rule.branch_cap = args.branch_cap
    k = args.k
    if not 0 <= k <= profile.m:
        raise UsageError(f"committee size {k} outside 0..{profile.m}")
    trace, scores = rule.scored_trace(profile, k)
    if args.pretty:
        text = render_compute_pretty(rule.name, profile.m, k, trace, scores)
    else:
        text = render_compute(
            rule.name, profile.m, k, _digest(profile_text), trace, scores, table_digest
        )
    sys.stdout.write(text)
    return EXIT_OK


def cmd_axioms(args) -> int:
    from .axioms import Bounds, run_suite

    _at_least("--max-voters", args.max_voters, 1)
    _at_least("--max-m", args.max_m, 2)
    _at_least("--j-max", args.j_max, 1)
    _at_least("--branch-cap", args.branch_cap, 1)
    runs = []
    worst = EXIT_OK
    for m in range(2, args.max_m + 1):
        rule = catalog.make(args.rule, m)
        if args.branch_cap is not None:
            rule.branch_cap = args.branch_cap
        n = args.max_voters
        bounds = Bounds(
            n_single=n,
            n_perm=min(n, 3),
            n_pair_each=min(n, 3),
            n_pair_total=min(n, 3),
            n_continuity=min(n, 3),
            j_max=args.j_max,
        )
        reports = run_suite(rule, args.suite, bounds)
        if any(r.verdict == "violation" for r in reports):
            worst = EXIT_VIOLATION
        runs.append({"m": m, "reports": reports})
    report = {
        "command": "axioms",
        "rule": args.rule,
        "suite": args.suite,
        "max_voters": args.max_voters,
        "j_max": args.j_max,
        "runs": runs,
    }
    sys.stdout.write(render_report(report))
    return worst


def cmd_witness(args) -> int:
    from . import witnesses

    _at_least("--m", args.m, 1)
    source = args.table_or_rule
    if source in catalog.THIELE_TABLE_NAMES:
        table = catalog.thiele_table(source, 3 if args.m is None else args.m)
        digest = _digest(
            "\n".join(f"h({x})={v}" for x, v in enumerate(table.values))
        )
    else:
        text = _read_input(source)
        table = parse_counting_table(text)
        digest = _digest(text)
        if args.m is not None and args.m != table.m:
            raise UsageError(f"--m {args.m} differs from the table's m={table.m}")
        if not isinstance(table, ThieleTable):
            raise TableParseError("witness constructions need a one-argument table h(x)")
        try:
            catalog.check_thiele(table)
        except ValueError as exc:
            raise TableParseError(str(exc)) from None
    report = {"command": "witness", "construction": args.construction, "table_digest": digest}
    try:
        witness = witnesses.build_witness(args.construction, table)
    except witnesses.WitnessNotApplicable as exc:
        report.update(verdict="no-witness", reason=str(exc))
        sys.stdout.write(render_report(report))
        return EXIT_OK
    rule = catalog.make_seq_thiele(table, "under-test")
    observed = rule.apply(witness.profile, witness.k)
    report.update(
        verdict="violation-reproduced",
        witness=witness,
        profile_text=format_profile(witness.profile),
        observed=observed,
        matches_expected=observed == witness.expected,
    )
    sys.stdout.write(render_report(report))
    return EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqvote",
        description="Sequential committee voting rules, axiom checks, and witnesses "
        "with exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="run a rule on a profile file")
    p_compute.add_argument("rule", help=f"rule name ({', '.join(catalog.RULE_NAMES)}) or 'table'")
    p_compute.add_argument("profile", help="path to a profile file")
    p_compute.add_argument("k", type=int, help="target committee size")
    p_compute.add_argument("--table", help="path to a counting-table file, for the rule 'table'")
    p_compute.add_argument("--branch-cap", type=int, default=None)
    p_compute.add_argument(
        "--pretty", action="store_true",
        help="plain-text summary with candidates as letters instead of JSON",
    )

    p_axioms = sub.add_parser("axioms", help="run an axiom suite against a rule")
    p_axioms.add_argument("rule")
    p_axioms.add_argument("suite", choices=("proper", "monotone", "clones", "all"))
    p_axioms.add_argument("--max-voters", type=int, default=5)
    p_axioms.add_argument("--max-m", type=int, default=3)
    p_axioms.add_argument("--j-max", type=int, default=16)
    p_axioms.add_argument("--branch-cap", type=int, default=None)

    p_witness = sub.add_parser(
        "witness", help="construct a clone-axiom counterexample for a counting table"
    )
    p_witness.add_argument("construction", choices=catalog.WITNESS_CONSTRUCTIONS)
    p_witness.add_argument(
        "table_or_rule",
        help=f"path to a table file, or one of {', '.join(catalog.THIELE_TABLE_NAMES)}",
    )
    p_witness.add_argument("--m", type=int, help="candidates: 3 by default, a table file's own m")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    commands = {"compute": cmd_compute, "axioms": cmd_axioms, "witness": cmd_witness}
    try:
        return commands[args.command](args)
    except (UsageError, ProfileParseError, TableParseError, UnknownRuleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:  # the boundary: report a bug as one, not as bad input
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
