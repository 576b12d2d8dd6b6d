"""Independent brute-force oracles for the tests.

These recompute expected values with the most literal code possible and no
engine machinery, so the tests check the library against a second path
rather than against itself.
"""

from fractions import Fraction
import itertools
import json
import math

from seqvote.axioms import EXISTENTIAL_NOTE, AxiomReport
from seqvote.cli import candidate_letter, format_profile
from seqvote.engine import step_trace
from seqvote.oracle import ProfileUniverse, all_committees
from seqvote.predicates import clone_pairs, clone_violation, proportionality_violation
from seqvote.profiles import (
    CapError,
    Profile,
    ProfileError,
    apply_candidate_permutation,
    ballot_sort_key,
)
from seqvote.witnesses import Witness


def fam(*committees):
    """Readable committee-family literal: fam({0,1}, {0,2})."""
    return frozenset(frozenset(c) for c in committees)


def naive_score(value_of_ballot, ballots, committee):
    committee = frozenset(committee)
    return sum(value_of_ballot(frozenset(b), committee) for b in ballots)


def thiele_value(values):
    """Literal Thiele valuation from a plain list of numbers."""
    return lambda ballot, committee: Fraction(values[len(ballot & committee)])


def sav_value(ballot, committee):
    return Fraction(len(ballot & committee), len(ballot))


def naive_best_extensions(value_of_ballot, m, ballots, committee):
    committee = frozenset(committee)
    outside = [c for c in range(m) if c not in committee]
    scores = {c: naive_score(value_of_ballot, ballots, committee | {c}) for c in outside}
    best = max(scores.values())
    return frozenset(c for c in outside if scores[c] == best)


def naive_sequential(value_of_ballot, m, ballots, k):
    """Literal transcription of the tie-branching recursion."""
    families = [frozenset({frozenset()})]
    for _ in range(k):
        nxt = set()
        for committee in families[-1]:
            nxt.update(
                committee | {c}
                for c in naive_best_extensions(value_of_ballot, m, ballots, committee)
            )
        families.append(frozenset(nxt))
    return families


def naive_optimal(value_of_ballot, m, ballots, k):
    """Argmax over every size-k committee, scored literally."""
    best = None
    winners = []
    for members in itertools.combinations(range(m), k):
        committee = frozenset(members)
        score = naive_score(value_of_ballot, ballots, committee)
        if best is None or score > best:
            best, winners = score, [committee]
        elif score == best:
            winners.append(committee)
    return frozenset(winners)


def av_top_k(m, ballots, k):
    """Committees consisting of k approval maximizers, ties expanded.

    A committee is a valid top-k selection iff every non-member has an
    approval count less than or equal to every member's, with strictly
    smaller count for any swap that would change the committee.
    """
    counts = {c: sum(1 for b in ballots if c in b) for c in range(m)}
    out = []
    for members in itertools.combinations(range(m), k):
        inside = set(members)
        if not inside:
            out.append(frozenset())
            continue
        lowest_in = min(counts[c] for c in inside)
        highest_out = max((counts[c] for c in range(m) if c not in inside), default=None)
        if highest_out is None or lowest_in >= highest_out:
            out.append(frozenset(members))
    return frozenset(out)


def all_ballots_naive(m):
    out = []
    for size in range(1, m + 1):
        out.extend(frozenset(c) for c in itertools.combinations(range(m), size))
    return out


def naive_jsonable(obj):
    """Report structures as plain JSON values: the two-pass renderer's first pass.

    Rationals become ``p/q`` strings, sets become arrays sorted by their
    compact JSON text (all-int sets numerically), and dict keys become their
    string form.
    """
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Profile):
        return {
            "m": obj.m,
            "votes": [[voter, sorted(ballot)] for voter, ballot in obj.votes],
            "text": format_profile(obj),
        }
    if isinstance(obj, AxiomReport):
        return naive_jsonable(
            {
                "axiom": obj.axiom,
                "subject": obj.subject,
                "verdict": obj.verdict,
                "bounds": obj.bounds,
                "witness": obj.witness,
                "note": obj.note,
            }
        )
    if isinstance(obj, Witness):
        return naive_jsonable(
            {
                "construction": obj.construction,
                "axiom": obj.axiom,
                "profile": obj.profile,
                "k": obj.k,
                "expected": obj.expected,
                "expected_trace": dict(obj.expected_trace),
                "params": obj.params,
                "note": obj.note,
            }
        )
    if isinstance(obj, (frozenset, set)):
        items = list(obj)
        if all(isinstance(i, int) for i in items):
            return sorted(items)
        return sorted((naive_jsonable(i) for i in items), key=json.dumps)
    if isinstance(obj, dict):
        return {
            _naive_key(k): naive_jsonable(v)
            for k, v in sorted(obj.items(), key=lambda kv: _naive_key(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [naive_jsonable(i) for i in obj]
    return obj


def _naive_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (tuple, frozenset)):
        return json.dumps(naive_jsonable(key))
    return str(key)


def naive_render_report(data) -> str:
    """The report through the stdlib encoder, for comparison with ``render_report``."""
    return json.dumps(naive_jsonable(data), indent=2, sort_keys=True) + "\n"


def exact_scores(scored):
    """``{c: (base + gains[c]) / D}`` from one ``scores[W]`` entry of
    :meth:`Rule.scored_trace`."""
    base, gains, scale = scored
    return {c: Fraction(base + gain, scale) for c, gain in gains.items()}


def as_sets(scored):
    """A :meth:`Rule.scored_trace` result ``(trace, scores)`` with each
    committee bit mask (bit c is candidate c) as the frozenset it stands for."""
    trace, scores = scored

    def members(mask):
        return frozenset(c for c in range(mask.bit_length()) if mask >> c & 1)

    sets = tuple(frozenset(map(members, level)) for level in trace)
    return sets, None if scores is None else {members(W): s for W, s in scores.items()}


def compute_report(rule_name, m, k, input_digest, trace, scores, table_digest=None):
    """The ``seqvote compute`` report as one dict, built the literal way: the
    oracle for the CLI's compute writers, which render ``(trace, scores)``
    without building it."""
    steps = []
    for j in range(1, k + 1):
        children = {}
        for W in trace[j]:
            for x in W:
                children.setdefault(W - {x}, []).append(W)
        detail = []
        for parent in sorted(trace[j - 1], key=lambda c: tuple(sorted(c))):
            entry = {"parent": parent}
            if scores is not None:
                entry["scores"] = exact_scores(scores[parent])
            entry["extensions"] = frozenset(children.get(parent, ()))
            detail.append(entry)
        steps.append({"size": j, "chosen": trace[j], "per_parent": detail})
    report = {
        "command": "compute",
        "rule": rule_name,
        "m": m,
        "k": k,
        "input_digest": input_digest,
        "trace": [{"size": j, "committees": trace[j]} for j in range(k + 1)],
        "steps": steps,
    }
    if table_digest is not None:
        report["table_digest"] = table_digest
    return report


def naive_compute_pretty(report) -> str:
    """The ``--pretty`` text of a :func:`compute_report` dict."""

    def letters(committee):
        if not committee:
            return "{}"
        return "{" + ",".join(candidate_letter(c) for c in sorted(committee)) + "}"

    lines = [f"{report['rule']} on m={report['m']}, k={report['k']}"]
    for entry in report["trace"]:
        names = " ".join(letters(w) for w in sorted(entry["committees"], key=sorted))
        lines.append(f"  size {entry['size']}: {names}")
    for step in report["steps"]:
        for parent in step["per_parent"]:
            if "scores" not in parent:
                continue
            scores = ", ".join(
                f"{candidate_letter(c)}={parent['scores'][c]}"
                for c in sorted(parent["scores"])
            )
            lines.append(f"  extending {letters(parent['parent'])}: {scores}")
    return "\n".join(lines) + "\n"


def naive_consistency_witness(g, n):
    """The first generator-consistency witness of ``g`` over pairs of up to
    ``n`` voters each, or None: every pair (A, B) of the anonymous universe
    in canonical order, every committee one by one, ``g.fn`` called on real
    profiles (B's voters renumbered above A's for an id-sensitive ``g``).
    Each choice is evaluated one committee at a time, when a pair first
    needs it, and memoized per what ``g`` sees.
    """
    committees = all_committees(g.m, g.m - 1)
    width = len(committees)
    universe = ProfileUniverse(g.m, n)
    # key -> a row: the choice mask per committee (None until evaluated),
    # then the key until the profile is built, then the profile
    rows = {}

    def row(key):
        out = rows.get(key)
        if out is None:
            out = rows[key] = [None] * width + [key]
        return out

    def choose(choice_row, i):
        profile = choice_row[width]
        if isinstance(profile, tuple):
            offset, item = profile
            profile = universe.profile(item)
            if offset:
                profile = profile.relabeled(offset + 1)
            choice_row[width] = profile
        mask = choice_row[i] = sum(1 << c for c in g.fn(profile, committees[i]))
        return mask

    def members(mask):
        return frozenset(c for c in range(g.m) if mask >> c & 1)

    items = list(universe.items())
    for a in items:
        row_a = row((0, a))
        offset = len(a) if g.id_sensitive else 0
        for b in items:
            row_b = row((offset, b))
            row_ab = None
            for i in range(width):
                ga = row_a[i]
                if ga is None:
                    ga = choose(row_a, i)
                if not ga:
                    continue
                gb = row_b[i]
                if gb is None:
                    gb = choose(row_b, i)
                joint = ga & gb
                if not joint:
                    continue
                if row_ab is None:
                    if offset:
                        row_ab = [None] * width + [row_a[width] + row_b[width]]
                    else:
                        row_ab = row((0, tuple(sorted(a + b))))
                gab = row_ab[i]
                if gab is None:
                    gab = choose(row_ab, i)
                if gab and gab != joint:
                    pa = row_a[width]
                    return {
                        "a": pa, "b": row_b[width].relabeled(pa.n + 1), "committee": committees[i],
                        "g_a": members(ga), "g_b": members(gb),
                        "g_combined": members(gab), "intersection": members(joint),
                    }
    return None


def naive_continuity_search(rule, bounds):
    """The continuity report as a literal loop, with no certificate: for
    every ``(A, B, k)`` with ``|f(A, k)| = 1``, in canonical order, ``jA +
    B`` is built from the ballots of j copies of A, then B's, and traced for
    j = 1..``j_max``; the first instance that no j restores decides
    ``inconclusive``."""
    used = {
        "m": rule.m,
        "n_a": bounds.n_continuity,
        "n_b": bounds.n_continuity_other,
        "j_max": bounds.j_max,
    }
    worst = 0
    others = list(ProfileUniverse(rule.m, bounds.n_continuity_other, ordered=rule.id_sensitive))
    for a in ProfileUniverse(rule.m, bounds.n_continuity, ordered=rule.id_sensitive):
        trace_a = rule.trace_uncached(a)
        for b in others:
            for k in range(1, rule.m + 1):
                target = trace_a[k]
                if len(target) != 1:
                    continue
                for j in range(1, bounds.j_max + 1):
                    combined = Profile.from_ballots(rule.m, a.ballots() * j + b.ballots())
                    if rule.trace_uncached(combined, k)[k] == target:
                        worst = max(worst, j)
                        break
                else:
                    note = EXISTENTIAL_NOTE + (
                        f"; no replication count up to {bounds.j_max} restores the base"
                        " outcome (the deciding comparison is invariant under replication)"
                    )
                    witness = {"a": a, "b": b, "k": k, "target": target}
                    return AxiomReport(
                        "continuity", rule.name, "inconclusive", used, witness=witness, note=note
                    )
    note = EXISTENTIAL_NOTE + f"; largest minimal replication count seen: {worst}"
    return AxiomReport("continuity", rule.name, "pass", used, note=note)


def derived_row_by_step_trace(step, profile, k, branch_cap):
    """The choice row of the generator derived from the rule that ``step``
    drives, read off ``step_trace(step, profile, k, branch_cap)``: each W of
    f(A, j), j < k, chooses every x whose W + {x} is in f(A, j + 1), at bit
    ``i*m + x`` for the i-th committee W of ``all_committees(m, m - 2)``.
    A choice holding a member of its committee raises ValueError, as the
    consistency checker refuses it."""
    m = profile.m

    def checked(p, W):
        chosen = frozenset(step(p, W))
        if chosen & W:
            raise ValueError(
                f"generator chose {sorted(chosen & W)} from inside the committee {sorted(W)}"
            )
        return chosen

    trace = step_trace(checked, profile, k, branch_cap)
    out = 0
    for i, W in enumerate(all_committees(m, m - 2)):
        if len(W) < k and W in trace[len(W)]:
            for x in range(m):
                if x not in W and W | {x} in trace[len(W) + 1]:
                    out |= 1 << (i * m + x)
    return out


def voter1_doubled_step_literal(profile, committee):
    """Approval voting's step with voter 1's approvals weighted twice, every
    vote tallied on every call."""
    outside = [c for c in range(profile.m) if c not in committee]
    totals = {c: 0 for c in outside}
    for voter, ballot in profile.votes:
        weight = 2 if voter == 1 else 1
        for c in ballot:
            if c in totals:
                totals[c] += weight
    best = max(totals.values())
    return frozenset(c for c, t in totals.items() if t == best)


def naive_neutrality_witness(rule, n):
    """The first neutrality witness over up to ``n`` voters, or None: every
    profile of the rule's universe, every candidate permutation tau, both
    profiles stepped outright (no trace cache) and tau applied to the
    base outcome at every size."""
    for profile in ProfileUniverse(rule.m, n, ordered=rule.id_sensitive):
        base = rule.trace_uncached(profile)
        for tau in itertools.permutations(range(rule.m)):
            other = rule.trace_uncached(apply_candidate_permutation(tau, profile))
            for k in range(rule.m + 1):
                expected = frozenset(frozenset(tau[c] for c in W) for W in base[k])
                if other[k] != expected:
                    return {
                        "profile": profile, "candidate_permutation": tau, "k": k,
                        "families": (base[k], other[k]), "expected": expected,
                    }
    return None


def naive_monotonicity_witness(rule, n):
    """The first committee-monotonicity witness over up to ``n`` voters, or
    None: every profile of the rule's universe stepped outright, every
    winning committee checked for a winning parent and a winning extension."""
    m = rule.m
    for profile in ProfileUniverse(m, n, ordered=rule.id_sensitive):
        trace = rule.trace_uncached(profile)
        for k in range(1, m + 1):
            for W in trace[k]:
                if not any(W - {x} in trace[k - 1] for x in W):
                    return {"profile": profile, "k": k, "committee": W,
                            "missing": "no winning parent one size down"}
            for W in trace[k - 1]:
                if not any(W | {x} in trace[k] for x in range(m) if x not in W):
                    return {"profile": profile, "k": k - 1, "committee": W,
                            "missing": "no winning extension one size up"}
    return None


def naive_independence_witness(rule, n):
    """The first independence-of-losers witness over up to ``n`` voters, or
    None: per profile, size k and winning committee W (in sorted order),
    every choice of one sub-ballot per voter that keeps the voter's part of
    W, sub-ballots in canonical order and voters in ``product`` order, each
    shrunk profile stepped outright."""
    m = rule.m
    for profile in ProfileUniverse(m, n, ordered=rule.id_sensitive):
        trace = rule.trace_uncached(profile)
        for k in range(1, m + 1):
            for W in sorted(trace[k], key=sorted):
                per_voter = []
                for ballot in profile.ballots():
                    rest = sorted(ballot - W)
                    subs = {
                        (ballot & W) | frozenset(tail)
                        for size in range(len(rest) + 1)
                        for tail in itertools.combinations(rest, size)
                    }
                    per_voter.append(sorted((b for b in subs if b), key=ballot_sort_key))
                for choice in itertools.product(*per_voter):
                    if not rule.id_sensitive:
                        choice = sorted(choice, key=ballot_sort_key)
                    shrunk = Profile.from_ballots(m, choice)
                    if shrunk == profile:
                        continue
                    family = rule.trace_uncached(shrunk, k)[k]
                    if W not in family:
                        return {"profile": profile, "k": k, "committee": W,
                                "shrunk_profile": shrunk, "families": (trace[k], family)}
    return None


def naive_clone_witness(rule, which, n):
    """The first witness of clone rejection, acceptance or distrust over up
    to ``n`` voters, or None: every profile stepped outright and judged by
    the predicate witness replay uses."""
    m = rule.m
    for profile in ProfileUniverse(m, n, ordered=rule.id_sensitive):
        counts = profile.ballot_counts
        if which != "distrust" and not clone_pairs(m, counts):
            continue
        found = clone_violation(which, m, counts, rule.trace_uncached(profile))
        if found:
            return {"profile": profile, **found}
    return None


def naive_proportionality_witness(rule, bounds):
    """The first clone-proportionality witness, or None: every bloc, every
    candidate c outside it and every pair of bloc sizes, the profile of
    ``n1`` bloc ballots then ``n2`` ballots ``{c}`` stepped outright."""
    m = rule.m
    for bloc in all_ballots_naive(m):
        for c in range(m):
            if c in bloc:
                continue
            for n1 in range(1, bounds.n1_max + 1):
                for n2 in range(1, bounds.n2_max + 1):
                    profile = Profile.from_ballots(m, [bloc] * n1 + [{c}] * n2)
                    top = min(len(bloc), bounds.k_max_proportional)
                    trace = rule.trace_uncached(profile, top)
                    for k in range(1, top + 1):
                        found = proportionality_violation(profile.ballot_counts, k, c, trace[k])
                        if found:
                            return {"profile": profile, **found}
    return None


class SymmetrizationCapError(ProfileError, CapError):
    """Symmetrizing this profile would exceed the configured size cap."""


#: Guard against the factorial blowup of symmetrization.
DEFAULT_SYMMETRIZATION_CAP = 10_000


def symmetrize_profile(a, fixed, cap=DEFAULT_SYMMETRIZATION_CAP):
    """Disjoint sum of ``tau(a)`` over all permutations fixing ``fixed`` pointwise.

    In the result all candidates outside ``fixed`` are fully interchangeable:
    they have identical n-statistics with respect to any committee contained
    in ``fixed``.  The output size is ``(m - |fixed|)! * n`` voters; the call
    fails if that exceeds ``cap``.
    """
    fixed = frozenset(fixed)
    if not fixed <= set(range(a.m)):
        raise ProfileError("fixed candidates outside 0..m-1")
    movable = sorted(set(range(a.m)) - fixed)
    total = math.factorial(len(movable)) * a.n
    if total > cap:
        raise SymmetrizationCapError(
            f"symmetrization needs {total} voters, cap is {cap}"
        )
    ballots = []
    for images in itertools.permutations(movable):
        tau = {c: c for c in fixed}
        tau.update(dict(zip(movable, images)))
        ballots.extend(apply_candidate_permutation(tau, a).ballots())
    return Profile.from_ballots(a.m, ballots)
