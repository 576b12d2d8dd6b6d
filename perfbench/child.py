"""Run one seqvote operation in a fresh interpreter, optionally traced.

Usage (the benchmark runner spawns this; it is not meant for people)::

    python3 perfbench/child.py <repo-root> <op-json> <probe-file> [<trace-file>]

``op-json`` is one of

- ``{"kind": "cli", "argv": [...]}``: ``seqvote.cli.main(argv)``, as the
  ``seqvote`` console script runs it;
- ``{"kind": "lib", "call": "independence_of_losers", "rule": ..., "m": ...,
  "n_single": ...}``: one library checker, printing its verdict as JSON;
- ``{"kind": "setup", "rules": [[name, m], ...]}``: import seqvote and build
  the rules, nothing else (the set-up cost every CLI call pays).

While the op runs, a speed probe thread times a fixed loop every 50 ms of
wall time (about 3% of the op's time) and writes the sample count and total
to the probe file.  The runner uses them to scale times to a reference
interpreter speed, since the speed of a shared machine drifts by tens of
percent within a minute.

With a trace file the child wraps the public functions of every seqvote
module before running the op.  Each wrapped call records a span (name,
start, end, parent) in memory; some calls only bump a counter.  The spans
and counters are written to the trace file when the op ends.  The exit code
is the op's own.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from array import array
from pathlib import Path

# (module, attribute path, span name).  A span name groups calls into one
# per-layer metric; see ``spans.group_of``.  Names that no longer exist in the
# package are skipped, so the tracer survives refactors of the code it wraps.
SPANS = (
    ("seqvote.profiles", "Profile.__init__", "profiles.Profile"),
    ("seqvote.profiles", "Profile.from_ballots", "profiles.from_ballots"),
    ("seqvote.profiles", "Profile.from_dict", "profiles.from_dict"),
    ("seqvote.profiles", "Profile.canonical", "profiles.canonical"),
    ("seqvote.profiles", "Profile.relabeled", "profiles.relabeled"),
    ("seqvote.profiles", "profile_sum", "profiles.profile_sum"),
    ("seqvote.profiles", "profile_scale", "profiles.profile_scale"),
    ("seqvote.profiles", "apply_candidate_permutation", "profiles.apply_candidate_permutation"),
    ("seqvote.profiles", "apply_voter_permutation", "profiles.apply_voter_permutation"),
    ("seqvote.profiles", "symmetrize_profile", "profiles.symmetrize_profile"),
    ("seqvote.counting", "committee_score", "counting.committee_score"),
    ("seqvote.catalog", "make", "catalog.make"),
    ("seqvote.axioms", "check_anonymity", "axioms.anonymity"),
    ("seqvote.axioms", "check_neutrality", "axioms.neutrality"),
    ("seqvote.axioms", "continuity_search", "axioms.continuity"),
    ("seqvote.axioms", "check_continuity", "axioms.continuity"),
    ("seqvote.axioms", "check_non_imposition", "axioms.non_imposition"),
    ("seqvote.axioms", "check_committee_monotonicity", "axioms.committee_monotonicity"),
    ("seqvote.axioms", "check_generator_consistency", "axioms.generator_consistency"),
    ("seqvote.axioms", "check_clone_axiom", "axioms.clone"),
    ("seqvote.axioms", "check_independence_of_losers", "axioms.independence_of_losers"),
    ("seqvote.axioms", "check_committee_separability", "axioms.committee_separability"),
    ("seqvote.axioms", "check_information_basis", "axioms.information_basis"),
    ("seqvote.witnesses", "build_witness", "witnesses.build"),
    ("seqvote.cli", "parse_profile", "cli.parse_profile"),
    ("seqvote.cli", "cmd_compute", "cli.cmd_compute"),
    ("seqvote.cli", "render_report", "cli.render"),
    ("seqvote.cli", "render_compute_pretty", "cli.render"),
)

# Calls that are only counted: they are too frequent for a span each.
COUNTS = (
    ("seqvote.profiles", "validate_ballot", "profiles.ballots_validated"),
    ("seqvote.counting", "Valuation.value", "counting.valuation_evals"),
)


PROBE_INTERVAL_S = 0.05
PROBE_LOOP = 20_000


def probe_loop() -> int:
    """The fixed amount of interpreter work the speed probe times."""
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    return total


class SpeedProbe:
    """Times :func:`probe_loop` every ``PROBE_INTERVAL_S`` while the op runs.

    The probe is a thread: it takes the interpreter lock for each sample, so
    it sees the speed the op's own Python code gets.
    """

    def __init__(self):
        self.samples = 0
        self.total = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            start = time.perf_counter()
            probe_loop()
            self.total += time.perf_counter() - start
            self.samples += 1

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


class Tracer:
    """Spans and counters for one op, kept in flat arrays until the op ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.valuations: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def spanned(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self.stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            index = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counters = self.counters
        counters[name] = 0

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import seqvote  # noqa: F401  (loads every submodule but the CLI)
        import seqvote.cli  # noqa: F401

        modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "seqvote"}
        for module_name, path, name in SPANS:
            self._wrap(modules, module_name, path, lambda fn, name=name: self.spanned(name, fn))
        for module_name, path, name in COUNTS:
            self._wrap(modules, module_name, path, lambda fn, name=name: self.counted(name, fn))
        self._wrap_engine(modules)
        self._wrap_valuation_registry(modules)

    @staticmethod
    def _wrap(modules, module_name: str, path: str, make_wrapper) -> None:
        """Replace one function or method with ``make_wrapper(original)``.

        A module function is replaced wherever it is bound, by identity: one
        imported with ``from .x import f`` is looked up in the importing
        module, so wrapping only its home would miss those calls.
        """
        owner = modules.get(module_name)
        *parents, leaf = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None:
            return
        if isinstance(owner, type):
            target = owner.__dict__.get(leaf)
            if isinstance(target, classmethod):
                setattr(owner, leaf, classmethod(make_wrapper(target.__func__)))
            elif target is not None:
                setattr(owner, leaf, make_wrapper(target))
            return
        target = getattr(owner, leaf, None)
        if target is not None:
            _rebind_everywhere(modules, target, make_wrapper(target))

    def _wrap_engine(self, modules) -> None:
        """Rule.trace calls, misses, depth and frontier; steps inside traces."""
        engine = modules.get("seqvote.engine")
        rule_cls = getattr(engine, "Rule", None)
        original_trace = getattr(rule_cls, "trace", None)
        if original_trace is None:
            return
        traced = self.spanned("engine.trace", original_trace)

        def trace(rule, profile, k=None):
            cache = getattr(rule, "_traces", None)
            before = len(cache) if cache is not None else 0
            out = traced(rule, profile, k)
            if cache is not None and len(cache) > before:
                full = next(reversed(cache.values()))
                self.bump("engine.trace_misses")
                self.bump("engine.levels_traced", len(full) - 1)
                self.bump("engine.levels_requested", rule.m if k is None else k)
                widest = max(len(family) for family in full)
                if widest > self.counters.get("engine.frontier_max", 0):
                    self.counters["engine.frontier_max"] = widest
            return out

        rule_cls.trace = trace

        original_step_trace = getattr(engine, "step_trace", None)
        if original_step_trace is None:
            return

        def step_trace(step, *args, **kwargs):
            return original_step_trace(self.spanned("engine.step", step), *args, **kwargs)

        _rebind_everywhere(modules, original_step_trace, step_trace)

    def _wrap_valuation_registry(self, modules) -> None:
        """Remember every Valuation built, to size its memo cache at the end."""
        valuation_cls = getattr(modules.get("seqvote.counting"), "Valuation", None)
        original_init = getattr(valuation_cls, "__init__", None)
        if original_init is None:
            return
        registry = self.valuations

        def __init__(valuation, *args, **kwargs):
            original_init(valuation, *args, **kwargs)
            registry.append(valuation)

        valuation_cls.__init__ = __init__

    # -- output --------------------------------------------------------------

    def dump(self, path: Path) -> None:
        entries = [len(getattr(v, "_cache", ())) for v in self.valuations]
        self.counters["counting.valuation_cache_entries"] = sum(entries)
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "counters": self.counters,
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(out)


def _rebind_everywhere(modules, original, replacement) -> None:
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def run_op(spec: dict) -> int:
    kind = spec["kind"]
    if kind == "cli":
        from seqvote.cli import main

        return main(spec["argv"])
    if kind == "lib":
        from seqvote import axioms, catalog

        if spec["call"] != "independence_of_losers":
            raise ValueError(f"unknown library call {spec['call']!r}")
        rule = catalog.make(spec["rule"], spec["m"])
        report = axioms.check_independence_of_losers(
            rule, axioms.Bounds(n_single=spec["n_single"])
        )
        sys.stdout.write(
            json.dumps({"axiom": report.axiom, "subject": report.subject,
                        "verdict": report.verdict}, sort_keys=True) + "\n"
        )
        return 0
    if kind == "setup":
        from seqvote import catalog

        for name, m in spec["rules"]:
            catalog.make(name, m)
        return 0
    raise ValueError(f"unknown op kind {kind!r}")


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve()
    spec = json.loads(argv[1])
    probe_file = Path(argv[2])
    trace_file = Path(argv[3]) if len(argv) > 3 else None
    src = root / "src"
    sys.path.insert(0, str(src))
    import seqvote

    if Path(seqvote.__file__).resolve().parent != src / "seqvote":
        print(f"seqvote imported from {seqvote.__file__}, not {src}", file=sys.stderr)
        return 4
    tracer = None
    if trace_file is not None:
        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe()
    try:
        with probe:
            return run_op(spec)
    finally:
        sys.stdout.flush()
        probe_file.write_text(json.dumps({"samples": probe.samples, "total": probe.total}))
        if tracer is not None:
            tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
