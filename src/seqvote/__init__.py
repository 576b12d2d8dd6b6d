"""Sequential committee voting with exact rational arithmetic.

The package splits into:

- :mod:`seqvote.profiles` -- ballots, profiles, and the profile algebra;
- :mod:`seqvote.counting` -- counting-function tables, valuations, scores;
- :mod:`seqvote.engine` -- generator steps, tie-branching sequential runs;
- :mod:`seqvote.catalog` -- the named rules and the axiom-violating zoo;
- :mod:`seqvote.axioms` -- bounded axiom checkers returning replayable reports;
- :mod:`seqvote.predicates` -- per-instance axiom predicates, shared by the
  checkers and the witness replay;
- :mod:`seqvote.witnesses` -- constructive counterexamples for the clone axioms;
- :mod:`seqvote.oracle` -- brute-force enumeration and optimizing baselines;
- :mod:`seqvote.cli` -- the ``seqvote`` command-line tool.
"""

from importlib import import_module

#: Each re-exported name and the submodule it lives in.  ``import seqvote``
#: loads no submodule: a name is imported from its home on first access
#: (PEP 562), so a ``seqvote compute`` process never compiles the checkers.
_HOMES = {
    "AxiomReport": "axioms",
    "Bounds": "axioms",
    "compute_n_stats": "axioms",
    "make": "catalog",
    "make_seq_thiele": "catalog",
    "make_step_scoring": "catalog",
    "make_step_thiele": "catalog",
    "make_zoo_rule": "catalog",
    "StepCountingTable": "counting",
    "StepThieleTable": "counting",
    "ThieleTable": "counting",
    "Valuation": "counting",
    "WeightTable": "counting",
    "committee_score": "counting",
    "counting_from_weight": "counting",
    "weight_from_counting": "counting",
    "Rule": "engine",
    "derive_generator": "engine",
    "generator_step": "engine",
    "weighted_approval_step": "engine",
    "ProfileUniverse": "oracle",
    "brute_force_optimal": "oracle",
    "compare_rules": "oracle",
    "Profile": "profiles",
    "apply_candidate_permutation": "profiles",
    "profile_scale": "profiles",
    "profile_sum": "profiles",
    "Witness": "witnesses",
    "witness_clone_acceptance": "witnesses",
    "witness_clone_proportionality": "witnesses",
    "witness_clone_rejection": "witnesses",
    "witness_distrust": "witnesses",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
