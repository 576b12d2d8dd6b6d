"""The ``profiles.Record`` base: fields from annotations, one constructor."""

import pytest

from seqvote.axioms import AxiomReport, Bounds
from seqvote.counting import (
    StepCountingTable,
    StepThieleTable,
    ThieleTable,
    Valuation,
    WeightTable,
)
from seqvote.engine import GeneratorFunction
from seqvote.oracle import DEFAULT_UNIVERSE_CAP, ProfileUniverse
from seqvote.profiles import Profile, Record
from seqvote.witnesses import Witness

from util import fam

# Field order decides equality, hashing, repr, asdict and the JSON bytes.
FIELDS = {
    Profile: ("m", "votes"),
    ThieleTable: ("values",),
    StepThieleTable: ("values",),
    StepCountingTable: ("values",),
    WeightTable: ("values",),
    Valuation: ("name", "fn", "counting"),
    GeneratorFunction: ("name", "m", "fn", "id_sensitive", "derived_from"),
    ProfileUniverse: ("m", "max_voters", "cap", "ordered"),
    AxiomReport: ("axiom", "subject", "verdict", "bounds", "witness", "note"),
    Bounds: (
        "n_single", "n_perm", "n_pair_each", "n_pair_total", "n_continuity",
        "n_continuity_other", "j_max", "n_stats", "w_max_stats", "n1_max", "n2_max",
        "k_max_proportional",
    ),
    Witness: (
        "construction", "axiom", "profile", "k", "expected", "expected_trace", "params", "note",
    ),
}


def step(profile, committee):
    return frozenset({0})


def witness(**overrides):
    fields = {
        "construction": "T2", "axiom": "clone-rejection",
        "profile": Profile.from_ballots(3, [{0, 1}]), "k": 2, "expected": fam({0, 1}),
        "expected_trace": ((2, fam({0, 1})),), "params": {"x": 2},
    }
    return Witness(**{**fields, **overrides})


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_come_from_annotations_in_declaration_order(cls):
    assert cls._fields == FIELDS[cls]


def test_positional_keyword_and_default_construction_agree():
    bounds = Bounds()
    assert bounds == Bounds(5, 3, 3, 3, 3, 1, 16, 2, None, 8, 8, 3)
    assert bounds == Bounds(j_max=16, w_max_stats=None) and bounds != Bounds(j_max=15)
    assert bounds.asdict() == {
        "n_single": 5, "n_perm": 3, "n_pair_each": 3, "n_pair_total": 3, "n_continuity": 3,
        "n_continuity_other": 1, "j_max": 16, "n_stats": 2, "w_max_stats": None,
        "n1_max": 8, "n2_max": 8, "k_max_proportional": 3,
    }
    assert list(Bounds(n_perm=2).asdict()) == list(FIELDS[Bounds])
    assert repr(Bounds(n_single=4)) == (
        "Bounds(n_single=4, n_perm=3, n_pair_each=3, n_pair_total=3, n_continuity=3, "
        "n_continuity_other=1, j_max=16, n_stats=2, w_max_stats=None, n1_max=8, "
        "n2_max=8, k_max_proportional=3)"
    )

    report = AxiomReport("anonymity", "seqav", "pass", {"m": 3})
    assert report == AxiomReport(
        axiom="anonymity", subject="seqav", verdict="pass", bounds={"m": 3}, witness=None, note=""
    )
    assert report.asdict() == {
        "axiom": "anonymity", "subject": "seqav", "verdict": "pass", "bounds": {"m": 3},
        "witness": None, "note": "",
    }
    assert repr(report) == (
        "AxiomReport(axiom='anonymity', subject='seqav', verdict='pass', bounds={'m': 3}, "
        "witness=None, note='')"
    )

    universe = ProfileUniverse(3, 2)
    assert universe == ProfileUniverse(3, 2, DEFAULT_UNIVERSE_CAP, False)
    assert universe == ProfileUniverse(max_voters=2, m=3, ordered=False)
    assert hash(universe) == hash(ProfileUniverse(3, max_voters=2))
    assert ProfileUniverse(3, 2, ordered=True).asdict() == {
        "m": 3, "max_voters": 2, "cap": DEFAULT_UNIVERSE_CAP, "ordered": True,
    }
    assert len(universe.ballots) == 7 and universe == ProfileUniverse(3, 2)  # cached, not a field

    g = GeneratorFunction("g", 3, step)
    assert g == GeneratorFunction(name="g", m=3, fn=step, id_sensitive=False, derived_from=None)
    assert g != GeneratorFunction("g", 3, step, True)
    assert repr(g).startswith("GeneratorFunction(name='g', m=3, fn=<function step")

    w = witness()
    assert w.note == "" and w == witness(note="")
    assert list(w.asdict()) == list(FIELDS[Witness])
    assert w.asdict()["expected_trace"] == {2: fam({0, 1})}  # the report's form
    assert w.expected_trace == ((2, fam({0, 1})),)


@pytest.mark.parametrize(
    "args,kwargs,message",
    [
        ((), {}, "missing fields ['axiom', 'subject', 'verdict', 'bounds']"),
        (("a", "s", "pass"), {}, "missing fields ['bounds']"),
        (("a", "s", "pass", {}), {"evidence": 1}, "unknown field 'evidence'"),
        (("a", "s", "pass", {}), {"verdict": "violation"}, "repeated or unknown field 'verdict'"),
        (("a", "s", "pass", {}, None, "", "extra"), {}, "takes 6 fields, got 7"),
    ],
)
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError) as info:
        AxiomReport(*args, **kwargs)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "record",
    [
        Bounds(),
        AxiomReport("a", "s", "pass", {}),
        ProfileUniverse(3, 2),
        GeneratorFunction("g", 3, step),
        witness(),
        ThieleTable((0, 1, 2)),
        Profile.from_ballots(2, [{0}]),
    ],
    ids=lambda record: type(record).__name__,
)
def test_fields_cannot_be_assigned_or_deleted(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_of_different_classes_never_compare_equal():
    class Left(Record):
        x: int
        y: int = 0

    class Right(Record):
        x: int
        y: int = 0

    assert Left(1) == Left(1, 0) == Left(x=1) and hash(Left(1)) == hash(Left(1))
    assert Left(1) != Right(1) and Right(1) != Left(1)
    assert Left(1) != (1, 0) and Left(1).asdict() == Right(1).asdict()
    assert ThieleTable((0, 1, 2)) != ThieleTable((0, 1, 3))
    assert ProfileUniverse(3, 2) != Bounds()
