"""Approval profiles and the profile algebra.

Candidates are the integers ``0..m-1``, a ballot is a non-empty frozenset of
candidates, and a profile maps positive voter ids to ballots.  Everything is
immutable and hashable, so profiles can be shared between threads and used as
cache keys.  Two profiles with different ``m`` never mix.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Iterable, Mapping, Sequence


class ProfileError(ValueError):
    """Invalid profile construction or misuse of the profile algebra."""


class CapError(Exception):
    """A configured size cap would be exceeded (the CLI exits 3).

    The base of every cap error in the package, so a caller can catch them
    all without importing the modules that raise them.
    """


#: An anonymous profile as :attr:`Profile.ballot_counts` gives it: distinct
#: ballots in canonical order with their multiplicities.
BallotCounts = tuple[tuple[frozenset[int], int], ...]


def ballot_sort_key(ballot: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    """Canonical ballot order: by size, then lexicographically by members."""
    return (len(ballot), tuple(sorted(ballot)))


def validate_ballot(m: int, approved: Iterable[int]) -> frozenset[int]:
    """Return ``approved`` as a frozenset, rejecting empty or out-of-range ballots."""
    ballot = frozenset(approved)
    if not ballot:
        raise ProfileError("ballots must be non-empty")
    for c in ballot:
        if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < m:
            raise ProfileError(f"candidate {c!r} outside 0..{m - 1}")
    return ballot


class lazy:
    """A record field computed from the others on first access.

    The value goes into the instance's ``__dict__``, which this non-data
    descriptor gives way to, so later accesses are plain attribute reads; a
    constructor that knows the value may put it there first.  This is
    :func:`functools.cached_property` without the lock Python 3.11 takes on
    every first access: two threads computing a field get one value.
    """

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class Record:
    """An immutable value with named fields, as a frozen dataclass would be.

    The records of the compute path (profiles, counting tables, valuations,
    generator functions) are plain classes on this base, not dataclasses:
    importing ``dataclasses`` imports ``inspect``, about 9 ms of start-up in
    every ``seqvote compute`` process with no cached bytecode (Python 3.11).
    Every annotation in a subclass body is a field, in declaration order,
    and a value given with it there is its default.  The base constructor
    takes the fields by position or by name; a subclass that validates or
    coerces its fields writes its own ``__init__`` and sets them through
    ``__dict__``.  Instances of one class compare and hash by their fields
    and print them; assigning or deleting an attribute raises
    :class:`AttributeError`.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._key = staticmethod(attrgetter(*cls._fields))  # the fields, read in C

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        given = dict(zip(fields, args))
        for field in kwargs:
            if field in given or field not in fields:
                raise TypeError(f"{name}() got a repeated or unknown field {field!r}")
        values = {**self._defaults, **given, **kwargs}
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() is missing fields {missing}")
        self.__dict__.update((field, values[field]) for field in fields)

    def asdict(self) -> dict:
        """The fields by name, in field order."""
        return {field: self.__dict__[field] for field in self._fields}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Profile(Record):
    """A finite, non-empty map from voter ids to approval ballots.

    ``votes`` is a tuple of ``(voter_id, ballot)`` pairs sorted by voter id;
    build one with :meth:`from_dict`, :meth:`from_ballots` or
    :meth:`from_counts`.  Every constructor validates each ballot once;
    ``checked=True``, a caller's promise that its ballots are validated
    frozensets (the profile algebra, the enumerators over
    :func:`seqvote.oracle.all_ballots`, the CLI's parser), skips the checks.
    """

    m: int
    votes: tuple[tuple[int, frozenset[int]], ...]

    def __init__(self, m: int, votes, checked: bool = False):
        fields = self.__dict__
        fields["m"] = m
        if checked:
            fields["votes"] = votes
            return
        if m < 1:
            raise ProfileError("need at least one candidate")
        if not votes:
            raise ProfileError("profiles must contain at least one voter")
        ids = [v for v, _ in votes]
        if any(not isinstance(v, int) or v < 1 for v in ids):
            raise ProfileError("voter ids must be positive integers")
        if len(set(ids)) != len(ids):
            raise ProfileError("duplicate voter ids")
        if ids != sorted(ids):
            raise ProfileError("votes must be sorted by voter id")
        fields["votes"] = tuple((v, validate_ballot(m, b)) for v, b in votes)

    @classmethod
    def from_dict(cls, m: int, mapping: Mapping[int, Iterable[int]]) -> "Profile":
        return cls(m, tuple(sorted(mapping.items())))

    @classmethod
    def from_ballots(cls, m: int, ballots: Sequence[Iterable[int]]) -> "Profile":
        """Build a profile assigning voter ids 1..n to ``ballots`` in order."""
        return cls(m, tuple((i + 1, ballot) for i, ballot in enumerate(ballots)))

    @classmethod
    def from_counts(cls, m: int, counts: BallotCounts, checked: bool = False) -> "Profile":
        """The canonical profile (ids 1..n) holding each ``(ballot, count)``.

        ``counts`` is an anonymous profile as :attr:`ballot_counts` gives
        it: distinct ballots in canonical order with positive multiplicities.
        Each is validated once, or not at all with ``checked=True``.
        """
        counts = tuple(counts) if checked else _validated_counts(m, counts)
        profile = cls(m, _numbered(counts), checked=True)
        profile.__dict__["ballot_counts"] = counts
        return profile

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.votes)

    @property
    def voter_ids(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.votes)

    def ballot(self, voter: int) -> frozenset[int]:
        for v, b in self.votes:
            if v == voter:
                return b
        raise KeyError(voter)

    def ballots(self) -> tuple[frozenset[int], ...]:
        return tuple(b for _, b in self.votes)

    @lazy
    def ballot_multiset(self) -> tuple[frozenset[int], ...]:
        """The anonymous content of the profile: ballots in canonical order."""
        return tuple(sorted(self.ballots(), key=ballot_sort_key))

    @lazy
    def ballot_counts(self) -> BallotCounts:
        """Distinct ballots with multiplicities, in canonical ballot order."""
        return tuple(
            (ballot, len(list(group)))
            for ballot, group in itertools.groupby(self.ballot_multiset)
        )

    @lazy
    def ballot_masks(self) -> tuple[tuple[int, int, int, frozenset[int]], ...]:
        """``(mask, count, size, ballot)`` per distinct ballot; bit c of ``mask`` is candidate c."""
        return tuple((sum(map((1).__lshift__, b)), n, len(b), b) for b, n in self.ballot_counts)

    @lazy
    def support(self) -> frozenset[int]:
        """All candidates approved by at least one voter."""
        return frozenset().union(*self.ballots())

    @lazy
    def approval_counts(self) -> tuple[int, ...]:
        """Each candidate's number of approvals, indexed by candidate."""
        counts = [0] * self.m
        for _, ballot in self.votes:
            for c in ballot:
                counts[c] += 1
        return tuple(counts)

    def same_ballots(self, other: "Profile") -> bool:
        """Anonymous equality: same candidate set and same ballot multiset."""
        return self.m == other.m and self.ballot_multiset == other.ballot_multiset

    def canonical(self) -> "Profile":
        """The anonymous normal form: ids 1..n, ballots in canonical order."""
        return Profile.from_counts(self.m, self.ballot_counts)

    def relabeled(self, first_id: int = 1) -> "Profile":
        """Same ballots in voter-id order, with fresh consecutive ids."""
        if not isinstance(first_id, int) or first_id < 1:
            raise ProfileError("voter ids must be positive integers")
        return Profile(
            self.m,
            tuple((first_id + i, b) for i, (_, b) in enumerate(self.votes)),
            checked=True,
        )

    def __add__(self, other: "Profile") -> "Profile":
        return profile_sum(self, other)

    def __str__(self):
        parts = ", ".join(
            f"{v}->{{{','.join(map(str, sorted(b)))}}}" for v, b in self.votes
        )
        return f"Profile(m={self.m}; {parts})"


def profile_sum(a: Profile, b: Profile) -> Profile:
    """Union of two profiles over disjoint electorates.

    Raises :class:`ProfileError` if the voter-id sets overlap; callers that
    want fresh ids must relabel first (see :meth:`Profile.relabeled`).
    """
    if a.m != b.m:
        raise ProfileError(f"mixed candidate sets: m={a.m} vs m={b.m}")
    if set(a.voter_ids) & set(b.voter_ids):
        raise ProfileError("profiles share voter ids; relabel before summing")
    return Profile(a.m, tuple(sorted(a.votes + b.votes)), checked=True)


def profile_scale(j: int, a: Profile) -> Profile:
    """``j`` disjoint copies of ``a``.

    The first copy keeps the original voter ids and later ones are shifted
    by multiples of the largest id, so ids stay disjoint and voter 1 stays.
    """
    if not isinstance(j, int) or j < 1:
        raise ProfileError("the number of copies must be a positive integer")
    top = max(a.voter_ids)
    votes = sorted((v + t * top, b) for t in range(j) for v, b in a.votes)
    return Profile(a.m, tuple(votes), checked=True)


def _validated_counts(m: int, counts) -> BallotCounts:
    if m < 1:
        raise ProfileError("need at least one candidate")
    pairs = []
    for ballot, count in counts:
        ballot = validate_ballot(m, ballot)
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ProfileError(f"multiplicity {count!r} is not a positive integer")
        if pairs and ballot_sort_key(pairs[-1][0]) >= ballot_sort_key(ballot):
            raise ProfileError("ballot counts must list distinct ballots in canonical order")
        pairs.append((ballot, count))
    if not pairs:
        raise ProfileError("profiles must contain at least one voter")
    return tuple(pairs)


def _numbered(counts: BallotCounts) -> tuple[tuple[int, frozenset[int]], ...]:
    """Votes with ids 1..n: each ``(ballot, count)`` repeated ``count`` times."""
    ballots = itertools.chain.from_iterable(
        itertools.repeat(ballot, count) for ballot, count in counts
    )
    return tuple(enumerate(ballots, 1))


def _permutation_map(m: int, tau) -> dict[int, int]:
    if isinstance(tau, Mapping):
        mapping = dict(tau)
    else:
        mapping = {i: image for i, image in enumerate(tau)}
    if sorted(mapping) != list(range(m)) or sorted(mapping.values()) != list(range(m)):
        raise ProfileError(f"not a permutation of 0..{m - 1}: {tau!r}")
    return mapping


def apply_candidate_permutation(tau, a: Profile) -> Profile:
    """Rename candidates pointwise by the permutation ``tau`` (sequence or map)."""
    mapping = _permutation_map(a.m, tau)
    return Profile(
        a.m,
        tuple((v, frozenset(mapping[c] for c in b)) for v, b in a.votes),
    )


def apply_voter_permutation(pi: Mapping[int, int], a: Profile) -> Profile:
    """Rename voters by ``pi`` (ids not mentioned map to themselves)."""
    new_ids = [pi.get(v, v) for v in a.voter_ids]
    if len(set(new_ids)) != len(new_ids) or any(v < 1 for v in new_ids):
        raise ProfileError(f"not injective on voter ids: {pi!r}")
    return Profile(a.m, tuple(sorted((pi.get(v, v), b) for v, b in a.votes)))

