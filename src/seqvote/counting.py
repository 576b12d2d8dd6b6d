"""Counting-function tables, valuations, and exact committee scores.

Counting functions are finite grids of rationals over ``0..m`` rather than
closures; that keeps validation decidable and serialization exact.  Scores
are :class:`fractions.Fraction` values and are never rounded, so ties are
decided exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .profiles import Profile, Record, lazy


def frac(value) -> Fraction:
    """Coerce ints, ``"p/q"`` strings, and Fractions to an exact Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


class ValidationResult(NamedTuple):
    ok: bool
    detail: object  # human-readable reason, or a witness structure


# ---------------------------------------------------------------------------
# Tables


class ThieleTable(Record):
    """A table ``h(x)`` for ``x in 0..m``."""

    values: tuple[Fraction, ...]

    def __init__(self, values):
        values = tuple(map(frac, values))
        if len(values) < 2:
            raise ValueError("need entries for at least x=0 and x=1")
        self.__dict__["values"] = values

    @property
    def m(self) -> int:
        return len(self.values) - 1

    def __call__(self, x: int) -> Fraction:
        return self.values[x]

    @classmethod
    def from_function(cls, m: int, fn: Callable[[int], object]) -> "ThieleTable":
        return cls([fn(x) for x in range(m + 1)])

    def normalized(self) -> "ThieleTable":
        """Rescale to ``h(0)=0`` and ``h(1)=1``; the induced rule is unchanged."""
        base, unit = self.values[0], self.values[1]
        if unit == base:
            raise ValueError("cannot normalize a table with h(1)=h(0)")
        return ThieleTable(tuple((v - base) / (unit - base) for v in self.values))


class StepThieleTable(Record):
    """A table ``h(x, y)`` for ``x in 0..m``, ``y in 1..m`` (y = committee size)."""

    values: tuple[tuple[Fraction, ...], ...]  # indexed [y-1][x]

    def __init__(self, values):
        rows = tuple(tuple(map(frac, row)) for row in values)
        m = len(rows)
        if m < 1 or any(len(row) != m + 1 for row in rows):
            raise ValueError("expected m rows of m+1 entries")
        self.__dict__["values"] = rows

    @property
    def m(self) -> int:
        return len(self.values)

    def __call__(self, x: int, y: int) -> Fraction:
        return self.values[y - 1][x]

    @classmethod
    def from_function(cls, m: int, fn) -> "StepThieleTable":
        return cls([[fn(x, y) for x in range(m + 1)] for y in range(1, m + 1)])


class StepCountingTable(Record):
    """A table ``h(x, y, z)``: x committee members approved, committee size y,
    ballot size z."""

    values: tuple[tuple[tuple[Fraction, ...], ...], ...]  # indexed [x][y-1][z-1]

    def __init__(self, values):
        rows: dict[int, tuple] = {}  # id -> (the row, kept so the id stays its own; exact row)

        def exact(zrow) -> tuple[Fraction, ...]:  # a row shared by several (x, y) stays shared
            if id(zrow) not in rows:
                rows[id(zrow)] = (zrow, tuple(map(frac, zrow)))
            return rows[id(zrow)][1]

        try:
            grid = tuple(tuple(map(exact, yrow)) for yrow in values)
        except TypeError as exc:
            raise ValueError(f"expected a 3-level grid of rationals: {exc}") from None
        m = len(grid) - 1
        if m < 1 or any(
            len(yrow) != m or any(len(zrow) != m for zrow in yrow) for yrow in grid
        ):
            raise ValueError("expected (m+1) x m x m entries")
        self.__dict__["values"] = grid

    @property
    def m(self) -> int:
        return len(self.values) - 1

    def __call__(self, x: int, y: int, z: int) -> Fraction:
        return self.values[x][y - 1][z - 1]

    @classmethod
    def from_function(cls, m: int, fn) -> "StepCountingTable":
        return cls(
            [
                [[fn(x, y, z) for z in range(1, m + 1)] for y in range(1, m + 1)]
                for x in range(m + 1)
            ]
        )


class WeightTable(Record):
    """Per-voter weights ``v(x, z)`` for one step of weighted approval voting.

    ``x`` is the number of committee members the ballot already approves
    (``0..m-1``) and ``z`` is the ballot size (``1..m``).
    """

    values: tuple[tuple[Fraction, ...], ...]  # indexed [x][z-1]

    def __init__(self, values):
        grid = tuple(tuple(map(frac, row)) for row in values)
        m = len(grid)
        if m < 1 or any(len(row) != m for row in grid):
            raise ValueError("expected m rows of m entries")
        self.__dict__["values"] = grid

    @property
    def m(self) -> int:
        return len(self.values)

    def __call__(self, x: int, z: int) -> Fraction:
        return self.values[x][z - 1]

    @lazy
    def scaled(self) -> "ScaledLevel":
        """The step as a :class:`ScaledLevel`: ``D`` the lcm of the
        denominators, ``gains[x][z] = D * v(x, z)`` indexed by ballot size
        (column 0 unused), and zero ``values``, since only the gains score."""
        scale = math.lcm(*(v.denominator for row in self.values for v in row))
        rows = tuple((0,) + tuple(int(v * scale) for v in row) for row in self.values)
        return ScaledLevel(scale, tuple((0,) * len(row) for row in rows), rows)

    @classmethod
    def from_function(cls, m: int, fn) -> "WeightTable":
        return cls([[fn(x, z) for z in range(1, m + 1)] for x in range(m)])


# ---------------------------------------------------------------------------
# Validation


def validate_thiele(h: ThieleTable) -> ValidationResult:
    """Non-negative, non-decreasing, and ``h(1) > h(0)``."""
    for x, v in enumerate(h.values):
        if v < 0:
            return ValidationResult(False, f"h({x}) = {v} is negative")
    for x in range(1, h.m + 1):
        if h(x) < h(x - 1):
            return ValidationResult(False, f"h decreases at x={x}")
    if not h(1) > h(0):
        return ValidationResult(False, "h(1) > h(0) fails")
    return ValidationResult(True, None)


def validate_step_thiele(h: StepThieleTable) -> ValidationResult:
    """Non-negative, non-decreasing in x, and strictly increasing somewhere in
    ``x <= y`` for every committee size ``y < m``."""
    m = h.m
    for y in range(1, m + 1):
        for x in range(m + 1):
            if h(x, y) < 0:
                return ValidationResult(False, f"h({x},{y}) negative")
            if x >= 1 and h(x, y) < h(x - 1, y):
                return ValidationResult(False, f"h decreases in x at ({x},{y})")
    for y in range(1, m):
        if not any(h(x, y) > h(x - 1, y) for x in range(1, y + 1)):
            return ValidationResult(False, f"no strict increase with x <= y for y={y}")
    return ValidationResult(True, None)


def validate_step_counting(h: StepCountingTable) -> ValidationResult:
    """For every ``y < m`` some ``x <= y`` and feasible ``z`` must distinguish
    ``h(x,y,z)`` from ``h(x-1,y,z)``.

    On success the detail maps each ``y`` to a witnessing ``(x, z)`` pair; on
    failure it names the first ``y`` without one.
    """
    m = h.m
    witnesses = {}
    for y in range(1, m):
        found = None
        for x in range(1, y + 1):
            for z in range(x, m - (y - x)):
                if h(x, y, z) != h(x - 1, y, z):
                    found = (x, z)
                    break
            if found:
                break
        if found is None:
            return ValidationResult(False, f"no distinguishing pair for y={y}")
        witnesses[y] = found
    return ValidationResult(True, witnesses)


# ---------------------------------------------------------------------------
# Valuations and scores


class ScaledLevel(NamedTuple):
    """One committee size of a counting function, scaled to integers.

    ``denominator`` is the lcm ``D`` of the denominators of ``h(., y, .)``;
    ``values[x][z]`` is ``D * h(x, y, z)`` and ``gains[x][z]`` is
    ``D * (h(x+1, y, z) - h(x, y, z))``, the forward-difference weight of
    :func:`weight_from_counting` scaled by ``D``.  Rows are indexed by ballot
    size ``z`` directly (column 0 is unused); entries no ballot can reach
    (``x > min(y, z)``) are 0.  A :class:`WeightTable` step has zero
    ``values``: its weights are the gains.
    """

    denominator: int
    values: tuple[tuple[int, ...], ...]
    gains: tuple[tuple[int, ...], ...]


class Valuation(Record):
    """A pure score function on (ballot, committee) pairs.

    A table-backed valuation carries its counting function as a lookup
    ``counting(x, y, z)`` (``x`` approved committee members, committee size
    ``y``, ballot size ``z``; ``y = 0`` is the empty committee) and scores
    through integer levels built once per committee size; a custom valuation
    carries an arbitrary ``fn(ballot, committee)``, which must depend only on
    the pair itself.  The axiom checkers evaluate it at every ballot and W + c
    of their gain rows (:class:`seqvote.gains.GainRows`) once, at the first
    trace after a universe's cap check, so a raising ``fn`` raises there.
    Valuations compare and hash by identity.
    """

    name: str
    fn: Callable[[frozenset[int], frozenset[int]], Fraction] | None
    counting: Callable[[int, int, int], Fraction] | None

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name: str, fn=None, counting=None):
        if (fn is None) == (counting is None):
            raise ValueError("provide exactly one of fn/counting")
        self.__dict__.update(name=name, fn=fn, counting=counting, _levels={})

    def level(self, y: int, m: int) -> ScaledLevel:
        """The integer rows for committee size ``y`` over ballots of size ``<= m``.

        Built on first use and kept: at most ``m + 1`` levels per ``m``.
        """
        key = (y, m)
        level = self._levels.get(key)
        if level is None:
            h = self.counting
            zero = Fraction(0)
            grid = [
                [h(x, y, z) if 1 <= z and x <= z else zero for z in range(m + 1)]
                for x in range(y + 1)
            ]
            scale = math.lcm(*(v.denominator for row in grid for v in row))
            values = tuple(
                tuple(v.numerator * (scale // v.denominator) for v in row) for row in grid
            )
            gains = tuple(
                tuple(b - a if x < z else 0 for z, (a, b) in enumerate(zip(low, high)))
                for x, (low, high) in enumerate(zip(values, values[1:]))
            )
            level = self._levels[key] = ScaledLevel(scale, values, gains)
        return level


def thiele_valuation(table: ThieleTable, name: str | None = None) -> Valuation:
    return Valuation(name or "thiele", counting=lambda x, y, z: table(x))


def step_thiele_valuation(table: StepThieleTable, name: str | None = None) -> Valuation:
    return Valuation(
        name or "step-thiele", counting=lambda x, y, z: table(x, y) if y else Fraction(0)
    )


def step_scoring_valuation(table: StepCountingTable, name: str | None = None) -> Valuation:
    return Valuation(
        name or "step-scoring",
        counting=lambda x, y, z: table(x, y, z) if y else Fraction(0),
    )


def committee_score(valuation: Valuation, profile: Profile, committee) -> Fraction:
    """The exact total score ``sum_i v(A_i, W)`` over all voters."""
    committee = frozenset(committee)
    if valuation.counting is not None:
        level = valuation.level(len(committee), profile.m)
        values = level.values
        scaled = sum(
            count * values[len(ballot & committee)][len(ballot)]
            for ballot, count in profile.ballot_counts
        )
        return Fraction(scaled, level.denominator)
    total = Fraction(0)
    for ballot, count in profile.ballot_counts:
        total += count * frac(valuation.fn(ballot, committee))
    return total


# ---------------------------------------------------------------------------
# Conversions between counting tables and per-step weight tables


def weight_from_counting(h: StepCountingTable) -> tuple[WeightTable, ...]:
    """Forward differences of ``h``: one weight table per current committee size.

    The table at index ``y`` carries the weight a ballot of size ``z`` that
    already approves ``x`` committee members contributes to a candidate it
    approves when a size-``y`` committee is extended to size ``y+1``.
    """
    m = h.m
    return tuple(
        WeightTable.from_function(m, lambda x, z, y=y: h(x + 1, y + 1, z) - h(x, y + 1, z))
        for y in range(m)
    )


def counting_from_weight(weights: Sequence[WeightTable]) -> StepCountingTable:
    """Telescope per-step weight tables back into a counting table.

    Inverse of :func:`weight_from_counting`: the round trip
    ``weight_from_counting(counting_from_weight(ws)) == ws`` is exact, and the
    resulting table has ``h(0, y, z) = 0`` everywhere.
    """
    m = len(weights)
    if m < 1 or any(w.m != m for w in weights):
        raise ValueError("expected m weight tables of matching size m")

    def fn(x, y, z):
        total = Fraction(0)
        for i in range(x):
            total += weights[y - 1](i, z)
        return total

    return StepCountingTable.from_function(m, fn)


def thiele_as_step_counting(h: ThieleTable) -> StepCountingTable:
    """Embed ``h(x)`` as the step-dependent table ``h(x, y, z) = h(x)``."""
    return StepCountingTable.from_function(h.m, lambda x, y, z: h(x))


def step_thiele_as_step_counting(h: StepThieleTable) -> StepCountingTable:
    """Embed ``h(x, y)`` as the step-dependent table ``h(x, y, z) = h(x, y)``."""
    return StepCountingTable.from_function(h.m, lambda x, y, z: h(x, y))
