"""Points on the torus T^mu with exact rational angle coordinates.

A coordinate is stored as a "turn" q in [0, 1), meaning omega = e^(2*pi*i*q).
Keeping the turns as exact fractions makes face detection (omega_j = 1) a
matter of q_j == 0, never a floating comparison, and lets evaluation reduce
angles mod 1 exactly before any float enters the picture.

A lattice of points (Lattice: every turn k/n for one n <= sys.maxsize) is a
sequence that knows its denominator: the int64 numerators k of any slice of
it come from index arithmetic, and its points are assembled from shared
turns k/n without normalising each turn again (a whole lattice in one
product over its turns, a slice point by point).  Batched evaluation groups
points by the common denominator d of their turns (denominator_groups; a
lattice is one group) and reads unit_root(k, d) for integer arrays of k from
a table of the distinct k (unit_roots).  The distinct k of an int64 array
no shorter than d are marked in a d-long table, with no sort
(map_keys); turn_texts formats a lattice's turns the same way, each
distinct k/n once.  A whole lattice with start <= 1 is closed under
conjugation, and conjugate_positions gives each point's conjugate from the
same index arithmetic.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InvalidInput

_ROOT_CACHE: dict[tuple[int, int], complex] = {}


def unit_root(num: int, den: int) -> complex:
    """e^(2*pi*i*num/den), reduced mod 1.

    Roots in the lower half plane are produced as exact floating conjugates
    of their mirror images, so conjugate coefficient pairs cancel bit for bit.
    """
    if den <= 0:
        raise InvalidInput("denominator must be positive")
    num %= den
    g = math.gcd(num, den)
    num //= g
    den //= g
    key = (num, den)
    z = _ROOT_CACHE.get(key)
    if z is not None:
        return z
    if num == 0:
        z = complex(1.0, 0.0)
    elif 2 * num == den:
        z = complex(-1.0, 0.0)
    elif 2 * num > den:
        z = unit_root(den - num, den).conjugate()
    else:
        z = cmath.exp(complex(0.0, 2.0 * math.pi * (num / den)))
    if len(_ROOT_CACHE) < 65536:
        _ROOT_CACHE[key] = z
    return z


def map_keys(ks: np.ndarray, den: int, value: Callable[[int], object], dtype) -> np.ndarray:
    """value(k) for every entry k of an integer array, 0 <= k < den, as an
    array of ks's shape, calling value once per distinct k.

    An int64 array with den <= ks.size marks its keys in a den-long table
    and reads the values from a den-long table, with no sort; any other
    array goes through np.unique.
    """
    if ks.dtype == np.int64 and den <= ks.size:
        present = np.zeros(den, dtype=bool)
        present[ks] = True
        keys = np.flatnonzero(present)
        table = np.zeros(den, dtype=dtype)
        table[keys] = [value(k) for k in keys.tolist()]
        return table[ks]
    keys, inv = np.unique(ks, return_inverse=True)
    return np.array([value(k) for k in keys.tolist()], dtype=dtype)[inv.reshape(ks.shape)]


def unit_roots(ks: np.ndarray, den: int) -> np.ndarray:
    """unit_root(k, den) for every entry k of an integer array, 0 <= k < den.

    Each value is the one unit_root returns, read from a table of the
    distinct entries (map_keys).
    """
    return map_keys(ks, den, lambda k: unit_root(k, den), np.complex128)


# Python's default limit on int-from-string conversion, which parse_poly enforces too
_MAX_TURN_DIGITS = 4300
_EXPONENT_RE = re.compile(r"e[-+]?(\d+(?:_\d+)*)$", re.IGNORECASE)


def _parse_turn(text: str) -> Fraction:
    """Fraction(text), refusing a turn whose integers would have more than
    _MAX_TURN_DIGITS digits: an exponent like 1e10000000 would otherwise
    take seconds (or, larger, forever) to build."""
    m = _EXPONENT_RE.search(text)
    digits = sum(ch.isdigit() for ch in (text[:m.start()] if m else text))
    if m:
        exponent = m.group(1).replace("_", "").lstrip("0")
        digits += int(exponent or 0) if len(exponent) < 10 else math.inf
    if digits > _MAX_TURN_DIGITS:
        raise InvalidInput(f"turn {_excerpt(text)!r} needs more than {_MAX_TURN_DIGITS} digits")
    return Fraction(text)


def _excerpt(text: str, limit: int = 60) -> str:
    """text, or its start and length when longer than limit, for one-line messages."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


@dataclass(frozen=True)
class TorusPoint:
    """A point of T^mu given by exact rational turns, one per color."""

    turns: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.turns:
            raise InvalidInput("a torus point needs at least one coordinate")
        normalized = tuple(Fraction(q) % 1 for q in self.turns)
        object.__setattr__(self, "turns", normalized)

    @classmethod
    def of(cls, *turns) -> "TorusPoint":
        return cls(tuple(Fraction(q) for q in turns))

    @classmethod
    def from_string(cls, text: str) -> "TorusPoint":
        """Parse comma-separated turns, e.g. "0,1/4,1/4" or "2.5e-1"."""
        parts = [p.strip() for p in text.split(",") if p.strip() != ""]
        if not parts:
            raise InvalidInput(f"no turns in {_excerpt(text)!r}")
        try:
            return cls(tuple(_parse_turn(p) for p in parts))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad turn in {_excerpt(text)!r}: {_excerpt(str(exc))}") from exc

    @property
    def mu(self) -> int:
        return len(self.turns)

    def coordinate(self, i: int) -> complex:
        """The coordinate omega_i (1-based color index)."""
        q = self.turns[i - 1]
        return unit_root(q.numerator, q.denominator)

    def coordinates(self) -> tuple[complex, ...]:
        return tuple(self.coordinate(i) for i in range(1, self.mu + 1))

    def unit_coordinates(self) -> tuple[int, ...]:
        """1-based indices of the coordinates that equal 1 exactly."""
        return tuple(i + 1 for i, q in enumerate(self.turns) if q == 0)

    def is_interior(self) -> bool:
        return all(q != 0 for q in self.turns)

    def is_basepoint(self) -> bool:
        return all(q == 0 for q in self.turns)

    def conjugate(self) -> "TorusPoint":
        return _normalized_point(tuple((-q) % 1 for q in self.turns))

    def drop(self, color: int) -> "TorusPoint":
        """The point with the given color's coordinate removed."""
        if not 1 <= color <= self.mu:
            raise InvalidInput(f"color {color} out of range")
        if self.mu == 1:
            raise InvalidInput("cannot drop the only coordinate")
        return _normalized_point(tuple(q for i, q in enumerate(self.turns) if i + 1 != color))

    def turn_strings(self) -> tuple[str, ...]:
        return tuple(str(q) for q in self.turns)

    def __str__(self) -> str:
        return "(" + ", ".join(self.turn_strings()) + ")"


def turn_formatter() -> Callable[[TorusPoint], list[str]]:
    """point -> the strings of its turns, as turn_strings, formatting each
    distinct turn object once.

    The points of a lattice share their turn objects, so one output of a
    lattice formats each turn k/n once.  Turns are keyed by object id, and
    every key's object is kept alive, so no id is reused while the formatter
    lives.
    """
    strings: dict[int, str] = {}
    kept: list[Fraction] = []

    def new(q: Fraction) -> str:
        kept.append(q)
        strings[id(q)] = text = str(q)
        return text

    def format_turns(point: TorusPoint) -> list[str]:
        return [strings.get(id(q)) or new(q) for q in point.turns]

    return format_turns


def _normalized_point(turns: tuple[Fraction, ...]) -> TorusPoint:
    # turns already Fractions in [0, 1): skip __post_init__'s normalisation
    pt = object.__new__(TorusPoint)
    object.__setattr__(pt, "turns", turns)
    return pt


@dataclass(frozen=True)
class Lattice(Sequence[TorusPoint]):
    """The points with turns k_j/n, start <= k_j < n, lexicographic in (k_1, ..., k_mu).

    indices selects positions of the whole lattice (None: all of them);
    indexing with a slice gives the Lattice of those positions.  numerators()
    gives the int64 k_j of the selected points from index arithmetic,
    without building a point or a Fraction.  The whole lattice iterates as
    one product over its shared turns, a slice point by point.  Both n and
    the number of points are at most sys.maxsize, the most a sequence can
    count and an int64 can hold.
    """

    n: int
    mu: int
    start: int = 0
    indices: range | None = None
    # Fraction(k, n) by k, shared with every slice: each turn is built once
    _turns: dict[int, Fraction] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise InvalidInput("a torus point needs at least one coordinate")
        if self.n > sys.maxsize:
            raise InvalidInput(f"lattice too large: denominator above {sys.maxsize}")
        if not 0 <= self.start <= self.n:
            raise InvalidInput(f"lattice start {self.start} outside [0, {self.n}]")
        if (self.n - self.start) ** self.mu > sys.maxsize:
            raise InvalidInput(f"lattice too large: more than {sys.maxsize} points")
        if self.indices is None:
            object.__setattr__(self, "indices", self._whole())

    def _whole(self) -> range:
        return range((self.n - self.start) ** self.mu)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Lattice(self.n, self.mu, self.start, self.indices[i], self._turns)
        return _normalized_point(tuple(self._turn(k) for k in self._digits(self.indices[i])))

    def _digits(self, flat: int) -> list[int]:
        # (k_1, ..., k_mu) of the point at a position of the whole lattice
        ks = []
        for _ in range(self.mu):
            flat, k = divmod(flat, self.n - self.start)
            ks.append(k + self.start)
        return ks[::-1]

    def _turn(self, k: int) -> Fraction:
        q = self._turns.get(k)
        if q is None:
            q = self._turns[k] = Fraction(k, self.n)
        return q

    def __iter__(self) -> Iterator[TorusPoint]:
        if self.indices != self._whole():
            return super().__iter__()
        table = [self._turn(k) for k in range(self.start, self.n)]
        return map(_normalized_point, product(table, repeat=self.mu))

    def numerators(self) -> np.ndarray:
        """The (P, mu) int64 array of k_j."""
        r = self.indices
        flat = np.arange(r.start, r.stop, r.step, dtype=np.int64)
        ks = np.stack(np.unravel_index(flat, (self.n - self.start,) * self.mu), axis=1)
        ks += self.start
        return ks.astype(np.int64, copy=False)

    def conjugate_positions(self) -> np.ndarray | None:
        """The position of each point's conjugate, the point with turns
        (-k_j mod n)/n, as an int64 array; None unless this is a whole
        lattice with start <= 1, the lattices closed under conjugation.

        Positions are lexicographic in the numerators, so the conjugate of
        the point with numerators k sits at the flat position of
        (-k mod n) - start.  A point with every k_j in {0, n/2} is its own
        conjugate.
        """
        if self.start > 1 or self.indices != self._whole():
            return None
        ks = (-self.numerators()) % self.n - self.start
        return np.ravel_multi_index(tuple(ks.T), (self.n - self.start,) * self.mu).astype(np.int64, copy=False)


def turn_texts(points: Sequence[TorusPoint]) -> np.ndarray:
    """The object array of each point's turn strings joined by commas (no
    turn string holds a comma).

    A lattice formats each distinct numerator k once, as str(Fraction(k, n)),
    and joins its columns by array additions; other points go through
    turn_formatter.
    """
    if isinstance(points, Lattice):
        nums, n = points.numerators(), points.n
        texts = map_keys(nums[:, 0], n, lambda k: str(Fraction(k, n)), object)
        rest = map_keys(nums[:, 1:], n, lambda k: "," + str(Fraction(k, n)), object)
        for j in range(points.mu - 1):
            texts = texts + rest[:, j]
        return texts
    turn_strings = turn_formatter()
    return np.array([",".join(turn_strings(pt)) for pt in points], dtype=object)


def lattice(n: int, mu: int, start: int = 0) -> Lattice:
    """All points with turns k_j/n, start <= k_j < n, lexicographic in (k_1, ..., k_mu)."""
    return Lattice(n, mu, start)


def denominator_groups(points: Sequence[TorusPoint]) -> list[tuple[int, Sequence[int], np.ndarray]]:
    """The points grouped by the common denominator d of their turns.

    One (d, rows, nums) triple per d, in order of first appearance: rows
    index the group's points in the sequence, and nums[i, j] / d is turn j of
    points[rows[i]], an integer array: int64 for d < 2^63 (numerators lie in
    [0, d)), Python ints in an object array beyond.  The points must share one
    arity.  A Lattice (or a slice of one; n <= sys.maxsize, so int64) is the
    single group (n, rows, numerators()): its numerators come from index
    arithmetic, and every consumer reduces k/n to lowest terms (unit_root),
    so the values are those of the per-point grouping.
    """
    if isinstance(points, Lattice):
        return [(points.n, np.arange(len(points)), points.numerators())] if len(points) else []
    groups: dict[int, list[int]] = {}
    for row, pt in enumerate(points):
        groups.setdefault(math.lcm(*(q.denominator for q in pt.turns)), []).append(row)
    return [(d, rows, np.array([[q.numerator * (d // q.denominator) for q in points[r].turns]
                                for r in rows], dtype=np.int64 if d < 1 << 63 else object))
            for d, rows in groups.items()]
