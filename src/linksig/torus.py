"""Points on the torus T^mu with exact rational angle coordinates.

A coordinate is stored as a "turn" q in [0, 1), meaning omega = e^(2*pi*i*q).
Keeping the turns as exact fractions makes face detection (omega_j = 1) a
matter of q_j == 0, never a floating comparison, and lets evaluation reduce
angles mod 1 exactly before any float enters the picture.

Lattices of points (lattice) share one table of turns k/n: the points are
assembled from the table without normalising each turn again.  Batched
evaluation groups points by the common denominator d of their turns
(denominator_groups) and reads unit_root(k, d) for integer arrays of k from
a table of the distinct k (unit_roots).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

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


def unit_roots(ks: np.ndarray, den: int) -> np.ndarray:
    """unit_root(k, den) for every entry k of an integer array, 0 <= k < den.

    Each value is the one unit_root returns, read from a table of the
    distinct entries.
    """
    keys, inv = np.unique(ks, return_inverse=True)
    table = np.array([unit_root(int(k), den) for k in keys], dtype=np.complex128)
    return table[inv.reshape(ks.shape)]


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
        """Parse comma-separated turns, e.g. "0,1/4,1/4"."""
        parts = [p.strip() for p in text.split(",") if p.strip() != ""]
        if not parts:
            raise InvalidInput(f"no turns in {text!r}")
        try:
            return cls(tuple(Fraction(p) for p in parts))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad turn in {text!r}: {exc}") from exc

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


def _normalized_point(turns: tuple[Fraction, ...]) -> TorusPoint:
    # turns already Fractions in [0, 1): skip __post_init__'s normalisation
    pt = object.__new__(TorusPoint)
    object.__setattr__(pt, "turns", turns)
    return pt


def lattice(n: int, mu: int, start: int = 0) -> Iterator[TorusPoint]:
    """All points with turns k_j/n, start <= k_j < n, lexicographic in (k_1, ..., k_mu).

    Each turn Fraction(k, n) is built once and shared by every point holding
    it.
    """
    if mu < 1:
        raise InvalidInput("a torus point needs at least one coordinate")
    for turns in product([Fraction(k, n) for k in range(start, n)], repeat=mu):
        yield _normalized_point(turns)


def denominator_groups(points: Sequence[TorusPoint]) -> list[tuple[int, list[int], np.ndarray]]:
    """The points grouped by the common denominator d of their turns.

    One (d, rows, nums) triple per d, in order of first appearance: rows
    index the group's points in the sequence, and nums[i, j] / d is turn j of
    points[rows[i]], an integer array: int64 for d < 2^63 (numerators lie in
    [0, d)), Python ints in an object array beyond.  The points must share one
    arity.
    """
    groups: dict[int, list[int]] = {}
    for row, pt in enumerate(points):
        groups.setdefault(math.lcm(*(q.denominator for q in pt.turns)), []).append(row)
    return [(d, rows, np.array([[q.numerator * (d // q.denominator) for q in points[r].turns]
                                for r in rows], dtype=np.int64 if d < 1 << 63 else object))
            for d, rows in groups.items()]
