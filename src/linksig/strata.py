"""Elementary ideals of a module presentation and the torus stratification.

A presentation matrix has n relations (rows) by m generators (columns),
n >= m.  The r-th elementary ideal is generated by the (m-r+1)-minors, with
the conventions E_r = (0) for r <= 0 and E_r = (1) for r > m.  The stratum
of a pointed-torus sample is the largest r whose ideal vanishes there; it
predicts the nullity when at most two coordinates equal 1.

classify sorts a whole sequence of samples into strata and returns the
result as numpy columns (Strata): the index, whether the sample is
Uncertain, and how many coordinates equal 1, counted from the numerators.
A Lattice (ideals --classify sweeps lattice(n, mu)[1:]) is never expanded
into points.  Samples that share the arity and the common denominator d of
their turns form one group with integer numerators
(torus.denominator_groups, which keeps a lattice one group); per group and
per elementary ideal E_r, r = 1, 2, ..., the exponent sums of the distinct
monomials of the ideal's nonzero generators are one integer matrix product
and their roots one table (laurent.eval_family), each generator is summed
from that table and compared with its cut, and a sample drops out at its
first non-vanishing ideal.  The classification is the one a per-sample loop
over the reference vanishes_at (tests/per_point.py) gives, bit for bit: the
exponent sums are exact integers, the roots are the same unit_root values,
the terms are summed in the same order, and magnitudes come from np.hypot,
which rounds as abs(complex) does.  A sample is flagged Uncertain when a
magnitude it was classified by lies in the uncertain band of its cut, the
band that also decides the certification of inertia
(hermitian.in_uncertain_band).  Of generators whose terms agree in order up
to a global sign, only the first is evaluated; the others would give the
same magnitudes bit for bit.  The ideals CSV (strata_to_csv) is written
from the columns in runs of rows that share their leading turns
(torus.csv_lines): one string per distinct turn and one tail per (index,
predicted, flags).
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .clink import malformed_record, strict_int
from .errors import BasePoint, InvalidInput
from .hermitian import in_uncertain_band
from .laurent import LaurentPoly, eval_family, format_poly, gcd_many, parse_poly, unit_normalize
from .torus import TorusPoint, csv_lines, denominator_groups

DEFAULT_TAU_POLY = 1e-8

FLAG_MORE_THAN_TWO_ONES = "MoreThanTwoOnes"
FLAG_UNCERTAIN = "Uncertain"


class PresentationMatrix:
    """Relations-by-generators matrix over the Laurent ring."""

    def __init__(self, mu: int, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise InvalidInput("presentation matrix must be nonempty")
        m = len(rows[0])
        for row in rows:
            if len(row) != m:
                raise InvalidInput("ragged presentation matrix")
            for p in row:
                if not isinstance(p, LaurentPoly) or p.mu != mu or p.half_step:
                    raise InvalidInput("entries must be integer-step polynomials of matching arity")
        if len(rows) < m:
            raise InvalidInput(f"need n >= m, got n={len(rows)} relations, m={m} generators")
        self.mu = mu
        self.entries = rows
        self.n_relations = len(rows)
        self.m_generators = m
        self._ideals: dict[int, tuple[LaurentPoly, ...]] = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PresentationMatrix):
            return NotImplemented
        return self.mu == other.mu and self.entries == other.entries

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...],
              cache: dict | None = None) -> LaurentPoly:
        """Exact determinant of the selected square submatrix."""
        if len(rows) != len(cols):
            raise InvalidInput("minor needs equally many rows and columns")
        if cache is None:
            cache = {}
        return self._det(tuple(rows), tuple(cols), cache)

    def _det(self, rows: tuple[int, ...], cols: tuple[int, ...], cache: dict) -> LaurentPoly:
        key = (rows, cols)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if not rows:
            out = LaurentPoly.const(1, self.mu)
        elif len(rows) == 1:
            out = self.entries[rows[0]][cols[0]]
        else:
            out = LaurentPoly.zero(self.mu)
            r0 = rows[0]
            rest = rows[1:]
            for j, c in enumerate(cols):
                entry = self.entries[r0][c]
                if entry.is_zero():
                    continue
                sub = self._det(rest, cols[:j] + cols[j + 1:], cache)
                term = entry * sub
                out = out + term if j % 2 == 0 else out - term
        cache[key] = out
        return out

    def elementary_ideal(self, r: int) -> tuple[LaurentPoly, ...]:
        """Generators of E_r; cached per presentation."""
        if r in self._ideals:
            return self._ideals[r]
        if r <= 0:
            gens: tuple[LaurentPoly, ...] = (LaurentPoly.zero(self.mu),)
        elif r > self.m_generators:
            gens = (LaurentPoly.const(1, self.mu),)
        else:
            size = self.m_generators - r + 1
            if size > min(self.n_relations, self.m_generators):
                gens = (LaurentPoly.zero(self.mu),)
            else:
                cache: dict = {}
                gens = tuple(
                    self.minor(rows, cols, cache)
                    for rows in combinations(range(self.n_relations), size)
                    for cols in combinations(range(self.m_generators), size)
                )
        self._ideals[r] = gens
        return gens


def first_ideal_gcd(p: PresentationMatrix) -> LaurentPoly:
    """gcd of the generators of E_1, unit-normalized; zero ideal gives 0."""
    gens = [g for g in p.elementary_ideal(1) if not g.is_zero()]
    if not gens:
        return LaurentPoly.zero(p.mu)
    return unit_normalize(gcd_many(gens))


def _vanishing_cut(g: LaurentPoly, tau_poly: float) -> float:
    """The bound tau_poly * (1 + coefficient mass) below which |g| counts as 0."""
    try:
        return tau_poly * float(1 + g.coefficient_mass())
    except OverflowError:
        raise InvalidInput("a generator's coefficient mass does not fit a float") from None


class Strata(NamedTuple):
    """The classification of a point sequence, one row per point, as columns.

    points is the sequence as given (a Lattice stays a Lattice); index is
    the largest r whose elementary ideal vanishes (int64), uncertain whether
    a magnitude the row was classified by lies in the uncertain band, and
    ones the number of coordinates equal to 1 (int64), more than two of
    which suppress the nullity prediction.
    """

    points: Sequence[TorusPoint]
    index: np.ndarray
    uncertain: np.ndarray
    ones: np.ndarray


def _distinct_up_to_sign(gens: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    """The nonzero generators, without those whose terms, in order, are
    those of an earlier one or their negatives.  A repeat changes no
    classification: negating every term negates the float sum exactly,
    np.hypot ignores the sign, and the cut is the same.  Generators with the
    same terms in another order stay, since their sums can differ in the
    last bit."""
    distinct: dict[tuple, LaurentPoly] = {}
    for g in gens:
        if not g.is_zero():
            sign = 1 if next(iter(g.terms.values())) > 0 else -1
            distinct.setdefault(tuple((mono, sign * c) for mono, c in g.terms.items()), g)
    return list(distinct.values())


def classify(p: PresentationMatrix, points: Sequence[TorusPoint],
             tau_poly: float = DEFAULT_TAU_POLY) -> Strata:
    """The largest r whose elementary ideal vanishes at each sample, as columns.

    Index r >= 1 needs every nonzero generator of E_1, ..., E_r to vanish:
    |value| at most tau_poly * (1 + coefficient mass).  A sample is flagged
    Uncertain when a generator of one of those ideals, or of the first that
    does not vanish, has |value| in the uncertain band of its cut
    (hermitian.in_uncertain_band).  A point of
    another arity is an InvalidInput error and the base point a BasePoint
    error, both checked from the numerators of the denominator groups; the
    first offending point decides.  The samples are classified in batches,
    one per group (see the module docstring).
    """
    index = np.zeros(len(points), dtype=np.int64)
    uncertain = np.zeros(len(points), dtype=bool)
    ones = np.zeros(len(points), dtype=np.int64)
    groups = denominator_groups(points)
    offences = []  # (the group's first offending row, its error)
    for _, rows, nums in groups:
        ones[rows] = (nums == 0).sum(axis=1)
        base = rows[ones[rows] == nums.shape[1]]
        if nums.shape[1] != p.mu:
            offences.append((rows[0], InvalidInput(f"point arity {nums.shape[1]} != presentation arity {p.mu}")))
        elif len(base):
            offences.append((base[0], BasePoint("the stratification lives on the pointed torus")))
    if offences:
        raise min(offences, key=lambda offence: offence[0])[1]
    for d, live, nums in groups:  # live: the samples whose index is still climbing
        for r in range(1, p.m_generators + 1):
            gens = _distinct_up_to_sign(p.elementary_ideal(r))
            near = np.zeros(len(live), dtype=bool)
            vanish = np.ones(len(live), dtype=bool)
            # a value can overflow only if its generator's coefficient mass
            # does, and _vanishing_cut refuses that generator
            with np.errstate(over="ignore", invalid="ignore"):
                for g, z in zip(gens, eval_family(gens, d, nums)):
                    v = np.hypot(z.real, z.imag)  # abs(complex) bit for bit; np.abs may differ
                    cut = _vanishing_cut(g, tau_poly)
                    near |= in_uncertain_band(v, cut)
                    vanish &= ~(v > cut)
            uncertain[live] |= near
            live, nums = live[vanish], nums[vanish]
            index[live] = r
            if not len(live):
                break
    return Strata(points, index, uncertain, ones)


def _csv_tail(code: int) -> str:
    # code = (index * 2 + more than two ones) * 2 + uncertain
    index, unsure = divmod(code, 2)
    index, many = divmod(index, 2)
    flags = [FLAG_MORE_THAN_TWO_ONES] * many + [FLAG_UNCERTAIN] * unsure  # sorted
    return f",{index},{'NA' if many else index},{'|'.join(flags)}\n"


def strata_to_csv(result: Strata, mu: int) -> str:
    """The ideals CSV: turns, index, predicted_nullity (NA when suppressed)
    and the sorted flags joined by '|', one line per sample.

    Each row is its turns plus the tail of its (index, predicted, flags)
    code, built from runs of rows (torus.csv_lines).
    """
    codes = (result.index * 2 + (result.ones > 2)) * 2 + result.uncertain
    tails = [_csv_tail(code) for code in range(4 * int(result.index.max(initial=0)) + 4)]
    header = ",".join([f"q{i}" for i in range(1, mu + 1)] + ["index", "predicted_nullity", "flags"])
    return header + "\n" + csv_lines(result.points, tails, codes)


# -- file schema ----------------------------------------------------------------


def presentation_to_dict(p: PresentationMatrix) -> dict:
    return {
        "mu": p.mu,
        "n_relations": p.n_relations,
        "m_generators": p.m_generators,
        "entries": [[format_poly(q) for q in row] for row in p.entries],
    }


def presentation_from_dict(data: dict) -> PresentationMatrix:
    with malformed_record("presentation"):
        mu = strict_int(data["mu"], "mu")
        rows = [[parse_poly(text, mu=mu) for text in row] for row in data["entries"]]
        p = PresentationMatrix(mu, rows)
        if "n_relations" in data and strict_int(data["n_relations"], "n_relations") != p.n_relations:
            raise InvalidInput(f"n_relations={data['n_relations']} does not match {p.n_relations} rows")
        if "m_generators" in data and strict_int(data["m_generators"], "m_generators") != p.m_generators:
            raise InvalidInput(f"m_generators={data['m_generators']} does not match {p.m_generators} columns")
    return p


def load_presentation(path: str) -> PresentationMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return presentation_from_dict(json.load(fh))


def save_presentation(p: PresentationMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(presentation_to_dict(p), fh, indent=2)
        fh.write("\n")
