"""Torus sampling: grids, signature/nullity sweeps, reports.

Points are generated in deterministic lexicographic order, and a sweep's
samples come back in the order of the points, as the columns of a Sweep:
sigma and eta with NA masks, a source code, certified, the certification
margin min_gap, and sparse per-row flags.  A Lattice stays a Lattice in the
Sweep and is never expanded into points; sample_map is the view
sweep(...).records(), one SampleRecord per point.  The writers, the reports
and the uncertain-sample rule (Sweep.uncertain) read the columns; given a
list of records, they turn it into a Sweep first.  A lattice's CSV rows are
assembled from its numerators, one string per distinct turn and one per
distinct (sigma, eta, source, certified); its PPM pixels from one colour
per distinct outcome.

A sweep groups its points once by the integer numerators k of their turns
k/d (denominator_groups: a grid or root lattice is one group, from index
arithmetic; a list is grouped by common denominator), then evaluates each
group in chunks of rows.  A coordinate counts as 1 iff its numerator is 0 -
never by float comparison.

A whole lattice with start <= 1 - every grid and every tbang_points lattice
of the link's arity - is closed under conjugation k -> -k mod n, and
sigma(conj w) = sigma(w), eta(conj w) = eta(w).  Its sweep evaluates only the
points at or before their conjugate's position (Lattice.conjugate_positions;
a point with every k in {0, n/2} is its own conjugate) and copies each row,
flags included, to its conjugate's row.  The copy is the row that the
conjugate point gives, bit for bit: the A^eps are integers, unit_root makes
lower-half-plane roots exact floating conjugates of their mirrors, so the
coefficients, forms and slope matrices of conj w are exact conjugates of
those of w, and LAPACK's complex arithmetic is symmetric under conjugation;
tests/test_sweep_mirror.py checks it against the unhalved list path.
Lattice slices, other lattices and point lists evaluate every point.

Interior points (no zero numerator) share one coefficient array, one einsum
for the Hermitian forms and one batched eigvalsh call.  Face points where
exactly the distinguished coordinate is 1 are batched the same way over the
slope base: the distinguished column is dropped, one coefficient array gives
both the sublink forms (one batched eigvalsh) and the slope matrices E(omega)
(one stacked SVD in solve_many).  The face hypotheses on the link itself are
checked once per sweep.  Faces are computable in two cases: one color
(omega = 1 via the framed linking matrix) and, for more colors, exactly one
coordinate equal to 1 with matching slope data.  Other faces are Skipped.
Every row is written by its batch: a row the batch rejects (a non-finite
form, an ambiguous or non-real slope, a failed solver) is Skipped and flagged
EvaluationError with the exception the one-point functions raise on it,
named from the batch's own arrays.  The distinguished-coordinate faces when
the link-level face hypotheses fail, and points of another arity than the
link's, are InvalidInput errors.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .clink import ColoredLinkData, SlopeData, hermitian_forms, numerator_coefficients
from .errors import InvalidInput, MissingSeifertData
from .hermitian import DEFAULT_TAU, inertia_many
from .invariants import check_face_hypotheses, signature_at_full_one, slope_signs
from .laurent import LaurentPoly, eval_numerators
from .strata import DEFAULT_TAU_POLY
from .torus import Lattice, TorusPoint, denominator_groups, lattice, turn_texts

SOURCE_INTERIOR = "Interior"
SOURCE_FACE = "Face"
SOURCE_SKIPPED = "Skipped"
SOURCES = (SOURCE_INTERIOR, SOURCE_FACE, SOURCE_SKIPPED)  # a Sweep's source codes

FLAG_INFINITE_SLOPE = "InfiniteSlope"
FLAG_FACE_UNAVAILABLE = "FaceUnavailable"
FLAG_ERROR = "EvaluationError"

# Interior points are evaluated this many at a time, fewer when the forms are
# large: a chunk holds at most _CHUNK_ENTRIES matrix entries.
_CHUNK_POINTS = 1024
_CHUNK_ENTRIES = 1 << 18


class SampleRecord(NamedTuple):
    point: TorusPoint
    sigma: int | None
    eta: int | None
    source: str
    certified: bool
    flags: tuple[str, ...] = ()


Outcome = tuple[int | None, int | None, str, bool]  # (sigma, eta, source, certified)


@dataclass(frozen=True, eq=False)
class Sweep:
    """The samples of a sweep as columns: row i is the sample at points[i].

    points is the sequence as given (a Lattice stays a Lattice, never
    expanded into points).  sigma and eta are int64, 0 where sigma_na and
    eta_na mark them NA; source indexes SOURCES; min_gap is the certification
    margin of the form behind certified (inertia_many's min_gap: the link's
    form at an interior sample, the sublink's at a face sample), NaN where
    no batch measured one.  flags holds the flags of the rows that have
    any, by row.
    """

    points: Sequence[TorusPoint]
    sigma: np.ndarray
    eta: np.ndarray
    sigma_na: np.ndarray
    eta_na: np.ndarray
    source: np.ndarray
    certified: np.ndarray
    min_gap: np.ndarray
    flags: dict[int, tuple[str, ...]]

    @classmethod
    def empty(cls, points: Sequence[TorusPoint]) -> "Sweep":
        """Columns for points with every row pending (source -1)."""
        n = len(points)
        return cls(points, np.zeros(n, np.int64), np.zeros(n, np.int64), np.ones(n, bool), np.ones(n, bool),
                   np.full(n, -1, np.int8), np.ones(n, bool), np.full(n, np.nan), {})

    @classmethod
    def of(cls, records: "Sweep | list[SampleRecord]") -> "Sweep":
        """The records as columns; a Sweep is returned as it is."""
        if isinstance(records, Sweep):
            return records
        points, sigma, eta, source, certified, flags = zip(*records) if records else [()] * 6
        out = cls.empty(list(points))
        for values, column, na in ((sigma, out.sigma, out.sigma_na), (eta, out.eta, out.eta_na)):
            na[:] = [value is None for value in values]
            column[~na] = [value for value in values if value is not None]
        out.source[:] = [SOURCES.index(name) for name in source]
        out.certified[:] = certified
        out.flags.update((i, row_flags) for i, row_flags in enumerate(flags) if row_flags)
        return out

    def _put(self, rows, source: str, sigma=None, eta=None, certified=True, min_gap=np.nan) -> None:
        self.source[rows] = SOURCES.index(source)
        if sigma is not None:
            self.sigma[rows] = sigma
            self.sigma_na[rows] = False
        if eta is not None:
            self.eta[rows] = eta
            self.eta_na[rows] = False
        self.certified[rows] = certified
        self.min_gap[rows] = min_gap

    def _flag(self, rows: np.ndarray, flags: tuple[str, ...]) -> None:
        self.flags.update(dict.fromkeys(rows.tolist(), flags))

    def _copy_to_conjugates(self, conjugate: np.ndarray) -> None:
        # the rows i <= conjugate[i] hold their samples: copy each to row conjugate[i]
        source = np.minimum(np.arange(len(conjugate)), conjugate)
        for column in (self.sigma, self.eta, self.sigma_na, self.eta_na, self.source, self.certified, self.min_gap):
            column[:] = column[source]
        rows = list(self.flags)
        self.flags.update(zip(conjugate[rows].tolist(), map(self.flags.__getitem__, rows)))

    def _fail(self, rows: np.ndarray, name: str) -> None:
        # rows that failed to evaluate, with the name of the exception
        if len(rows):
            self._put(rows, SOURCE_SKIPPED, certified=False)
            self._flag(rows, (FLAG_ERROR, name))

    def outcomes(self) -> tuple[list[Outcome], np.ndarray]:
        """The distinct (sigma, eta, source, certified) of the rows, None for
        NA, and the index of each row's outcome in that list."""
        cols = np.stack([self.sigma, self.eta, self.sigma_na, self.eta_na, self.source, self.certified])
        low = cols.min(axis=1, initial=0)[:, None]
        cols -= low
        dims = tuple((cols.max(axis=1, initial=0) + 1).tolist())
        keys, inv = np.unique(np.ravel_multi_index(tuple(cols), dims), return_inverse=True)
        values = (np.stack(np.unravel_index(keys, dims)) + low).T.tolist()
        return ([(None if sigma_na else sigma, None if eta_na else eta, SOURCES[source], bool(certified))
                 for sigma, eta, sigma_na, eta_na, source, certified in values], inv.reshape(-1))

    def records(self) -> list[SampleRecord]:
        """The samples as records, in the order of the points."""
        outcomes, inv = self.outcomes()
        flags = self.flags
        return [SampleRecord(pt, *outcomes[k], flags.get(i, ()))
                for i, (pt, k) in enumerate(zip(self.points, inv.tolist()))]

    def flagged(self) -> np.ndarray:
        """Which rows carry flags."""
        mask = np.zeros(len(self.source), bool)
        mask[list(self.flags)] = True
        return mask

    def uncertain(self) -> np.ndarray:
        """Which samples were evaluated but are uncertified or flagged."""
        evaluated = (self.source != SOURCES.index(SOURCE_SKIPPED)) & ~self.sigma_na
        return evaluated & (~self.certified | self.flagged())

    def smallest_margin(self) -> tuple[TorusPoint, float] | None:
        """The first point with the smallest finite min_gap, and that gap;
        None when no row has one."""
        finite = np.flatnonzero(np.isfinite(self.min_gap))
        if not len(finite):
            return None
        i = int(finite[np.argmin(self.min_gap[finite])])
        return self.points[i], float(self.min_gap[i])


def uncertain_records(records: list[SampleRecord]) -> list[SampleRecord]:
    """The samples that were evaluated but are uncertified or flagged (Sweep.uncertain)."""
    return [records[i] for i in np.flatnonzero(Sweep.of(records).uncertain()).tolist()]


@dataclass(frozen=True)
class ConstancyViolation:
    point_a: TorusPoint
    point_b: TorusPoint
    sigma_a: int
    sigma_b: int


@dataclass(frozen=True)
class ConcordanceReport:
    verdict: str  # "Obstructed" | "Inconclusive"
    witnesses: tuple[tuple[TorusPoint, int], ...]
    prime: int
    depth: int
    samples: int
    uncertain: int
    errors: int = 0  # samples that failed to evaluate (flagged EvaluationError)
    first_error: tuple[TorusPoint, str] | None = None  # the first of them and its exception type


def grid(n: int, mu: int, include_faces: bool = False) -> Lattice:
    """All points with turns k_j/n; faces (some k_j = 0) only on request."""
    if n < 2:
        raise InvalidInput("grid needs n >= 2")
    return lattice(n, mu, 0 if include_faces else 1)


def tbang_points(p: int, d: int, mu: int) -> Lattice:
    """All points whose coordinates are p^d-th roots of unity.

    Every such point avoids the zeros of integer polynomials taking the value
    +-1 at (1,...,1), so signatures there obstruct concordance.
    """
    if d < 1 or p < 2:
        raise InvalidInput("need a prime p and depth d >= 1")
    if d * mu >= 64:  # at least 2^64 points; p^d is not built
        raise InvalidInput(f"lattice too large: more than {sys.maxsize} points")
    points = lattice(p**d, mu)  # refuses more than sys.maxsize points, so p < 2^63
    if not _is_prime(p):
        raise InvalidInput("need a prime p and depth d >= 1")
    return points


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases up to 37, which no
    composite below 3.3e24 passes."""
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in _PRIME_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 2**r, n) for r in range(s)):
            return False  # b witnesses that n is composite
    return True


def _evaluate_rows(link: ColoredLinkData, slope_data: SlopeData | None, faces_hold: bool,
                   d: int, rows: np.ndarray, nums: np.ndarray, tau: float, out: Sweep) -> None:
    # Fills the rows of out, row rows[r] having the turns nums[r] / d.
    # Interior rows are one batch of forms; face rows with exactly the
    # distinguished coordinate 1 are one batch when faces_hold (the link-level
    # face hypotheses hold) and InvalidInput errors otherwise; other face and
    # multi-one rows are skipped.
    zero = nums == 0
    count = zero.sum(axis=1)
    inner = count == 0
    if inner.any():
        h, scale = hermitian_forms(link, numerator_coefficients(d, nums[inner]))
        sigma, eta, certified, ok, min_gap = inertia_many(h, scale, tau)
        interior = rows[inner]
        out._put(interior[ok], SOURCE_INTERIOR, sigma[ok], eta[ok], certified[ok], min_gap[ok])
        # inertia raises EigensolverFailure on these rows, not NotHermitian:
        # the coefficients of eps and -eps are exact floating conjugates and
        # A^-eps is the transpose of A^eps, so h[j, k] and conj(h[k, j]) add
        # the same products in another order and differ by about 2^mu *
        # machine epsilon * scale at most (sums of subnormals are exact), far
        # below the 1e-9 * scale tolerance; inertia_many rejects a form only
        # if it is not finite or LAPACK fails.
        out._fail(interior[~ok], "EigensolverFailure")
    if link.mu == 1:
        if not inner.all():  # omega = 1, exactly through the framed linking matrix
            out._put(rows[~inner], SOURCE_FACE, signature_at_full_one(link))
        return
    dist = slope_data.distinguished_color if slope_data is not None else 0
    at_dist = (count == 1) & zero[:, dist - 1] if 1 <= dist <= link.mu else np.zeros_like(inner)
    if at_dist.any() and faces_hold:
        coef = numerator_coefficients(d, np.delete(nums[at_dist], dist - 1, axis=1))
        h, scale = hermitian_forms(slope_data.base, coef)
        sigma, _, certified, ok, min_gap = inertia_many(h, scale, tau)
        sign, infinite, error = slope_signs(slope_data, coef, tau)
        error[~ok] = "EigensolverFailure"  # face_parts evaluates the sublink form first, as above
        ok = error == ""
        face = rows[at_dist]
        out._put(face[ok], SOURCE_FACE, (sigma + sign)[ok], None, certified[ok], min_gap[ok])
        out._flag(face[ok & infinite], (FLAG_INFINITE_SLOPE,))
        for name in set(error[~ok].tolist()):
            out._fail(face[error == name], name)
    elif at_dist.any():  # face_parts checks the face hypotheses first
        out._fail(rows[at_dist], "InvalidInput")
    unavailable = rows[(count == 1) & ~at_dist]
    out._put(unavailable, SOURCE_SKIPPED)
    out._flag(unavailable, (FLAG_FACE_UNAVAILABLE,))
    out._put(rows[count > 1], SOURCE_SKIPPED)


def sweep(link: ColoredLinkData, points: Iterable[TorusPoint],
          slope_data: SlopeData | None = None, tau: float = DEFAULT_TAU) -> Sweep:
    """Evaluate signature/nullity over the given points, in their order, as columns.

    A Lattice is kept as it is; any other iterable is read into a list.  A
    whole lattice closed under conjugation (start <= 1) evaluates one point
    of each conjugate pair and copies its row to the other.  A point whose
    arity is not the link's is an InvalidInput error.  A LAPACK
    failure (no finite stack is known to cause one) makes every row of its
    chunk that needed the call an EigensolverFailure, with no retry per row.
    """
    if not link.has_seifert():
        raise MissingSeifertData(f"link {link.name!r} has no Seifert data; nothing to sample")
    size = max(1, min(_CHUNK_POINTS, _CHUNK_ENTRIES // max(1, link.g ** 2)))
    conjugate = None
    if isinstance(points, Lattice):
        groups = denominator_groups(points) if points.mu == link.mu else []
        conjugate = points.conjugate_positions() if groups else None
        if conjugate is not None:  # the rows at or before their conjugate's row
            [(d, rows, nums)] = groups
            first = rows <= conjugate
            groups = [(d, rows[first], nums[first])]
    else:  # the points of the link's arity, grouped by denominator
        points = list(points)
        same = np.array([i for i, pt in enumerate(points) if pt.mu == link.mu])
        groups = [(d, same[rows], nums) for d, rows, nums in denominator_groups([points[i] for i in same])]
    faces_hold = slope_data is not None
    if faces_hold:
        try:
            check_face_hypotheses(link, slope_data)
        except InvalidInput:
            faces_hold = False
    out = Sweep.empty(points)
    for d, rows, nums in groups:
        for b in range(0, len(rows), size):
            _evaluate_rows(link, slope_data, faces_hold, d, rows[b:b + size], nums[b:b + size], tau, out)
    if conjugate is not None:
        out._copy_to_conjugates(conjugate)
    out._fail(np.flatnonzero(out.source < 0), "InvalidInput")  # the points of another arity
    return out


def sample_map(link: ColoredLinkData, points: Iterable[TorusPoint],
               slope_data: SlopeData | None = None, tau: float = DEFAULT_TAU) -> list[SampleRecord]:
    """Evaluate signature/nullity over the given points, in their order: the
    records of sweep."""
    return sweep(link, points, slope_data, tau).records()


def constancy_check(link: ColoredLinkData, hosokawa_poly: LaurentPoly, n: int,
                    tau: float = DEFAULT_TAU,
                    tau_poly: float = DEFAULT_TAU_POLY) -> list[ConstancyViolation]:
    """Verify the signature is constant where the Hosokawa polynomial is not zero.

    Adjacent grid samples (along axes; the full circle for one color,
    including omega = 1 through the linking-matrix value) must agree whenever
    the polynomial is safely nonzero at both nodes and at the midpoint.
    Uncertain samples are left out.  Returns the violations found, ordered by
    the grid position of point_a, then by axis; point_b is the next node after
    point_a along the axis (for one color, turn 0 follows (n-1)/n).
    """
    if hosokawa_poly.mu != link.mu:
        raise InvalidInput("polynomial arity does not match the link")
    points = grid(n, link.mu, include_faces=link.mu == 1)
    result = sweep(link, points, None, tau)
    known = ~result.sigma_na & result.certified
    sigma = result.sigma
    index = np.arange(len(points)).reshape((n - points.start,) * link.mu)

    # the certified pairs (node, next node along the axis) whose signatures differ
    edges = []
    for axis in range(link.mu):
        if link.mu == 1:  # the circle wraps; at n = 2 its two edges are one pair
            a = index[:1] if n == 2 else index
            b = (a + 1) % n
        else:
            a, b = np.delete(index, -1, axis).ravel(), np.delete(index, 0, axis).ravel()
        jump = known[a] & known[b] & (sigma[a] != sigma[b])
        edges.append((a[jump], b[jump], np.full(jump.sum(), axis)))
    a, b, axis = map(np.concatenate, zip(*edges))
    if not len(a):
        return []

    # the polynomial at the nodes and at the edge midpoints, turn (2k + 1) / 2n on the axis
    cut = 10 * tau_poly * (1 + hosokawa_poly.coefficient_mass())
    nums = points.numerators()
    mids = 2 * nums[a]
    mids[np.arange(len(a)), axis] += 1
    node_z = eval_numerators(hosokawa_poly, n, nums)
    mid_z = eval_numerators(hosokawa_poly, 2 * n, mids)
    node_ok = np.hypot(node_z.real, node_z.imag) > cut  # abs(complex) bit for bit
    ok = node_ok[a] & node_ok[b] & (np.hypot(mid_z.real, mid_z.imag) > cut)
    a, b, axis = a[ok], b[ok], axis[ok]
    order = np.lexsort((axis, a))
    a, b = a[order], b[order]
    return [ConstancyViolation(points[i], points[j], sigma_a, sigma_b)
            for i, j, sigma_a, sigma_b in zip(a.tolist(), b.tolist(), sigma[a].tolist(), sigma[b].tolist())]


def concordance_report(link: ColoredLinkData, slope_data: SlopeData | None,
                       p: int, d: int, tau: float = DEFAULT_TAU) -> ConcordanceReport:
    """Obstruction to concordance with the mirror image.

    A certified nonzero signature at a point whose coordinates are p^d-th
    roots of unity separates the link from its mirror (whose signature is the
    negative).  No witness means the test is inconclusive.  Samples that
    failed to evaluate are counted as errors, with the first of them.
    """
    result = sweep(link, tbang_points(p, d, link.mu), slope_data, tau)
    # a Skipped sample has no sigma, so a witness is an evaluated sample
    rows = np.flatnonzero(~result.sigma_na & (result.sigma != 0) & result.certified & ~result.flagged())
    witnesses = tuple((result.points[i], sigma) for i, sigma in zip(rows.tolist(), result.sigma[rows].tolist()))
    failed = sorted(i for i, flags in result.flags.items() if FLAG_ERROR in flags)
    verdict = "Obstructed" if witnesses else "Inconclusive"
    first_error = (result.points[failed[0]], result.flags[failed[0]][1]) if failed else None
    return ConcordanceReport(verdict, witnesses, p, d, len(result.points), int(result.uncertain().sum()),
                             len(failed), first_error)


# -- output formats --------------------------------------------------------------


def _na(value: int | None) -> str:
    return "NA" if value is None else str(value)


def records_to_csv(records: Sweep | list[SampleRecord], mu: int) -> str:
    result = Sweep.of(records)
    outcomes, inv = result.outcomes()
    tails = np.array([f",{_na(sigma)},{_na(eta)},{source},{'true' if certified else 'false'}\n"
                      for sigma, eta, source, certified in outcomes], dtype=object)
    header = ",".join([f"q{i}" for i in range(1, mu + 1)] + ["sigma", "eta", "source", "certified"])
    return header + "\n" + "".join((turn_texts(result.points) + tails[inv]).tolist())


def records_to_json(records: Sweep | list[SampleRecord], mu: int) -> str:
    result = Sweep.of(records)
    outcomes, inv = result.outcomes()
    flags = result.flags
    rows = zip(turn_texts(result.points).tolist(), map(outcomes.__getitem__, inv.tolist()))
    payload = {
        "mu": mu,
        "records": [
            {
                "turns": texts.split(","),
                "sigma": sigma,
                "eta": eta,
                "source": source,
                "certified": certified,
                "flags": list(flags.get(i, ())),
            }
            for i, (texts, (sigma, eta, source, certified)) in enumerate(rows)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _pixel(sigma: int | None, source: str, certified: bool) -> tuple[int, int, int]:
    if source == SOURCE_SKIPPED or sigma is None:
        return (0, 0, 0)
    if not certified:
        return (160, 160, 160)
    if sigma == 0:
        return (255, 255, 255)
    shade = max(0, 255 - 64 * abs(sigma))
    return (255, shade, shade) if sigma > 0 else (shade, shade, 255)


def records_to_ppm(records: Sweep | list[SampleRecord], width: int, height: int) -> str:
    """P3 pixmap, one pixel per record, rows in record order (k1 major)."""
    result = Sweep.of(records)
    if width * height != len(result.points):
        raise InvalidInput(f"{len(result.points)} records do not fill {width}x{height}")
    outcomes, inv = result.outcomes()
    colours = np.array(["{} {} {}".format(*_pixel(sigma, source, certified))
                        for sigma, _, source, certified in outcomes], dtype=object)
    pixels = colours[inv].tolist()
    lines = ["P3", f"{width} {height}", "255"]
    lines += [" ".join(pixels[r0 * width:(r0 + 1) * width]) for r0 in range(height)]
    return "\n".join(lines) + "\n"
