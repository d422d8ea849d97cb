"""Torus sampling: grids, signature/nullity sweeps, reports.

Points are generated in deterministic lexicographic order and records come
back in the order of the points.  A sweep groups its points once by the
integer numerators k of their turns k/d (denominator_groups: a grid or root
lattice is one group, from index arithmetic; a list is grouped by common
denominator), then evaluates each group in chunks of rows.  A coordinate
counts as 1 iff its numerator is 0 - never by float comparison.

Interior points (no zero numerator) share one coefficient array, one einsum
for the Hermitian forms and one batched eigvalsh call.  Face points where
exactly the distinguished coordinate is 1 are batched the same way over the
slope base: the distinguished column is dropped, one coefficient array gives
both the sublink forms (one batched eigvalsh) and the slope matrices E(omega)
(one stacked SVD in solve_many).  The face hypotheses on the link itself are
checked once per sweep.  Faces are computable in two cases: one color
(omega = 1 via the framed linking matrix) and, for more colors, exactly one
coordinate equal to 1 with matching slope data.  Other faces are Skipped.
Any point a batch cannot classify (a non-finite or non-Hermitian form, an
ambiguous or non-real slope, a failed solver) is evaluated on its own, so
its record carries the exact error.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .clink import ColoredLinkData, SlopeData, hermitian_forms, hermitian_with_scale, numerator_coefficients
from .errors import InvalidInput, LinksigError, MissingSeifertData
from .hermitian import DEFAULT_TAU, inertia, inertia_many
from .invariants import check_face_hypotheses, face_parts, signature_at_full_one, slope_signs
from .laurent import LaurentPoly, eval_numerators
from .strata import DEFAULT_TAU_POLY
from .torus import Lattice, TorusPoint, denominator_groups, lattice, turn_formatter

SOURCE_INTERIOR = "Interior"
SOURCE_FACE = "Face"
SOURCE_SKIPPED = "Skipped"

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


def uncertain_records(records: list[SampleRecord]) -> list[SampleRecord]:
    """The samples that were evaluated but are uncertified or flagged."""
    return [rec for rec in records
            if (not rec.certified or rec.flags) and rec.source != SOURCE_SKIPPED and rec.sigma is not None]


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
    points = lattice(p**d, mu)  # refuses more than sys.maxsize points, before the trial division
    if any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
        raise InvalidInput("need a prime p and depth d >= 1")
    return points


def _evaluate_point(link: ColoredLinkData, slope_data: SlopeData | None,
                    point: TorusPoint, tau: float) -> SampleRecord:
    ones = point.unit_coordinates()
    try:
        if not ones:
            h, scale = hermitian_with_scale(link, point)
            res = inertia(h, tau, scale=scale)
            return SampleRecord(point, res.signature, res.nullity, SOURCE_INTERIOR, res.certified)
        if len(ones) == 1:
            if link.mu == 1:
                return SampleRecord(point, signature_at_full_one(link), None, SOURCE_FACE, True)
            if slope_data is not None and ones[0] == slope_data.distinguished_color:
                parts = face_parts(link, slope_data, point, tau)
                flags = () if parts.slope_value.is_finite else (FLAG_INFINITE_SLOPE,)
                return SampleRecord(point, parts.signature, None, SOURCE_FACE,
                                    parts.sublink_inertia.certified, flags)
            return SampleRecord(point, None, None, SOURCE_SKIPPED, True, (FLAG_FACE_UNAVAILABLE,))
        return SampleRecord(point, None, None, SOURCE_SKIPPED, True)
    except LinksigError as exc:
        return SampleRecord(point, None, None, SOURCE_SKIPPED, False,
                            (FLAG_ERROR, type(exc).__name__))


def _evaluate_rows(link: ColoredLinkData, slope_data: SlopeData | None, batch_faces: bool,
                   points: list[TorusPoint], d: int, rows: np.ndarray, nums: np.ndarray,
                   tau: float, records: list[SampleRecord | None]) -> None:
    # Fills records[i] for the rows it classifies, points[rows[r]] having the
    # turns nums[r] / d.  Interior rows are one batch of forms; face rows with
    # exactly the distinguished coordinate 1 are one batch when batch_faces
    # (the link-level face hypotheses hold); other face and multi-one rows are
    # skipped here.  The rest, and any row a batch cannot classify, are left
    # empty for _evaluate_point.
    zero = nums == 0
    count = zero.sum(axis=1)
    inner = count == 0
    if inner.any():
        h, scale = hermitian_forms(link, numerator_coefficients(d, nums[inner]))
        results = zip(rows[inner].tolist(), *(col.tolist() for col in inertia_many(h, scale, tau)[:4]))
        for i, sigma, eta, certified, ok in results:
            if ok:
                records[i] = SampleRecord(points[i], sigma, eta, SOURCE_INTERIOR, certified)
    if link.mu == 1:
        return  # omega = 1 through the linking matrix, per point
    dist = slope_data.distinguished_color if slope_data is not None else 0
    at_dist = (count == 1) & zero[:, dist - 1] if 1 <= dist <= link.mu else np.zeros_like(inner)
    if batch_faces and at_dist.any():
        coef = numerator_coefficients(d, np.delete(nums[at_dist], dist - 1, axis=1))
        h, scale = hermitian_forms(slope_data.base, coef)
        sigma, _, certified, ok, _ = inertia_many(h, scale, tau)
        sign, infinite, slope_ok = slope_signs(slope_data, coef, tau)
        results = zip(rows[at_dist].tolist(), (sigma + sign).tolist(), certified.tolist(),
                      infinite.tolist(), (ok & slope_ok).tolist())
        for i, sigma, certified, inf, ok in results:
            if ok:
                records[i] = SampleRecord(points[i], sigma, None, SOURCE_FACE, certified,
                                          (FLAG_INFINITE_SLOPE,) if inf else ())
    for i in rows[(count == 1) & ~at_dist].tolist():
        records[i] = SampleRecord(points[i], None, None, SOURCE_SKIPPED, True, (FLAG_FACE_UNAVAILABLE,))
    for i in rows[count > 1].tolist():
        records[i] = SampleRecord(points[i], None, None, SOURCE_SKIPPED, True)


def _faces_hold(link: ColoredLinkData, slope_data: SlopeData | None) -> bool:
    # whether there is slope data whose link-level face hypotheses hold
    if slope_data is None or link.mu == 1:
        return False
    try:
        check_face_hypotheses(link, slope_data)
    except InvalidInput:
        return False
    return True


def sample_map(link: ColoredLinkData, points: Iterable[TorusPoint],
               slope_data: SlopeData | None = None, tau: float = DEFAULT_TAU) -> list[SampleRecord]:
    """Evaluate signature/nullity over the given points, in their order."""
    if not link.has_seifert():
        raise MissingSeifertData(f"link {link.name!r} has no Seifert data; nothing to sample")
    size = max(1, min(_CHUNK_POINTS, _CHUNK_ENTRIES // max(1, link.g ** 2)))
    if isinstance(points, Lattice) and points.mu == link.mu:
        groups = denominator_groups(points)
        points = list(points)
    else:  # the points of the link's arity, grouped by denominator
        points = list(points)
        same = np.array([i for i, pt in enumerate(points) if pt.mu == link.mu])
        groups = [(d, same[rows], nums) for d, rows, nums in denominator_groups([points[i] for i in same])]
    batch_faces = _faces_hold(link, slope_data)
    records: list[SampleRecord | None] = [None] * len(points)
    for d, rows, nums in groups:
        for b in range(0, len(rows), size):
            _evaluate_rows(link, slope_data, batch_faces, points, d, rows[b:b + size], nums[b:b + size],
                           tau, records)
    return [rec or _evaluate_point(link, slope_data, pt, tau) for pt, rec in zip(points, records)]


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
    records = sample_map(link, points, None, tau)
    known = np.array([rec.sigma is not None and rec.certified for rec in records])
    sigma = np.array([rec.sigma or 0 for rec in records])
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
    return [ConstancyViolation(records[i].point, records[j].point, records[i].sigma, records[j].sigma)
            for i, j in zip(a[order].tolist(), b[order].tolist())]


def concordance_report(link: ColoredLinkData, slope_data: SlopeData | None,
                       p: int, d: int, tau: float = DEFAULT_TAU) -> ConcordanceReport:
    """Obstruction to concordance with the mirror image.

    A certified nonzero signature at a point whose coordinates are p^d-th
    roots of unity separates the link from its mirror (whose signature is the
    negative).  No witness means the test is inconclusive.  Samples that
    failed to evaluate are counted as errors, with the first of them.
    """
    records = sample_map(link, tbang_points(p, d, link.mu), slope_data, tau)
    # a Skipped record has no sigma, so a witness is an evaluated sample
    witnesses = [(rec.point, rec.sigma) for rec in records if rec.sigma and rec.certified and not rec.flags]
    failed = [rec for rec in records if FLAG_ERROR in rec.flags]
    verdict = "Obstructed" if witnesses else "Inconclusive"
    first_error = (failed[0].point, failed[0].flags[1]) if failed else None
    return ConcordanceReport(verdict, tuple(witnesses), p, d, len(records), len(uncertain_records(records)),
                             len(failed), first_error)


# -- output formats --------------------------------------------------------------


def records_to_csv(records: list[SampleRecord], mu: int) -> str:
    out = io.StringIO()
    out.write(",".join([f"q{i}" for i in range(1, mu + 1)] + ["sigma", "eta", "source", "certified"]))
    out.write("\n")
    turn_strings = turn_formatter()
    for rec in records:
        sigma = "NA" if rec.sigma is None else str(rec.sigma)
        eta = "NA" if rec.eta is None else str(rec.eta)
        cert = "true" if rec.certified else "false"
        out.write(",".join(turn_strings(rec.point) + [sigma, eta, rec.source, cert]))
        out.write("\n")
    return out.getvalue()


def records_to_json(records: list[SampleRecord], mu: int) -> str:
    turn_strings = turn_formatter()
    payload = {
        "mu": mu,
        "records": [
            {
                "turns": turn_strings(rec.point),
                "sigma": rec.sigma,
                "eta": rec.eta,
                "source": rec.source,
                "certified": rec.certified,
                "flags": list(rec.flags),
            }
            for rec in records
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _pixel(rec: SampleRecord) -> tuple[int, int, int]:
    if rec.source == SOURCE_SKIPPED or rec.sigma is None:
        return (0, 0, 0)
    if not rec.certified:
        return (160, 160, 160)
    s = rec.sigma
    if s == 0:
        return (255, 255, 255)
    shade = max(0, 255 - 64 * abs(s))
    return (255, shade, shade) if s > 0 else (shade, shade, 255)


def records_to_ppm(records: list[SampleRecord], width: int, height: int) -> str:
    """P3 pixmap, one pixel per record, rows in record order (k1 major)."""
    if width * height != len(records):
        raise InvalidInput(f"{len(records)} records do not fill {width}x{height}")
    lines = ["P3", f"{width} {height}", "255"]
    for r0 in range(height):
        row = records[r0 * width:(r0 + 1) * width]
        lines.append(" ".join(f"{c[0]} {c[1]} {c[2]}" for c in map(_pixel, row)))
    return "\n".join(lines) + "\n"
