"""The per-point references, built point by point from the batch kernels and
the scalar roots of unity:

- eval_at evaluates a Laurent polynomial at one point, term by term, which
  laurent.eval_numerators and eval_family must reproduce bit for bit;
- vanishes_at decides one elementary ideal at one point, which
  strata.classify must reproduce sample for sample;
- _evaluate_point gives a sweep's record of one point, from its form on a
  stack of one (hermitian_forms), inertia, slope and signature_at_full_one,
  which the batched sweep must reproduce record for record;
- coefficients gives the numerator_coefficients rows of any point list,
  one denominator group at a time;
- records_to_json_per_record and strata_to_csv_per_row write one dict or
  line per row, which the writers built from runs of rows must reproduce
  byte for byte.
"""

import json
import math
from typing import Sequence

import numpy as np

from linksig.clink import ColoredLinkData, SlopeData, hermitian_forms, numerator_coefficients
from linksig.errors import InvalidInput, LinksigError
from linksig.hermitian import inertia
from linksig.invariants import _slope_zero_tol, check_face_hypotheses, signature_at_full_one, slope
from linksig.laurent import LaurentPoly, _float_coefficient
from linksig.sampler import (
    FLAG_ERROR,
    FLAG_FACE_UNAVAILABLE,
    FLAG_INFINITE_SLOPE,
    SOURCE_FACE,
    SOURCE_INTERIOR,
    SOURCE_SKIPPED,
    SampleRecord,
    Sweep,
)
from linksig.strata import DEFAULT_TAU_POLY, FLAG_MORE_THAN_TWO_ONES, FLAG_UNCERTAIN, Strata, _vanishing_cut
from linksig.torus import TorusPoint, denominator_groups, unit_root


def eval_at(p: LaurentPoly, point: TorusPoint) -> complex:
    """Evaluate at omega on the torus by substituting t_i -> omega_i.

    Exponents act on the exact turns, reduced mod 1, so negative powers are
    conjugate powers and half-step exponents use the principal half turn
    omega_i^(1/2) = e^(i*pi*q_i) with q_i in [0, 1).  A coefficient too large
    for a float raises InvalidInput.
    """
    if p.mu != point.mu:
        raise InvalidInput(f"arity mismatch: poly has mu={p.mu}, point has mu={point.mu}")
    if p.is_zero():
        return 0j
    den = math.lcm(*(q.denominator for q in point.turns))
    numerators = [q.numerator * (den // q.denominator) for q in point.turns]
    if p.half_step:
        den *= 2  # stored exponent k stands for t^(k/2)
    total = 0j
    for mono, c in p.terms.items():
        m = 0
        for e, n in zip(mono, numerators):
            m += e * n
        total += _float_coefficient(c) * unit_root(m % den, den)
    return total


def vanishes_at(gens, point: TorusPoint, tau_poly: float = DEFAULT_TAU_POLY) -> bool:
    """Whether every generator vanishes at omega, relative to coefficient mass."""
    for g in gens:
        if g.is_zero():
            continue
        if abs(eval_at(g, point)) > _vanishing_cut(g, tau_poly):
            return False
    return True


def coefficients(points: Sequence[TorusPoint]) -> np.ndarray:
    """The numerator_coefficients row of each point, in order, from its
    denominator group; every point has the arity of the first."""
    coef = np.empty((len(points), 2 ** points[0].mu), dtype=np.complex128)
    for d, rows, nums in denominator_groups(points):
        coef[rows] = numerator_coefficients(d, nums)
    return coef


def _evaluate_point(link: ColoredLinkData, slope_data: SlopeData | None,
                    point: TorusPoint, tau: float) -> SampleRecord:
    ones = point.unit_coordinates()
    try:
        if point.mu != link.mu:
            raise InvalidInput(f"point arity {point.mu} != link mu {link.mu}")
        if not ones:
            h, scale = hermitian_forms(link, coefficients([point]))
            res = inertia(h[0], tau, scale=float(scale[0]))
            return SampleRecord(point, res.signature, res.nullity, SOURCE_INTERIOR, res.certified)
        if len(ones) == 1:
            if link.mu == 1:
                return SampleRecord(point, signature_at_full_one(link), None, SOURCE_FACE, True)
            if slope_data is not None and ones[0] == slope_data.distinguished_color:
                # the sublink signature plus the sign of the slope
                check_face_hypotheses(link, slope_data)
                sub_point = point.drop(ones[0])
                h, scale = hermitian_forms(slope_data.base, coefficients([sub_point]))
                sub = inertia(h[0], tau, scale=float(scale[0]))
                value = slope(slope_data, sub_point, tau)
                sigma = sub.signature + value.sign(_slope_zero_tol(slope_data, value.value))
                flags = () if value.is_finite else (FLAG_INFINITE_SLOPE,)
                return SampleRecord(point, sigma, None, SOURCE_FACE, sub.certified, flags)
            return SampleRecord(point, None, None, SOURCE_SKIPPED, True, (FLAG_FACE_UNAVAILABLE,))
        return SampleRecord(point, None, None, SOURCE_SKIPPED, True)
    except LinksigError as exc:
        return SampleRecord(point, None, None, SOURCE_SKIPPED, False,
                            (FLAG_ERROR, type(exc).__name__))


def records_to_json_per_record(records: Sweep | list[SampleRecord], mu: int) -> str:
    payload = {
        "mu": mu,
        "records": [
            {
                "turns": list(rec.point.turn_strings()),
                "sigma": rec.sigma,
                "eta": rec.eta,
                "source": rec.source,
                "certified": rec.certified,
                "flags": list(rec.flags),
            }
            for rec in Sweep.of(records).records()
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def strata_to_csv_per_row(result: Strata, mu: int) -> str:
    """The ideals CSV, one line per row of classify's columns: the nullity
    prediction is the index, NA with more than two coordinates 1."""
    lines = [",".join([f"q{i}" for i in range(1, mu + 1)] + ["index", "predicted_nullity", "flags"]) + "\n"]
    rows = zip(result.points, result.index.tolist(), result.uncertain.tolist(), result.ones.tolist())
    for point, index, unsure, ones in rows:
        flags = [FLAG_MORE_THAN_TWO_ONES] * (ones > 2) + [FLAG_UNCERTAIN] * unsure  # sorted
        predicted = "NA" if ones > 2 else str(index)
        lines.append(",".join(point.turn_strings() + (str(index), predicted, "|".join(flags))) + "\n")
    return "".join(lines)
