"""Closed-form invariants: Hosokawa polynomials, the slope, face signatures.

The Hosokawa polynomial rescales the Alexander polynomial by explicit powers
of (t_i - 1) determined by linking data; the normalized variant does the same
to the Conway potential with half-integer factors and carries no unit
ambiguity.  The slope of a link with distinguished component K solves
E(omega) alpha = [K] and evaluates -K(alpha); on a face where exactly the
distinguished coordinate is 1 the signature is the sublink signature plus the
sign of the slope, which sampler.sweep evaluates in batches (slope_signs);
tests/per_point.py evaluates it point by point, from slope, as a reference.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .clink import (
    ColoredLinkData,
    SlopeData,
    nu_exponents,
    numerator_coefficients,
    seifert_framed_linking_matrix,
    slope_matrices,
)
from .errors import AmbiguousSlope, CoordinateOne, EigensolverFailure, InvalidInput, Mu1Only, NotReal
from .hermitian import DEFAULT_TAU, Solutions, exact_symmetric_inertia, solve_many
from .laurent import LaurentPoly, exact_div, unit_normalize
from .torus import TorusPoint, denominator_groups

_SLOPE_IMAG_REL = 1e-9
_SLOPE_ZERO_REL = 1e-9


@dataclass(frozen=True)
class SlopeValue:
    """A real slope or the point at infinity."""

    kind: str  # "finite" | "infinite"
    value: float = 0.0

    @classmethod
    def finite(cls, value: float) -> "SlopeValue":
        return cls("finite", float(value))

    @classmethod
    def infinite(cls) -> "SlopeValue":
        return cls("infinite")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def sign(self, zero_tol: float) -> int:
        """Sign of a finite value (|v| <= zero_tol counts as 0); 0 when infinite."""
        if not self.is_finite:
            return 0
        if abs(self.value) <= zero_tol:
            return 0
        return 1 if self.value > 0 else -1

    def __str__(self) -> str:
        return "inf" if not self.is_finite else f"{self.value:.12g}"


def _one_minus_t(i: int, mu: int) -> LaurentPoly:
    return LaurentPoly.variable(i, mu) - LaurentPoly.const(1, mu)


def half_step_factor(i: int, mu: int) -> LaurentPoly:
    """t_i^(1/2) - t_i^(-1/2) in the half-step ring."""
    up = tuple(1 if j == i - 1 else 0 for j in range(mu))
    down = tuple(-1 if j == i - 1 else 0 for j in range(mu))
    return LaurentPoly(mu, {up: 1, down: -1}, half_step=True)


def _rescale(poly: LaurentPoly, factors, exponents) -> LaurentPoly:
    """poly times prod_i factors[i]^exponents[i]: the positive powers are
    multiplied in first, then the negative ones divided out exactly."""
    for f, e in zip(factors, exponents):
        if e > 0:
            poly = poly * f**e
    for f, e in zip(factors, exponents):
        if e < 0:
            poly = exact_div(poly, f ** (-e))
    return poly


def hosokawa(delta: LaurentPoly, link: ColoredLinkData) -> LaurentPoly:
    """Hosokawa polynomial from the Alexander polynomial, up to units.

    One color: delta / (t-1)^(|L|-1).  More colors: delta times
    prod_i (t_i-1)^(nu_i), dividing exactly where nu_i < 0.
    """
    if delta.half_step:
        raise InvalidInput("expected an integer-step polynomial")
    if delta.mu != link.mu:
        raise InvalidInput(f"polynomial arity {delta.mu} != link mu {link.mu}")
    if delta.is_zero():
        return delta
    exponents = (1 - len(link.components),) if link.mu == 1 else nu_exponents(link)
    factors = [_one_minus_t(i, link.mu) for i in range(1, link.mu + 1)]
    return unit_normalize(_rescale(delta, factors, exponents))


def hosokawa_two_component(delta: LaurentPoly, lk: int) -> LaurentPoly:
    """Two colors, one component each: [(t1-1)(t2-1)]^(|lk|-1) * delta."""
    if delta.mu != 2 or delta.half_step:
        raise InvalidInput("expected a two-variable integer-step polynomial")
    if delta.is_zero():
        return delta
    factor = _one_minus_t(1, 2) * _one_minus_t(2, 2)
    return unit_normalize(_rescale(delta, [factor], [abs(int(lk)) - 1]))


def hosokawa_normalized(conway: LaurentPoly, link: ColoredLinkData) -> LaurentPoly:
    """Exact normalized Hosokawa polynomial from the Conway potential.

    Works in Z[t_i^(+-1/2)]; no unit ambiguity, so no normalization is
    applied to the result.
    """
    if not conway.half_step:
        raise InvalidInput("the Conway potential must be a half-step polynomial")
    if conway.mu != link.mu:
        raise InvalidInput(f"polynomial arity {conway.mu} != link mu {link.mu}")
    if conway.is_zero():
        return conway
    exponents = (2 - len(link.components),) if link.mu == 1 else nu_exponents(link)
    factors = [half_step_factor(i, link.mu) for i in range(1, link.mu + 1)]
    return _rescale(conway, factors, exponents)


def _slope_rows(k: np.ndarray, sols: Solutions, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-K(alpha) for every row of a solve_many result, the rows whose kernel
    the class does not annihilate, and the scale that bounds a real value's
    imaginary residue."""
    with np.errstate(over="ignore", invalid="ignore"):
        beyond = np.arange(k.size) >= sols.rank[:, None]
        overlaps = np.abs(sols.vh.conj() @ k)  # against each kernel vector
        ambiguous = np.any(beyond & (overlaps > tau * max(1.0, float(np.linalg.norm(k)))), axis=1)
        value = 0.0 - sols.alpha @ k  # not -(...): an exact zero slope is 0, not -0
        scale = 1.0 + float(np.sum(np.abs(k))) * np.abs(sols.alpha).max(axis=1, initial=0.0)
    return value, ambiguous, scale


def slope(slope_data: SlopeData, point: TorusPoint, tau: float = DEFAULT_TAU) -> SlopeValue:
    """The slope at omega: solve E(omega) alpha = [K], return -K(alpha).

    No solution means [K] is outside the image, i.e. the slope is infinite.
    A rank-deficient system is accepted only when the class annihilates the
    kernel, so the value is constant on the solution set.  A system or value
    that is not finite raises EigensolverFailure, a point of another arity
    than the base's InvalidInput and a coordinate 1 CoordinateOne.  The
    point is a stack of one for slope_matrices and solve_many; slope_signs
    is the batched counterpart.
    """
    base = slope_data.base
    if point.mu != base.mu:
        raise InvalidInput(f"point arity {point.mu} != base mu {base.mu}")
    ones = point.unit_coordinates()
    if ones:
        raise CoordinateOne(f"slope matrix undefined: coordinate(s) {ones} equal 1")
    [(d, _, nums)] = denominator_groups([point])
    e_mat = slope_matrices(slope_data, numerator_coefficients(d, nums))
    k = np.array(slope_data.k_class, dtype=np.complex128)
    if not np.all(np.isfinite(e_mat)):
        raise EigensolverFailure(f"a {k.size}x{k.size} system has non-finite entries")
    sols = solve_many(e_mat, k[None], tau)
    if not sols.ok[0]:
        raise EigensolverFailure(f"svd failed on a {k.size}x{k.size} matrix")
    if not sols.solvable[0]:
        return SlopeValue.infinite()
    values, ambiguous, scales = _slope_rows(k, sols, tau)
    if ambiguous[0]:
        raise AmbiguousSlope("the distinguished class does not annihilate the kernel")
    value, scale = complex(values[0]), float(scales[0])
    if not cmath.isfinite(value):
        raise EigensolverFailure(f"slope {value} is not finite")
    if abs(value.imag) > _SLOPE_IMAG_REL * scale:
        raise NotReal(f"slope has imaginary residue {value.imag:.3e} at scale {scale:.3e}")
    return SlopeValue.finite(value.real)


def _slope_zero_tol(slope_data: SlopeData, value: float | np.ndarray) -> float | np.ndarray:
    """The tolerance below which a finite slope value (or each of an array of
    them) has sign 0."""
    k1 = float(np.sum(np.abs(np.array(slope_data.k_class, dtype=np.float64))))
    return _SLOPE_ZERO_REL * (1.0 + k1 + np.abs(value))


def slope_signs(slope_data: SlopeData, coef: np.ndarray,
                tau: float = DEFAULT_TAU) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slope's sign at a batch of points, from the base's coefficient rows
    (numerator_coefficients).

    Builds every E(omega) from the same array and solves them with one
    solve_many.  Returns (sign, infinite, error); an infinite slope has sign
    0.  error names the exception slope raises on the row ("" where it
    returns; EigensolverFailure on every row if the SVD failed), and the
    other entries of a row with an error are meaningless.
    """
    k = np.array(slope_data.k_class, dtype=np.complex128)
    e = slope_matrices(slope_data, coef)
    sols = solve_many(e, np.broadcast_to(k, e.shape[:2]), tau)
    value, ambiguous, scale = _slope_rows(k, sols, tau)
    with np.errstate(invalid="ignore"):
        real = np.isfinite(value) & (np.abs(value.imag) <= _SLOPE_IMAG_REL * scale)
        sign = np.where(np.abs(value.real) <= _slope_zero_tol(slope_data, value.real), 0,
                        np.where(value.real > 0, 1, -1))
    infinite = ~sols.solvable
    error = np.select([~sols.ok, infinite, ambiguous, ~np.isfinite(value), ~real],
                      ["EigensolverFailure", "", "AmbiguousSlope", "EigensolverFailure", "NotReal"], "")
    return np.where(infinite, 0, sign), infinite, error


def check_face_hypotheses(link: ColoredLinkData, slope_data: SlopeData) -> None:
    """Raise InvalidInput unless the link-level hypotheses of the face
    formula hold: the distinguished color is at most mu, the distinguished
    components do not link the others, and the base has arity mu - 1."""
    dist = slope_data.distinguished_color
    if dist > link.mu:
        raise InvalidInput(f"distinguished color {dist} exceeds mu {link.mu}")
    mine = link.components_of_color(dist)
    others = [cid for cid, c in link.components if c != dist]
    bad = [(a, b) for a in mine for b in others if link.lk(a, b) != 0]
    if bad:
        raise InvalidInput(f"nonzero linking between the distinguished component and {bad}")
    if slope_data.base.mu != link.mu - 1:
        raise InvalidInput("slope base arity must be mu - 1")


def signature_at_full_one(link: ColoredLinkData) -> int:
    """For one color, the signature at omega = 1: the exact signature of the
    Seifert-framed linking matrix."""
    if link.mu != 1:
        raise Mu1Only("the value at omega = 1 is computed only for one color")
    sig, _ = exact_symmetric_inertia(seifert_framed_linking_matrix(link))
    return sig
