"""Closed-form invariants: Hosokawa polynomials, the slope, face signatures.

The Hosokawa polynomial rescales the Alexander polynomial by explicit powers
of (t_i - 1) determined by linking data; the normalized variant does the same
to the Conway potential with half-integer factors and carries no unit
ambiguity.  The slope of a link with distinguished component K solves
E(omega) alpha = [K] and evaluates -K(alpha); on a face where exactly the
distinguished coordinate is 1 the signature is the sublink signature plus the
sign of the slope.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .clink import ColoredLinkData, SlopeData, hermitian_with_scale, nu_exponents, seifert_framed_linking_matrix, slope_matrix_at
from .errors import AmbiguousSlope, EigensolverFailure, InvalidInput, Mu1Only, NotReal
from .hermitian import DEFAULT_TAU, InertiaResult, NonUnique, NoSolution, exact_symmetric_inertia, inertia, solve
from .laurent import LaurentPoly, exact_div, unit_normalize
from .torus import TorusPoint

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


def _half_step_factor(i: int, mu: int) -> LaurentPoly:
    """t_i^(1/2) - t_i^(-1/2) in the half-step ring."""
    up = tuple(1 if j == i - 1 else 0 for j in range(mu))
    down = tuple(-1 if j == i - 1 else 0 for j in range(mu))
    return LaurentPoly(mu, {up: 1, down: -1}, half_step=True)


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
    if link.mu == 1:
        power = len(link.components) - 1
        out = exact_div(delta, _one_minus_t(1, 1) ** power)
        return unit_normalize(out)
    out = delta
    nus = nu_exponents(link)
    for i, nu in enumerate(nus, start=1):
        if nu > 0:
            out = out * _one_minus_t(i, link.mu) ** nu
    for i, nu in enumerate(nus, start=1):
        if nu < 0:
            out = exact_div(out, _one_minus_t(i, link.mu) ** (-nu))
    return unit_normalize(out)


def hosokawa_two_component(delta: LaurentPoly, lk: int) -> LaurentPoly:
    """Two colors, one component each: [(t1-1)(t2-1)]^(|lk|-1) * delta."""
    if delta.mu != 2 or delta.half_step:
        raise InvalidInput("expected a two-variable integer-step polynomial")
    if delta.is_zero():
        return delta
    factor = _one_minus_t(1, 2) * _one_minus_t(2, 2)
    power = abs(int(lk)) - 1
    if power >= 0:
        return unit_normalize(delta * factor**power)
    return unit_normalize(exact_div(delta, factor ** (-power)))


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
    if link.mu == 1:
        power = len(link.components) - 2
        f = _half_step_factor(1, 1)
        if power >= 0:
            return exact_div(conway, f**power)
        return conway * f ** (-power)
    out = conway
    nus = nu_exponents(link)
    for i, nu in enumerate(nus, start=1):
        if nu > 0:
            out = out * _half_step_factor(i, link.mu) ** nu
    for i, nu in enumerate(nus, start=1):
        if nu < 0:
            out = exact_div(out, _half_step_factor(i, link.mu) ** (-nu))
    return out


def slope(slope_data: SlopeData, point: TorusPoint, tau: float = DEFAULT_TAU) -> SlopeValue:
    """The slope at omega: solve E(omega) alpha = [K], return -K(alpha).

    NoSolution means [K] is outside the image, i.e. the slope is infinite.
    A rank-deficient system is accepted only when the class annihilates the
    kernel, so the value is constant on the solution set.  A system or value
    that is not finite raises EigensolverFailure.
    """
    e_mat = slope_matrix_at(slope_data, point)
    k = np.array(slope_data.k_class, dtype=np.complex128)
    result = solve(e_mat, k, tau)
    if isinstance(result, NoSolution):
        return SlopeValue.infinite()
    if isinstance(result, NonUnique):
        overlaps = np.abs(result.kernel_basis.T @ k)
        if np.any(overlaps > tau * max(1.0, float(np.linalg.norm(k)))):
            raise AmbiguousSlope("the distinguished class does not annihilate the kernel")
    alpha = result.alpha
    value = 0.0 - complex(k @ alpha)  # not -(...): an exact zero slope is 0, not -0
    if not cmath.isfinite(value):
        raise EigensolverFailure(f"slope {value} is not finite")
    scale = 1.0 + float(np.sum(np.abs(k))) * float(np.max(np.abs(alpha), initial=0.0))
    if abs(value.imag) > _SLOPE_IMAG_REL * scale:
        raise NotReal(f"slope has imaginary residue {value.imag:.3e} at scale {scale:.3e}")
    return SlopeValue.finite(value.real)


def _slope_zero_tol(slope_data: SlopeData, value: SlopeValue) -> float:
    k1 = float(np.sum(np.abs(np.array(slope_data.k_class, dtype=np.float64))))
    return _SLOPE_ZERO_REL * (1.0 + k1 + (abs(value.value) if value.is_finite else 0.0))


@dataclass(frozen=True)
class FaceParts:
    """Intermediate pieces of a face-signature evaluation."""

    sublink_inertia: InertiaResult
    slope_value: SlopeValue
    slope_sign: int

    @property
    def signature(self) -> int:
        return self.sublink_inertia.signature + self.slope_sign


def face_parts(link: ColoredLinkData, slope_data: SlopeData, point: TorusPoint,
               tau: float = DEFAULT_TAU) -> FaceParts:
    """Validate the face hypotheses and evaluate both terms of the formula."""
    if point.mu != link.mu:
        raise InvalidInput(f"point arity {point.mu} != link mu {link.mu}")
    dist = slope_data.distinguished_color
    if dist > link.mu:
        raise InvalidInput(f"distinguished color {dist} exceeds mu {link.mu}")
    ones = point.unit_coordinates()
    if ones != (dist,):
        raise InvalidInput(
            f"face evaluation needs exactly the distinguished coordinate {dist} equal to 1, got {ones}"
        )
    mine = link.components_of_color(dist)
    others = [cid for cid, c in link.components if c != dist]
    bad = [(a, b) for a in mine for b in others if link.lk(a, b) != 0]
    if bad:
        raise InvalidInput(f"nonzero linking between the distinguished component and {bad}")
    if slope_data.base.mu != link.mu - 1:
        raise InvalidInput("slope base arity must be mu - 1")
    sub_point = point.drop(dist)
    h, scale = hermitian_with_scale(slope_data.base, sub_point)
    sub = inertia(h, tau, scale=scale)
    value = slope(slope_data, sub_point, tau)
    sign = value.sign(_slope_zero_tol(slope_data, value))
    return FaceParts(sub, value, sign)


def face_signature(link: ColoredLinkData, slope_data: SlopeData, point: TorusPoint,
                   tau: float = DEFAULT_TAU) -> int:
    """Signature at a face point: sublink signature plus the slope sign.

    An infinite slope contributes 0; consumers needing the distinction should
    use face_parts.
    """
    return face_parts(link, slope_data, point, tau).signature


def signature_at_full_one(link: ColoredLinkData) -> int:
    """For one color, the signature at omega = 1: the exact signature of the
    Seifert-framed linking matrix."""
    if link.mu != 1:
        raise Mu1Only("the value at omega = 1 is computed only for one color")
    sig, _ = exact_symmetric_inertia(seifert_framed_linking_matrix(link))
    return sig
