"""The per-point reference for a sweep: one record from the public one-point
functions (hermitian_with_scale, inertia, face_parts, signature_at_full_one),
which the batched sweep must reproduce record for record."""

from linksig.clink import ColoredLinkData, SlopeData, hermitian_with_scale
from linksig.errors import InvalidInput, LinksigError
from linksig.hermitian import inertia
from linksig.invariants import face_parts, signature_at_full_one
from linksig.sampler import (
    FLAG_ERROR,
    FLAG_FACE_UNAVAILABLE,
    FLAG_INFINITE_SLOPE,
    SOURCE_FACE,
    SOURCE_INTERIOR,
    SOURCE_SKIPPED,
    SampleRecord,
)
from linksig.torus import TorusPoint


def _evaluate_point(link: ColoredLinkData, slope_data: SlopeData | None,
                    point: TorusPoint, tau: float) -> SampleRecord:
    ones = point.unit_coordinates()
    try:
        if point.mu != link.mu:
            raise InvalidInput(f"point arity {point.mu} != link mu {link.mu}")
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
