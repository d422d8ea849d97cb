"""Catalog entries: validation, derived-data oracles, expected values."""

from fractions import Fraction

import pytest

from linksig.catalog import get, list_keys, ln_slope_value, t24_sigma
from linksig.clink import hermitian_forms
from linksig.errors import BasePoint, UnknownKey
from linksig.hermitian import inertia
from linksig.invariants import hosokawa
from linksig.laurent import LaurentPoly, eq_up_to_units, parse_poly
from linksig.sampler import grid
from linksig.torus import TorusPoint

from conftest import random_point
from per_point import coefficients


def test_keys_and_unknown():
    keys = list_keys()
    assert "hopf1" in keys and "aug4" in keys and "l(3)" in keys
    with pytest.raises(UnknownKey):
        get("nope")
    parametric = get("l(5)")
    assert parametric.link.seifert[(1, 1, 1)] == ((0, 5), (5, 0))


def test_entries_validate_and_recompute():
    for key in list_keys():
        entry = get(key)
        if entry.link is not None and entry.link.alexander is not None and "hosokawa" in entry.expected:
            got = hosokawa(entry.link.alexander, entry.link)
            assert eq_up_to_units(got, entry.expected["hosokawa"].value)
        if entry.kind == "full":
            assert entry.link.has_seifert()


def test_hopf1_matrix_oracle(rng):
    """The shipped 1x1 matrix is derived; its oracles must hold before use."""
    entry = get("hopf1")
    a = entry.link.seifert[(1,)]
    # oracle 1: determinant of A - t A^T reproduces the Alexander polynomial
    t = parse_poly("t")
    det = LaurentPoly.const(a[0][0], 1) - t * LaurentPoly.const(a[0][0], 1)
    assert eq_up_to_units(det, parse_poly("t - 1"))
    # oracle 2: H(w) = 2(1 - Re w) A, so the signature is -1 on the circle
    points = [random_point(rng, 1) for _ in range(100)]
    for pt, h, scale in zip(points, *hermitian_forms(entry.link, coefficients(points))):
        w = pt.coordinate(1)
        assert abs(h[0, 0] - 2 * (1 - w.real) * a[0][0]) < 1e-12 * max(1, scale)
        assert inertia(h, scale=scale).signature == -1


def test_t24_matrix_oracle(rng):
    """Shipped matrices reproduce the closed form and the nullity jump."""
    entry = get("t24")
    points = grid(24, 2)
    for pt, h, scale in zip(points, *hermitian_forms(entry.link, coefficients(points))):
        w1, w2 = pt.coordinates()
        closed = -2 * ((w1 - 1) * (w2 - 1)).real
        assert abs(h[0, 0] - closed) < 1e-12 * max(1, scale)
        res = inertia(h, scale=scale)
        assert res.certified
        assert res.signature == t24_sigma(pt)
        on_curve = (pt.turns[0] + pt.turns[1]) % 1 == Fraction(1, 2)
        assert res.nullity == (1 if on_curve else 0)


def test_ln_entry_consistency(rng):
    for n in (1, 2):
        entry = get(f"l({n})")
        assert entry.slope.distinguished_color == 1
        assert entry.slope.base.g == 4
        points = [random_point(rng, 3) for _ in range(30)]
        for h, scale in zip(*hermitian_forms(entry.link, coefficients(points))):
            res = inertia(h, scale=scale)
            assert res.pair == (0, 0) and res.certified


def test_closed_form_helpers():
    assert t24_sigma(TorusPoint.of(Fraction(1, 8), Fraction(1, 8))) == 1
    assert t24_sigma(TorusPoint.of(Fraction(1, 2), Fraction(1, 2))) == -1
    assert t24_sigma(TorusPoint.of(Fraction(1, 4), Fraction(1, 4))) == 0
    assert t24_sigma(TorusPoint.of(0, Fraction(1, 3))) == 0
    with pytest.raises(BasePoint):
        t24_sigma(TorusPoint.of(0, 0))
    v = ln_slope_value(1, TorusPoint.of(Fraction(1, 4), Fraction(1, 4)))
    assert abs(v - 4.0) < 1e-12


def test_polynomial_only_entries_have_no_matrices():
    for key in ("whitehead", "borromean"):
        entry = get(key)
        assert entry.kind == "polynomial"
        assert not entry.link.has_seifert()
        assert entry.link.alexander is not None
