"""Hosokawa polynomials, the slope, face signatures, the value at omega = 1."""

from dataclasses import replace
from fractions import Fraction

import pytest

from linksig.catalog import get, ln_face_sigma, ln_slope_value
from linksig.clink import ColoredLinkData, SlopeData, hermitian_forms
from linksig.errors import EigensolverFailure, InvalidInput, Mu1Only, NotDivisible
from linksig.hermitian import DEFAULT_TAU, inertia_many
from linksig.invariants import (
    check_face_hypotheses,
    hosokawa,
    hosokawa_normalized,
    hosokawa_two_component,
    signature_at_full_one,
    slope,
)
from linksig.laurent import (
    LaurentPoly,
    conj_involution,
    eq_up_to_units,
    parse_poly,
)
from linksig.sampler import FLAG_ERROR, FLAG_FACE_UNAVAILABLE, SOURCE_FACE, SOURCES, sweep
from linksig.torus import TorusPoint

from conftest import random_turn
from per_point import coefficients

P = parse_poly


def face_signatures(link, slope_data, points):
    """The sweep's signature at each face point: sublink signature plus slope sign."""
    result = sweep(link, points, slope_data)
    assert (result.source == SOURCES.index(SOURCE_FACE)).all()
    return result.sigma.tolist()


def test_hosokawa_table():
    cases = {
        "hopf1": LaurentPoly.const(1, 1),
        "hopf2": LaurentPoly.const(1, 2),
        "whitehead": LaurentPoly.const(1, 2),
        "borromean": LaurentPoly.const(1, 3),
        "t24": P("t1 - 1", mu=2) * P("t2 - 1", mu=2) * P("t1*t2 + 1", mu=2),
    }
    for key, expected in cases.items():
        link = get(key).link
        assert eq_up_to_units(hosokawa(link.alexander, link), expected)


def test_hosokawa_rejects_inconsistent_input():
    hopf = get("hopf1").link  # two components, so (t-1) must divide
    with pytest.raises(NotDivisible):
        hosokawa(LaurentPoly.const(1, 1), hopf)
    with pytest.raises(InvalidInput):
        hosokawa(P("t1", mu=2), hopf)


def test_hosokawa_zero_and_units(rng):
    link = get("t24").link
    assert hosokawa(LaurentPoly.zero(2), link).is_zero()
    delta = link.alexander
    for _ in range(50):
        unit = LaurentPoly.monomial((rng.randint(-3, 3), rng.randint(-3, 3)),
                                    rng.choice([1, -1]))
        assert eq_up_to_units(hosokawa(delta * unit, link), hosokawa(delta, link))


def test_hosokawa_two_component():
    assert eq_up_to_units(
        hosokawa_two_component(P("t1*t2 + 1"), 2),
        P("t1 - 1", mu=2) * P("t2 - 1", mu=2) * P("t1*t2 + 1", mu=2),
    )
    wh = P("t1 - 1", mu=2) * P("t2 - 1", mu=2)
    assert eq_up_to_units(hosokawa_two_component(wh, 0), LaurentPoly.const(1, 2))
    with pytest.raises(NotDivisible):
        hosokawa_two_component(LaurentPoly.const(1, 2), 0)


def _half_factor(i, mu):
    up = tuple(1 if j == i - 1 else 0 for j in range(mu))
    down = tuple(-1 if j == i - 1 else 0 for j in range(mu))
    return LaurentPoly(mu, {up: 1, down: -1}, half_step=True)


def test_hosokawa_normalized_ln():
    for n in (1, 2, 3):
        entry = get(f"l({n})")
        got = hosokawa_normalized(entry.link.conway, entry.link)
        expected = LaurentPoly.const(-n * n, 3, half_step=True) * _half_factor(1, 3) ** 2
        assert got == expected  # exact, not just up to units


def test_hosokawa_normalized_edge_cases():
    link = get("l(1)").link
    assert hosokawa_normalized(LaurentPoly.zero(3, half_step=True), link).is_zero()
    knot = ColoredLinkData("k", 1, (("K", 1),), {})
    nabla = LaurentPoly.const(1, 1, half_step=True)
    # |L| - 2 = -1 turns the division into one multiplication
    assert hosokawa_normalized(nabla, knot) == _half_factor(1, 1)
    with pytest.raises(InvalidInput):
        hosokawa_normalized(LaurentPoly.const(1, 3), link)  # not half-step


def test_hosokawa_normalized_symmetry():
    for key in ("l(1)", "l(2)", "l(3)"):
        entry = get(key)
        h = hosokawa_normalized(entry.link.conway, entry.link)
        image = conj_involution(h)
        assert image == h or image == -h


def test_slope_worked_values():
    sd1 = get("l(1)").slope
    v = slope(sd1, TorusPoint.of(Fraction(1, 4), Fraction(1, 4)))
    assert v.is_finite and abs(v.value - 4.0) < 1e-9

    sd2 = get("l(2)").slope
    v2 = slope(sd2, TorusPoint.of(Fraction(1, 2), Fraction(1, 2)))
    assert v2.is_finite and abs(v2.value - 16.0) < 1e-9


def test_slope_matches_closed_form(rng):
    for n in (1, 2, 3):
        sd = get(f"l({n})").slope
        for _ in range(200):
            pt = TorusPoint.of(random_turn(rng), random_turn(rng))
            v = slope(sd, pt)
            assert v.is_finite
            assert abs(v.value - ln_slope_value(n, pt)) < 1e-8


def test_slope_infinite_and_nonunique():
    zero_base = ColoredLinkData("z", 2, (("A", 1), ("B", 2)), {}, g=2,
                                seifert={(1, 1): ((0, 0), (0, 0)), (1, -1): ((0, 0), (0, 0))})
    sd = SlopeData(zero_base, (1, 0), 1)
    assert not slope(sd, TorusPoint.of(Fraction(1, 3), Fraction(1, 5))).is_finite

    # all-ones matrices give E = [[1,1],[1,1]]; the class (1,1) lies in the
    # image and annihilates the kernel, so the value -1 is well defined
    ones = ((1, 1), (1, 1))
    base = ColoredLinkData("w", 2, (("A", 1), ("B", 2)), {}, g=2,
                           seifert={eps: ones for eps in ((1, 1), (1, -1), (-1, 1), (-1, -1))})
    sd2 = SlopeData(base, (1, 1), 1)
    v = slope(sd2, TorusPoint.of(Fraction(1, 3), Fraction(2, 5)))
    assert v.is_finite and abs(v.value - (-1.0)) < 1e-9


def test_overflowing_slope_is_an_error_not_a_face_sign():
    # l(1) with its slope base's Seifert entries scaled by 10**307: E(omega)
    # overflows, and the face signature must fail instead of reading the
    # sign of a NaN slope
    entry = get("l(1)")
    base = entry.slope.base
    huge = {eps: tuple(tuple(10**307 * x for x in row) for row in m) for eps, m in base.seifert.items()}
    sd = replace(entry.slope, base=replace(base, seifert=huge))
    with pytest.raises(EigensolverFailure):
        slope(sd, TorusPoint.of(Fraction(1, 30), Fraction(1, 30)))
    points = [TorusPoint.of(0, Fraction(q2, 30), Fraction(q3, 30))
              for q2, q3 in ((1, 1), (1, 29), (29, 1), (29, 29))]
    result = sweep(entry.link, points, sd)
    assert result.sigma_na.all() and all(result.flags[i][0] == FLAG_ERROR for i in range(len(points)))


def test_slope_requires_interior():
    sd = get("l(1)").slope
    with pytest.raises(Exception):
        slope(sd, TorusPoint.of(0, Fraction(1, 4)))


def test_face_signature_values():
    entry = get("l(1)")
    link, sd = entry.link, entry.slope
    pt = TorusPoint.of(0, Fraction(1, 4), Fraction(1, 4))
    # negative face value: turns (1/6, 5/6) have |q1 - q2| = 2/3 > 1/2
    neg = TorusPoint.of(0, Fraction(1, 6), Fraction(5, 6))
    # zero face value on the diagonal offset 1/2
    zero = TorusPoint.of(0, Fraction(1, 4), Fraction(3, 4))
    assert face_signatures(link, sd, [pt, neg, zero]) == [1, -1, 0]
    assert ln_face_sigma(TorusPoint.of(Fraction(1, 6), Fraction(5, 6))) == -1


def test_face_signature_sublink_term_is_zero_for_ln(rng):
    entry = get("l(1)")
    sub_points = [TorusPoint.of(random_turn(rng), random_turn(rng)) for _ in range(25)]
    sigma, eta, certified, ok, _ = inertia_many(*hermitian_forms(entry.slope.base, coefficients(sub_points)),
                                                DEFAULT_TAU)
    assert not sigma.any() and not eta.any() and certified.all() and ok.all()


def test_face_signature_preconditions():
    entry = get("l(1)")
    link, sd = entry.link, entry.slope
    # a face of another coordinate is unavailable, and one of two coordinates is skipped
    points = [TorusPoint.of(Fraction(1, 4), 0, Fraction(1, 4)), TorusPoint.of(0, 0, Fraction(1, 4))]
    result = sweep(link, points, sd)
    assert result.sigma_na.all() and result.flags == {0: (FLAG_FACE_UNAVAILABLE,)}
    linked = ColoredLinkData("bad", 3, (("K1", 1), ("K2", 2), ("K3", 3)),
                             {("K1", "K2"): 1}, g=2,
                             seifert=link.seifert)
    with pytest.raises(InvalidInput, match="linking"):
        check_face_hypotheses(linked, sd)
    result = sweep(linked, [TorusPoint.of(0, Fraction(1, 4), Fraction(1, 4))], sd)
    assert result.sigma_na.all() and result.flags == {0: (FLAG_ERROR, "InvalidInput")}


def test_signature_at_full_one():
    assert signature_at_full_one(get("hopf1").link) == -1
    unlink = ColoredLinkData("u2", 1, (("A", 1), ("B", 1)), {})
    assert signature_at_full_one(unlink) == 0
    knot = ColoredLinkData("k", 1, (("K", 1),), {})
    assert signature_at_full_one(knot) == 0
    with pytest.raises(Mu1Only):
        signature_at_full_one(get("t24").link)


def test_face_signature_symmetry_follows_closed_form(rng):
    # Re((1-w1)(1-conj w2)) = 4 sin(pi q1) sin(pi q2) cos(pi (q1-q2)) is even
    # in q1 - q2, so the face value is invariant under swapping the two
    # coordinates and under conjugate-and-swap; the solver must agree with
    # the exact sign everywhere
    entry = get("l(1)")
    turns = [(random_turn(rng, max_den=97), random_turn(rng, max_den=97)) for _ in range(40)]
    a, swapped, conj_swapped = (
        face_signatures(entry.link, entry.slope, [TorusPoint.of(0, *pair) for pair in pairs])
        for pairs in (turns, [(q2, q1) for q1, q2 in turns], [((1 - q2) % 1, (1 - q1) % 1) for q1, q2 in turns]))
    assert a == [ln_face_sigma(TorusPoint.of(q1, q2)) for q1, q2 in turns]
    assert a == swapped == conj_swapped
