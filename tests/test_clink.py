"""Link data model: forms at torus points, mirror, linking data, file schema."""

from fractions import Fraction

import numpy as np
import pytest

from linksig.catalog import get, list_keys
from linksig.clink import (
    ColoredLinkData,
    SlopeData,
    hermitian_at,
    hermitian_forms,
    hermitian_with_scale,
    link_from_dict,
    link_to_dict,
    mirror,
    nu_exponents,
    numerator_coefficients,
    seifert_coefficients,
    seifert_framed_linking_matrix,
    sign_vectors,
    slope_from_dict,
    slope_matrices,
    slope_matrix_at,
    slope_to_dict,
)
from linksig.errors import (
    CoordinateOne,
    InvalidInput,
    MissingSeifertData,
    Mu1NotApplicable,
    Mu1Only,
)
from linksig.hermitian import exact_symmetric_inertia, inertia
from linksig.torus import TorusPoint, unit_root

from conftest import random_point


def full_entries():
    return [get(k) for k in list_keys() if get(k).kind == "full"]


def test_hermitian_at_worked_values():
    ln = get("l(1)").link
    h = hermitian_at(ln, TorusPoint.of(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert np.allclose(h, [[0, 64], [64, 0]])

    hopf2 = get("hopf2").link
    h2 = hermitian_at(hopf2, TorusPoint.of(Fraction(1, 3), Fraction(1, 5)))
    assert h2.shape == (0, 0)
    assert inertia(h2).pair == (0, 0)

    hopf1 = get("hopf1").link
    h1 = hermitian_at(hopf1, TorusPoint.of(Fraction(1, 2)))
    assert np.allclose(h1, [[-4.0]])
    assert inertia(h1).pair == (-1, 0)


def test_hermitian_at_requires_matching_arity_and_data():
    ln = get("l(1)").link
    with pytest.raises(InvalidInput):
        hermitian_at(ln, TorusPoint.of(Fraction(1, 2)))
    with pytest.raises(MissingSeifertData):
        hermitian_at(get("whitehead").link, TorusPoint.of(Fraction(1, 3), Fraction(1, 3)))


def test_hermitian_forms_are_hermitian(rng):
    for entry in full_entries():
        link = entry.link
        for _ in range(250):
            pt = random_point(rng, link.mu, interior=False)
            h, scale = hermitian_with_scale(link, pt)
            if h.size == 0:
                continue
            defect = np.max(np.abs(h - h.conj().T))
            assert defect <= 1e-12 * max(scale, 1e-300)


def test_stack_scales_do_not_depend_on_the_stack(nprng):
    # a point's scale is the same whichever chunk of points it is evaluated in
    for mu, g in ((1, 3), (2, 6), (3, 6), (4, 16)):
        seifert = {}
        for eps in sign_vectors(mu):
            if tuple(-e for e in eps) not in seifert:
                seifert[eps] = nprng.integers(-9, 10, (g, g)).tolist()
        link = ColoredLinkData("random", mu, tuple((f"K{c}", c) for c in range(1, mu + 1)), {}, g, seifert)
        for n in (7, 12, 32):
            nums = nprng.integers(1, n, (500, mu))
            h, scale = hermitian_forms(link, numerator_coefficients(n, nums))
            for k in range(len(nums)):
                _, scale_one = hermitian_forms(link, numerator_coefficients(n, nums[k:k + 1]))
                assert scale_one[0] == scale[k]


def test_seifert_coefficients_huge_denominators():
    # common denominators on both sides of 2^63 and 2^64
    pts = [TorusPoint.of(Fraction(1, 2**61 + 1), Fraction(1, 2)),
           TorusPoint.of(Fraction(1, 2**62 + 1), Fraction(1, 3)),
           TorusPoint.of(Fraction(1, 2**70 + 1), Fraction(2, 7)),
           TorusPoint.of(Fraction(1, 3), Fraction(1, 2))]
    coef = seifert_coefficients(2, pts)
    for row, pt in zip(coef.tolist(), pts):
        expected = []
        for eps in sign_vectors(2):
            z = 1
            for e, q in zip(eps, pt.turns):
                z *= 1 - unit_root(-e * q.numerator, q.denominator)
            expected.append(z)
        assert row == expected


def test_conjugation_symmetry(rng):
    for entry in full_entries():
        link = entry.link
        for _ in range(50):
            pt = random_point(rng, link.mu)
            h, scale = hermitian_with_scale(link, pt)
            hc, _ = hermitian_with_scale(link, pt.conjugate())
            assert np.allclose(hc, h.conj(), atol=1e-12 * max(scale, 1))
            assert inertia(h, scale=scale).pair == inertia(hc, scale=scale).pair


def test_mu1_convention_matches_seifert_form(rng):
    # one color: the assembled form is (1-conj w)A + (1-w)A^T, whose
    # conjugate is the other published convention; inertia agrees
    a = np.array([[-1, 1], [0, -1]], dtype=float)
    link = ColoredLinkData("knot", 1, (("K", 1),), {}, g=2,
                           seifert={(1,): tuple(map(tuple, a.astype(int)))})
    for _ in range(50):
        pt = random_point(rng, 1)
        w = pt.coordinate(1)
        h = hermitian_at(link, pt)
        ours = (1 - w.conjugate()) * a + (1 - w) * a.T
        other = (1 - w) * a + (1 - w.conjugate()) * a.T
        assert np.allclose(h, ours, atol=1e-12)
        assert inertia(h).pair == inertia(other).pair


def test_mirror_matrix_level(rng):
    ln = get("l(1)").link
    m = mirror(ln)
    assert m.seifert[(1, 1, 1)] == ((0, -1), (-1, 0))
    assert mirror(m).seifert == ln.seifert
    assert mirror(m).linking == ln.linking
    for entry in full_entries():
        link = entry.link
        mirrored = mirror(link)
        for _ in range(30):
            pt = random_point(rng, link.mu)
            h, scale = hermitian_with_scale(link, pt)
            hm, _ = hermitian_with_scale(mirrored, pt)
            assert np.allclose(hm, -h.conj(), atol=1e-12 * max(scale, 1))
            r, rm = inertia(h, scale=scale), inertia(hm, scale=scale)
            if r.certified and rm.certified:
                assert rm.signature == -r.signature
                assert rm.nullity == r.nullity


def test_mirror_flips_sampled_sigma_mu1(rng):
    hopf = get("hopf1").link
    flipped = mirror(hopf)
    assert flipped.seifert[(1,)] == ((1,),)
    for _ in range(40):
        pt = random_point(rng, 1)
        assert inertia(hermitian_at(flipped, pt)).signature == -inertia(hermitian_at(hopf, pt)).signature


def test_completion_rule():
    link = get("t24").link
    assert link.seifert_matrix((-1, -1)) == ((-1,),)  # transpose of A^{++}
    assert link.seifert_matrix((-1, 1)) == ((0,),)
    with pytest.raises(InvalidInput, match="transpose"):
        ColoredLinkData("bad", 2, (("A", 1), ("B", 2)), {}, g=2,
                        seifert={(1, 1): ((0, 1), (0, 0)), (-1, -1): ((0, 1), (0, 0))})


def test_validation_errors_carry_keys():
    with pytest.raises(InvalidInput, match="colors not used"):
        ColoredLinkData("x", 2, (("A", 1),), {})
    with pytest.raises(InvalidInput, match="unknown component"):
        ColoredLinkData("x", 1, (("A", 1),), {("A", "B"): 1})
    with pytest.raises(InvalidInput, match=r"seifert\[\+\+\]"):
        ColoredLinkData("x", 2, (("A", 1), ("B", 2)), {}, g=1, seifert={"++": [[1, 2]]})
    with pytest.raises(InvalidInput, match="sign string"):
        ColoredLinkData("x", 2, (("A", 1), ("B", 2)), {}, g=1, seifert={"+x": [[1]]})


def test_nu_exponents_examples():
    assert nu_exponents(get("borromean").link) == (-1, -1, -1)
    assert nu_exponents(get("t24").link) == (1, 1)
    assert nu_exponents(get("l(2)").link) == (-1, -1, -1)
    with pytest.raises(Mu1NotApplicable):
        nu_exponents(get("hopf1").link)


def test_seifert_framed_linking_matrix():
    hopf = get("hopf1").link
    m = seifert_framed_linking_matrix(hopf)
    assert m == [[-1, 1], [1, -1]]
    assert exact_symmetric_inertia(m)[0] == -1

    unlink = ColoredLinkData("u2", 1, (("A", 1), ("B", 1)), {})
    assert seifert_framed_linking_matrix(unlink) == [[0, 0], [0, 0]]

    knot = ColoredLinkData("k", 1, (("K", 1),), {})
    assert seifert_framed_linking_matrix(knot) == [[0]]
    with pytest.raises(Mu1Only):
        seifert_framed_linking_matrix(get("t24").link)


def test_slope_matrix_displayed_entries():
    sd = get("l(1)").slope
    pt = TorusPoint.of(Fraction(1, 4), Fraction(1, 4))
    w1, w2 = pt.coordinates()
    e = slope_matrix_at(sd, pt)
    n = 1
    expected = np.array([
        [0, 1 / (1 - w1.conjugate()), n, 0],
        [1 / (1 - w1), 0, 0, 0],
        [n, 0, 0, 1 / (1 - w2.conjugate())],
        [0, 0, 1 / (1 - w2), 0],
    ])
    assert np.allclose(e, expected, atol=1e-12)
    # Hermitian by the completion rule
    assert np.allclose(e, e.conj().T, atol=1e-12)


def test_slope_matrix_reads_cached_arrays_bit_identically(rng):
    def _coefficient(point, eps, conjugated):
        """prod_i (1 - conj(omega_i)^{eps_i}) or prod_i (1 - omega_i^{eps_i})."""
        c = complex(1.0, 0.0)
        for q, e in zip(point.turns, eps):
            sign = -e if conjugated else e
            turn = (sign * q) % 1
            c *= 1.0 - unit_root(turn.numerator, turn.denominator)
        return c

    # a reference formula, which rebuilds each A^eps from the integer matrix,
    # with the structural scale sum_eps |1 / coefficient| * max|A^eps|
    def rebuilt(sd, pt):
        g = sd.base.g
        e_mat = np.zeros((g, g), dtype=np.complex128)
        scale = 0.0
        for eps in sign_vectors(sd.base.mu):
            inv = 1.0 / _coefficient(pt, eps, conjugated=False)
            a = np.array(sd.base.seifert_matrix(eps), dtype=np.float64).reshape(g, g)
            e_mat += inv * a
            scale += abs(inv) * np.abs(a).max(initial=0.0)
        return e_mat, scale

    slopes = [e.slope for e in full_entries() if e.slope is not None]
    assert slopes
    for sd in slopes:
        for _ in range(30):
            pt = random_point(rng, sd.base.mu)
            e_mat = slope_matrix_at(sd, pt)
            assert (e_mat == slope_matrices(sd, seifert_coefficients(sd.base.mu, [pt]))[0]).all()
            reference, scale = rebuilt(sd, pt)
            assert np.allclose(e_mat, reference, rtol=0, atol=1e-12 * scale)


def test_slope_matrix_corner_cases():
    base = ColoredLinkData("z", 2, (("A", 1), ("B", 2)), {}, g=2,
                           seifert={(1, 1): ((0, 0), (0, 0)), (1, -1): ((0, 0), (0, 0))})
    sd = SlopeData(base, (0, 0), 1)
    e = slope_matrix_at(sd, TorusPoint.of(Fraction(1, 3), Fraction(2, 5)))
    assert np.allclose(e, 0)
    with pytest.raises(CoordinateOne):
        slope_matrix_at(sd, TorusPoint.of(0, Fraction(1, 3)))


def test_link_json_roundtrip():
    for key in list_keys():
        entry = get(key)
        if entry.link is not None:
            assert link_from_dict(link_to_dict(entry.link)) == entry.link
        if entry.slope is not None:
            assert slope_from_dict(slope_to_dict(entry.slope)) == entry.slope


def test_link_from_dict_rejects_bad_schema():
    with pytest.raises(InvalidInput, match="missing field"):
        link_from_dict({"mu": 1})
    good = link_to_dict(get("t24").link)
    bad = dict(good)
    bad["linking"] = {"K1K2": 2}
    with pytest.raises(InvalidInput, match="id1,id2"):
        link_from_dict(bad)


def test_slope_data_validation():
    base = get("l(1)").slope.base
    with pytest.raises(InvalidInput, match="k_class"):
        SlopeData(base, (0, 1), 1)
    with pytest.raises(InvalidInput, match="Seifert"):
        SlopeData(get("whitehead").link, (), 1)
