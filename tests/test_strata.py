"""Elementary ideals, minor exactness, stratum classification."""

import random
from fractions import Fraction

import numpy as np
import pytest

from linksig.catalog import get
from linksig.errors import BasePoint, InvalidInput
from linksig.laurent import LaurentPoly, eq_up_to_units, format_poly, parse_poly
from linksig.strata import (
    PresentationMatrix,
    classify,
    first_ideal_gcd,
    presentation_from_dict,
    presentation_to_dict,
)
from linksig.torus import TorusPoint, lattice

from conftest import random_point, random_poly, random_turn
from per_point import coefficients, eval_at, vanishes_at

P = parse_poly


def two_rows_one_generator():
    return PresentationMatrix(2, [[P("t1 - 1", mu=2)], [P("t2 - 1", mu=2)]])


def columns(result):
    """(index, uncertain, ones) for each row of classify's result."""
    return list(zip(result.index.tolist(), result.uncertain.tolist(), result.ones.tolist()))


def test_elementary_ideal_conventions():
    p = two_rows_one_generator()
    gens1 = p.elementary_ideal(1)
    assert [format_poly(g) for g in gens1] == ["t1 - 1", "t2 - 1"]
    assert [format_poly(g) for g in p.elementary_ideal(2)] == ["1"]
    assert [format_poly(g) for g in p.elementary_ideal(0)] == ["0"]
    assert [format_poly(g) for g in p.elementary_ideal(-3)] == ["0"]


def test_presentation_validation():
    with pytest.raises(InvalidInput, match="n >= m"):
        PresentationMatrix(2, [[P("t1", mu=2), P("t2", mu=2)]])
    with pytest.raises(InvalidInput):
        PresentationMatrix(2, [[P("t1", mu=2)], [P("t1", mu=1)]])


def test_first_ideal_gcd_cases():
    from linksig.laurent import divides

    assert eq_up_to_units(first_ideal_gcd(two_rows_one_generator()), LaurentPoly.const(1, 2))
    a = P("t - 1") * P("t + 1")
    b = P("t - 1") * P("t^3")
    p = PresentationMatrix(1, [[a], [b]])
    d = first_ideal_gcd(p)
    assert eq_up_to_units(d, P("t - 1"))
    # oracle: common-divisor check via exact division over the factor set
    assert divides(P("t - 1"), a) and divides(P("t - 1"), b)
    assert not divides(a, b)
    single = PresentationMatrix(2, [[P("2*t1^-1 - 2", mu=2)]])
    assert eq_up_to_units(first_ideal_gcd(single), P("2 - 2*t1", mu=2))
    zero = PresentationMatrix(1, [[LaurentPoly.zero(1)]])
    assert first_ideal_gcd(zero).is_zero()


def test_vanishes_at_examples():
    gens = (P("t1 - 1", mu=2), P("t2 - 1", mu=2))
    assert vanishes_at(gens, TorusPoint.of(0, 0))
    assert not vanishes_at(gens, TorusPoint.of(0, Fraction(1, 2)))
    assert vanishes_at((LaurentPoly.zero(2),), TorusPoint.of(Fraction(1, 3), Fraction(1, 7)))


def test_stratum_index_simple():
    p = two_rows_one_generator()
    assert columns(classify(p, [TorusPoint.of(Fraction(1, 2), Fraction(1, 2))])) == [(0, False, 0)]
    with pytest.raises(BasePoint):
        classify(p, [TorusPoint.of(0, 0)])


def test_single_generator_strata(rng):
    poly = P("t1*t2 + 1")
    p = PresentationMatrix(2, [[poly], [poly * P("t1 - 1", mu=2)]])
    on_curve = TorusPoint.of(Fraction(1, 4), Fraction(1, 4))  # w1 w2 = -1
    off_curve = TorusPoint.of(Fraction(1, 4), Fraction(1, 2))
    assert classify(p, [on_curve, off_curve]).index.tolist() == [1, 0]


def test_nesting_property(rng):
    for _ in range(40):
        rows = [[random_poly(rng, 2, max_terms=3, exp_range=(-2, 2), coeff_range=(-3, 3))
                 for _ in range(2)] for _ in range(3)]
        p = PresentationMatrix(2, rows)
        pt = random_point(rng, 2, interior=False)
        if pt.is_basepoint():
            continue
        vanishing = [r for r in range(0, p.m_generators + 2) if vanishes_at(p.elementary_ideal(r), pt)]
        # vanishing at r+1 implies vanishing at r (ideal containment)
        assert vanishing == list(range(len(vanishing)))


def test_minor_exactness_against_numpy(rng):
    for _ in range(40):
        rows = [[random_poly(rng, 2, max_terms=3, exp_range=(-3, 3), coeff_range=(-5, 5))
                 for _ in range(4)] for _ in range(4)]
        p = PresentationMatrix(2, rows)
        pt = random_point(rng, 2)
        exact = p.minor(tuple(range(4)), tuple(range(4)))
        evaluated = np.array([[complex(eval_at(q, pt)) for q in row] for row in rows])
        direct = np.linalg.det(evaluated)
        ours = eval_at(exact, pt)
        scale = max(1.0, abs(direct))
        assert abs(ours - direct) <= 1e-8 * scale


def test_aug4_strata():
    entry = get("aug4")
    p = entry.presentation
    assert p.n_relations == 6 and p.m_generators == 4
    assert all(g.is_zero() for g in p.elementary_ideal(1))
    samples = [
        TorusPoint.of(Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), Fraction(1, 2)),
        TorusPoint.of(0, Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)),
        TorusPoint.of(0, 0, Fraction(1, 3), Fraction(2, 5)),
    ]
    # index 1, which predicts nullity 1 where at most two coordinates are 1
    assert [(index, ones) for index, _, ones in columns(classify(p, samples))] == [(1, 0), (1, 1), (1, 2)]
    # more than two: no prediction
    assert classify(p, [TorusPoint.of(0, 0, 0, Fraction(1, 3))]).ones.tolist() == [3]


def test_aug4_numeric_rank_oracle(rng):
    # the relation family a_i v_j - a_j v_i has kernel spanned by a, so the
    # evaluated matrix has rank exactly 3 away from the base point
    p = get("aug4").presentation
    for _ in range(25):
        pt = random_point(rng, 4)
        m = np.array([[complex(eval_at(q, pt)) for q in row] for row in p.entries])
        assert np.linalg.matrix_rank(m, tol=1e-9) == 3
        for rows in ((0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)):
            sub = m[list(rows), :]
            assert abs(np.linalg.det(sub)) < 1e-9


def test_presentation_roundtrip():
    p = get("aug4").presentation
    data = presentation_to_dict(p)
    assert data["n_relations"] == 6 and data["m_generators"] == 4
    q = presentation_from_dict(data)
    assert q == p
    bad = dict(data)
    bad["m_generators"] = 3
    with pytest.raises(InvalidInput, match="m_generators"):
        presentation_from_dict(bad)


def test_stratum_matches_hermitian_nullity_on_shared_zero_locus():
    # the torus link's interior nullity jumps exactly on the curve cut out by
    # t1*t2 + 1 (its matrix oracle test), and a rank-one presentation with
    # that generator places stratum 1 exactly there: the two code paths must
    # agree sample by sample on interior points
    from linksig.clink import hermitian_forms
    from linksig.hermitian import inertia
    from linksig.sampler import grid

    entry = get("t24")
    pres = PresentationMatrix(2, [[P("t1*t2 + 1")]])
    points = grid(16, 2)
    result = classify(pres, points)
    assert not result.ones.any()  # so the index predicts the nullity
    for h, scale, index in zip(*hermitian_forms(entry.link, coefficients(points)), result.index.tolist()):
        res = inertia(h, scale=scale)
        assert res.certified
        assert index == res.nullity


def _reference_stratum(p, pt, tau_poly):
    """(index, uncertain, ones) for one sample from vanishes_at and eval_at."""
    index, uncertain = 0, False
    for r in range(1, p.m_generators + 1):
        gens = p.elementary_ideal(r)
        for g in gens:
            if not g.is_zero():
                cut = tau_poly * (1 + g.coefficient_mass())
                uncertain |= cut / 16 < abs(eval_at(g, pt)) < cut * 16
        if not vanishes_at(gens, pt, tau_poly):
            break
        index = r
    return index, uncertain, len(pt.unit_coordinates())


def _random_presentation(rng, mu):
    m = rng.randint(1, 3)
    face = P("t1 - 1", mu=mu)
    rows = []
    for _ in range(m + rng.randint(0, 1)):
        row = [random_poly(rng, mu, max_terms=3, exp_range=(-2, 2), coeff_range=(-3, 3)) for _ in range(m)]
        if rng.random() < 0.5:  # vanishes on the face omega_1 = 1
            row = [q * face for q in row]
        rows.append(row)
    return PresentationMatrix(mu, rows)


def _assert_covered(seen):
    # the comparison covered every index, uncertain samples and more than two ones
    assert {index for index, _, _ in seen} == {0, 1, 2, 3}
    assert {unsure for _, unsure, _ in seen} == {many for _, _, many in seen} == {False, True}


def test_stratum_indices_match_per_point_reference():
    rng = random.Random(7)
    seen = set()
    for trial in range(16):
        mu = 2 + trial % 3
        p = _random_presentation(rng, mu)
        n = 4 if mu < 4 else 3
        pts = [TorusPoint(tuple(Fraction(k, n) for k in ks))
               for ks in np.ndindex(*(n,) * mu) if any(ks)]
        pts += [TorusPoint(tuple(random_turn(rng, interior=rng.random() < 0.8) for _ in range(mu)))
                for _ in range(20)]
        pts = [pt for pt in pts if not pt.is_basepoint()]
        rng.shuffle(pts)
        for tau_poly in (1e-8, 0.05, 0.3, 2.0):
            rows = columns(classify(p, pts, tau_poly))
            assert rows == [_reference_stratum(p, pt, tau_poly) for pt in pts]
            seen |= {(index, unsure, ones > 2) for index, unsure, ones in rows}
    _assert_covered(seen)



def test_stratum_indices_errors_anywhere_in_the_list():
    p = two_rows_one_generator()
    good = [TorusPoint.of(Fraction(1, 2), Fraction(1, 3)), TorusPoint.of(0, Fraction(1, 4))]
    assert columns(classify(p, [])) == []
    with pytest.raises(BasePoint):
        classify(p, good + [TorusPoint.of(0, 0)] + good)
    with pytest.raises(InvalidInput, match="point arity 3 != presentation arity 2"):
        classify(p, good + [TorusPoint.of(0, 0, Fraction(1, 2))])
    # the first offending point decides, as a loop over the points would
    with pytest.raises(InvalidInput, match="point arity"):
        classify(p, [TorusPoint.of(Fraction(1, 2)), TorusPoint.of(0, 0)])
    with pytest.raises(BasePoint):
        classify(p, [TorusPoint.of(0, 0), TorusPoint.of(Fraction(1, 2))])
    with pytest.raises(InvalidInput, match="point arity"):
        classify(p, [TorusPoint.of(Fraction(1, 2))])


def test_huge_coefficients_are_invalid_input():
    big = PresentationMatrix(2, [[P(f"{10**400}*t1 - 1", mu=2)], [P("t2 - 1", mu=2)]])
    pt = TorusPoint.of(Fraction(1, 3), Fraction(1, 5))
    with pytest.raises(InvalidInput, match="does not fit a float"):
        classify(big, [pt])
    with pytest.raises(InvalidInput, match="does not fit a float"):
        vanishes_at(big.elementary_ideal(1), pt)


def test_stratum_indices_huge_denominators():
    face = P("t1 - 1", mu=2)
    p = PresentationMatrix(2, [[P("t1*t2 - 1", mu=2) * face, P("t2 + 1", mu=2)],
                               [P("t1^3 - t2", mu=2), P("t1^-2 + 3", mu=2) * face],
                               [face, P("2*t2 - t1", mu=2)]])
    pts = [TorusPoint.of(Fraction(1, 2**61 + 1), Fraction(1, 2)),
           TorusPoint.of(Fraction(1, 2**62 + 1), Fraction(1, 3)),
           TorusPoint.of(0, Fraction(3, 2**62 + 1)),
           TorusPoint.of(Fraction(1, 2**70 + 1), Fraction(2, 7)),
           TorusPoint.of(0, Fraction(1, 2))]
    for tau_poly in (1e-8, 0.05, 2.0):
        assert columns(classify(p, pts, tau_poly)) == [_reference_stratum(p, pt, tau_poly) for pt in pts]


def _assert_columns_match_reference(p, points, tau_poly):
    result = classify(p, points, tau_poly)
    assert result.points is points
    assert len(result.index) == len(result.uncertain) == len(result.ones) == len(points)
    rows = columns(result)
    assert rows == [_reference_stratum(p, pt, tau_poly) for pt in points]
    return rows


def test_classify_columns_match_per_point_reference_on_lattices_slices_and_lists():
    rng = random.Random(12)
    seen, term_counts = set(), set()
    for trial in range(9):
        mu = 2 + trial % 3
        p = _random_presentation(rng, mu)
        term_counts |= {len({len(g.terms) for g in p.elementary_ideal(r) if not g.is_zero()})
                        for r in range(1, p.m_generators + 1)}
        n = 5 if mu < 4 else 3
        whole = lattice(n, mu)[1:]
        for points in (whole, whole[3:40:3], whole[::-5], list(whole[7:31]), lattice(n, mu, 1)):
            for tau_poly in (1e-8, 0.3, 2.0):
                rows = _assert_columns_match_reference(p, points, tau_poly)
                seen |= {(index, unsure, ones > 2) for index, unsure, ones in rows}
    _assert_covered(seen)
    assert max(term_counts) > 1  # some ideal had generators with different term counts


def test_classify_lattices_with_huge_denominators():
    # mu * n * n >= 2^63: the exponent sums go through Python ints
    face = P("t1 - 1", mu=2)
    p = PresentationMatrix(2, [[P("t1*t2 - 1", mu=2) * face, P("t2^-3 + 1", mu=2)],
                               [P("t1^3 - t2", mu=2), P("t1^-2 + 3", mu=2) * face],
                               [face, P("2*t2 - t1", mu=2)]])
    for n in (2**31 + 1, 3 * 10**9 + 7):
        L = lattice(n, 2)
        for points in (L[1:9], L[-6:], L[5 * n - 3:5 * n + 4]):
            for tau_poly in (1e-8, 0.05, 2.0):
                _assert_columns_match_reference(p, points, tau_poly)
    one = PresentationMatrix(1, [[P("t^2 + t - 1")], [P("3*t^-1 - t")]])
    for points in (lattice(2**63 - 1, 1)[1:6], lattice(2**63 - 1, 1)[-5:]):
        _assert_columns_match_reference(one, points, 0.3)


def test_classify_lattice_checks():
    p = two_rows_one_generator()
    for points in (lattice(3, 2), lattice(4, 2)[::-1], lattice(5, 2)[:1]):
        with pytest.raises(BasePoint):
            classify(p, points)
    with pytest.raises(InvalidInput, match="point arity 3 != presentation arity 2"):
        classify(p, lattice(3, 3)[1:])
    empty = classify(p, lattice(3, 2)[1:1])
    assert len(empty.index) == len(empty.uncertain) == len(empty.ones) == 0
    assert classify(p, lattice(3, 2)[1:]).ones.tolist() == [1, 1, 1, 0, 0, 1, 0, 0]
