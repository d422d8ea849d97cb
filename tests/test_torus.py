"""Torus points: lattices from shared turn tables against the validating constructor."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksig.clink import ColoredLinkData, sign_vectors
from linksig.errors import InvalidInput
from linksig.sampler import grid, sample_map, tbang_points
from linksig.torus import TorusPoint, lattice


def _validated(ks, n):
    return TorusPoint(tuple(Fraction(k, n) for k in ks))


def _assert_same(points, expected):
    assert points == expected
    for pt, ref in zip(points, expected):
        assert type(pt) is TorusPoint
        assert hash(pt) == hash(ref)
        assert pt.turns == ref.turns and pt.turn_strings() == ref.turn_strings()
    assert set(points) == set(expected)


@pytest.mark.parametrize("n,mu", [(2, 1), (3, 2), (5, 3), (4, 4)])
def test_grid_matches_validating_constructor(n, mu):
    for start, faces in ((1, False), (0, True)):
        expected = [_validated(ks, n) for ks in product(range(start, n), repeat=mu)]
        _assert_same(list(grid(n, mu, include_faces=faces)), expected)
        _assert_same(list(lattice(n, mu, start)), expected)


@pytest.mark.parametrize("p,d,mu", [(2, 1, 3), (2, 2, 2), (3, 2, 2), (5, 1, 3)])
def test_tbang_points_match_validating_constructor(p, d, mu):
    order = p**d
    expected = [_validated(ks, order) for ks in product(range(order), repeat=mu)]
    _assert_same(list(tbang_points(p, d, mu)), expected)


def test_conjugate_and_drop_match_validating_constructor():
    for pt in grid(6, 3, include_faces=True):
        _assert_same([pt.conjugate()], [TorusPoint(tuple(-q for q in pt.turns))])
        for color in (1, 2, 3):
            kept = tuple(q for i, q in enumerate(pt.turns, 1) if i != color)
            _assert_same([pt.drop(color)], [TorusPoint(kept)])
    pt = TorusPoint.of(Fraction(1, 3))
    assert pt.conjugate().turns == (Fraction(2, 3),)
    with pytest.raises(InvalidInput):
        pt.drop(1)
    with pytest.raises(InvalidInput):
        TorusPoint.of(Fraction(1, 3), Fraction(1, 2)).drop(3)


def test_lattice_rejects_empty_points():
    with pytest.raises(InvalidInput):
        list(lattice(3, 0))
    with pytest.raises(InvalidInput):
        list(grid(3, 0))


@st.composite
def c_complex_links(draw):
    """A random integer C-complex: one g x g matrix per sign-vector pair."""
    mu = draw(st.integers(1, 3))
    g = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=g, max_size=g)
    seifert = {}
    for eps in sign_vectors(mu):
        if tuple(-e for e in eps) not in seifert:
            seifert[eps] = tuple(map(tuple, draw(st.lists(row, min_size=g, max_size=g))))
    comps = tuple((f"K{c}", c) for c in range(1, mu + 1))
    return ColoredLinkData(f"random-{mu}-{g}", mu, comps, {}, g=g, seifert=seifert)


@settings(max_examples=40, deadline=None)
@given(link=c_complex_links(), n=st.integers(2, 7))
def test_conjugation_leaves_sigma_unchanged(link, n):
    points = list(grid(n, link.mu, include_faces=True))
    records = sample_map(link, points)
    mirrored = sample_map(link, [pt.conjugate() for pt in points])
    for rec, conj in zip(records, mirrored):
        assert conj.point == rec.point.conjugate()
        assert (conj.sigma, conj.eta, conj.source, conj.certified) == \
            (rec.sigma, rec.eta, rec.source, rec.certified)
