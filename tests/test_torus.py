"""Torus points: lattices from shared turn tables against the validating constructor."""

import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksig.clink import ColoredLinkData, sign_vectors
from linksig.errors import InvalidInput
from linksig.sampler import grid, records_to_csv, records_to_json, sample_map, tbang_points
from linksig.torus import (
    Lattice,
    TorusPoint,
    denominator_groups,
    lattice,
    map_keys,
    turn_formatter,
    unit_root,
    unit_roots,
)


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


LATTICE_SLICES = [slice(None), slice(3, 17), slice(5, 5), slice(40, None), slice(None, None, 3),
                  slice(-9, -2), slice(None, None, -4), slice(2, 1000)]


@pytest.mark.parametrize("n,mu,start", [(5, 3, 0), (5, 3, 1), (6, 2, 0), (4, 1, 1), (7, 2, 3)])
def test_lattice_is_a_sequence_of_the_generated_points(n, mu, start):
    L = lattice(n, mu, start)
    expected = [_validated(ks, n) for ks in product(range(start, n), repeat=mu)]
    assert isinstance(L, Lattice) and len(L) == len(expected)
    _assert_same(list(L), expected)
    for sl in LATTICE_SLICES:
        part = L[sl]
        assert isinstance(part, Lattice) and len(part) == len(expected[sl])
        _assert_same(list(part), expected[sl])
        assert part.numerators().tolist() == [[int(q * n) for q in pt.turns] for pt in expected[sl]]
    for i in range(-len(expected), len(expected)):
        _assert_same([L[i]], [expected[i]])
    for i in (0, 1, -1):
        _assert_same([L[1:][i]], [expected[1:][i]])
    for i in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            L[i]
    assert L[2:9][1:4] == L[3:6] and hash(L[2:9][1:4]) == hash(L[3:6])


def test_lattice_slices_share_their_turns():
    L = grid(9, 2)
    turns = {id(q) for part in (L, L[:20], L[30:], L[7:8]) for pt in part for q in pt.turns}
    turns |= {id(q) for q in L[11].turns}
    assert len(turns) == 8  # one Fraction(k, 9) per k, whichever way the points are reached


def test_lattice_groups_by_its_one_denominator():
    L = tbang_points(2, 3, 2)  # turns k/8 with reduced denominators 1, 2, 4 and 8
    for part in (L, L[10:45], L[::-7]):
        ((d, rows, nums),) = denominator_groups(part)
        assert d == 8 and rows.tolist() == list(range(len(part)))
        assert nums.dtype == np.int64
        assert nums.tolist() == [[int(q * 8) for q in pt.turns] for pt in part]
    assert denominator_groups(L[5:5]) == []
    # points given as a list keep the grouping by reduced denominator
    assert sorted(d for d, _, _ in denominator_groups(list(L))) == [1, 2, 4, 8]


def test_lattices_beyond_sys_maxsize_points_are_refused():
    whole = lattice(2**63 - 1, 1, 0)  # 2^63 - 1 = sys.maxsize points
    assert len(whole) == sys.maxsize
    assert whole[-3:].numerators().tolist() == [[2**63 - 4], [2**63 - 3], [2**63 - 2]]
    for make in (lambda: lattice(2**63, 1), lambda: lattice(2**63, 1, 1),
                 lambda: lattice(31 * 10**8, 2), lambda: grid(10**10, 2),
                 lambda: tbang_points(2, 64, 1), lambda: tbang_points(2, 21, 3),
                 lambda: tbang_points(3, 10**12, 2), lambda: lattice(10**5000, 3)):
        with pytest.raises(InvalidInput, match="too large") as err:
            make()
        assert len(str(err.value)) < 200


def test_turn_formatter_formats_each_shared_turn_once(monkeypatch):
    calls = []
    original = Fraction.__str__
    monkeypatch.setattr(Fraction, "__str__", lambda q: calls.append(q) or original(q))
    points = list(grid(7, 3, include_faces=True))
    fmt = turn_formatter()
    assert [fmt(pt) for pt in points] == [[original(q) for q in pt.turns] for pt in points]
    assert len(calls) == 7
    # distinct objects with equal values are formatted alike
    assert fmt(TorusPoint.of(Fraction(2, 7), "1/7")) == ["2/7", "1/7"]
    link = ColoredLinkData("unit", 3, (("K1", 1), ("K2", 2), ("K3", 3)), {}, g=1,
                           seifert={eps: ((1,),) for eps in sign_vectors(3) if eps[0] > 0})
    records = sample_map(link, grid(7, 3))
    for to_text in (records_to_csv, records_to_json):
        calls.clear()
        to_text(records, 3)
        assert len(calls) == 6


def test_unit_roots_match_unit_root_on_both_branches():
    rng = np.random.default_rng(3)
    cases = [(rng.integers(0, 12, size=(40, 3)), 12),  # int64, den <= size: a den-long table
             (rng.integers(0, 97, size=(5, 3)), 97),  # int64, den > size: np.unique
             (np.array([[5, 2**62 - 1]], dtype=np.int64), 2**62),  # no den-long table of 4 EiB
             (np.array([[2**62 + 5, 0], [7, 2**62 + 5]], dtype=object), 2**63 + 1),  # Python ints
             (np.zeros((0, 2), dtype=np.int64), 5)]
    for ks, den in cases:
        roots = unit_roots(ks, den)
        assert roots.shape == ks.shape and roots.dtype == np.complex128
        assert roots.tolist() == [[unit_root(int(k), den) for k in row] for row in ks.tolist()]
        calls = []
        texts = map_keys(ks, den, lambda k: calls.append(k) or f"{k}/{den}", object)
        assert texts.tolist() == [[f"{k}/{den}" for k in row] for row in ks.tolist()]
        assert sorted(calls) == sorted(set(ks.ravel().tolist()))


def test_turns_with_huge_exponents_are_refused_at_once():
    for text in ("1e10000000,1/2", "1E-4301", "1e" + "9" * 50, "1" * 4301, "1/" + "3" * 4300):
        with pytest.raises(InvalidInput, match="more than 4300 digits") as err:
            TorusPoint.from_string(text)
        assert len(str(err.value)) < 200
    assert TorusPoint.from_string("2.5e-1, 1e-2").turns == (Fraction(1, 4), Fraction(1, 100))
    assert TorusPoint.from_string("1e4299").turns == (Fraction(0),)
    with pytest.raises(InvalidInput, match="characters") as err:
        TorusPoint.from_string("x" * 100_000)
    assert len(str(err.value)) < 300


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


@st.composite
def unimodular_matrices(draw, g):
    """An integer g x g matrix of determinant +-1: elementary row additions and a sign."""
    p = np.eye(g, dtype=np.int64)
    for _ in range(draw(st.integers(0, 2 * g)) if g > 1 else 0):
        i = draw(st.integers(0, g - 1))
        j = draw(st.integers(0, g - 2))
        p[i] += draw(st.sampled_from((-1, 1))) * p[j + (j >= i)]
    p[0] *= draw(st.sampled_from((-1, 1)))
    return p


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_congruence_leaves_certified_records_unchanged(data):
    # P^T A^eps P for every eps moves H(omega) to P^T H(omega) P, of the same inertia
    link = data.draw(c_complex_links())
    p = data.draw(unimodular_matrices(link.g))
    moved = replace(link, seifert={eps: (p.T @ np.array(a) @ p).tolist() for eps, a in link.seifert.items()})
    points = grid(data.draw(st.integers(2, 7)), link.mu, include_faces=True)
    compared = 0
    for rec, other in zip(sample_map(link, points), sample_map(moved, points)):
        if rec.certified and other.certified:
            assert (other.sigma, other.eta, other.source) == (rec.sigma, rec.eta, rec.source), rec.point
            compared += rec.sigma is not None
    assert compared


@st.composite
def c_complex_pairs(draw):
    """Two random integer C-complexes of the same arity."""
    a = draw(c_complex_links())
    g = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=g, max_size=g)
    seifert = {eps: tuple(map(tuple, draw(st.lists(row, min_size=g, max_size=g)))) for eps in a.seifert}
    return a, replace(a, name="random-b", g=g, seifert=seifert)


@settings(max_examples=40, deadline=None)
@given(pair=c_complex_pairs(), n=st.integers(2, 6))
def test_direct_sum_adds_certified_records(pair, n):
    # block-diagonal A^eps make H(omega) the direct sum of the two forms
    a, b = pair
    seifert = {}
    for eps in a.seifert:
        m = np.zeros((a.g + b.g,) * 2, dtype=np.int64)
        m[:a.g, :a.g] = a.seifert_matrix(eps)
        m[a.g:, a.g:] = b.seifert_matrix(eps)
        seifert[eps] = m.tolist()
    total = replace(a, name="direct-sum", g=a.g + b.g, seifert=seifert)
    points = grid(n, a.mu)
    compared = 0
    for ra, rb, rs in zip(sample_map(a, points), sample_map(b, points), sample_map(total, points)):
        if ra.certified and rb.certified and rs.certified:
            assert (rs.sigma, rs.eta) == (ra.sigma + rb.sigma, ra.eta + rb.eta), ra.point
            compared += 1
    assert compared
