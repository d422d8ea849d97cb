"""Grids, sweeps, constancy, concordance reports, output formats."""

import math
import os
import time
from fractions import Fraction
from typing import Iterator

import pytest

from linksig.catalog import get, ln_face_sigma, t24_sigma
from linksig.clink import ColoredLinkData
from linksig.errors import InvalidInput
from linksig.laurent import LaurentPoly, eval_at, parse_poly
from linksig.sampler import (
    FLAG_ERROR,
    SOURCE_FACE,
    SOURCE_INTERIOR,
    SOURCE_SKIPPED,
    ConstancyViolation,
    concordance_report,
    constancy_check,
    grid,
    records_to_csv,
    records_to_json,
    records_to_ppm,
    sample_map,
    tbang_points,
)
from linksig.torus import TorusPoint


def test_grid_examples():
    assert [str(p) for p in grid(4, 1)] == ["(1/4)", "(1/2)", "(3/4)"]
    pts = list(grid(2, 2, include_faces=True))
    assert len(pts) == 4 and TorusPoint.of(0, 0) in pts
    assert len(list(grid(3, 3))) == 8
    with pytest.raises(InvalidInput):
        list(grid(1, 1))


def test_grid_is_lexicographic():
    pts = [p.turns for p in grid(3, 2, include_faces=True)]
    assert pts == sorted(pts)


def test_tbang_examples():
    pts = list(tbang_points(2, 2, 2))
    assert len(pts) == 16
    turns = {q for p in pts for q in p.turns}
    assert turns == {Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)}
    assert [str(p) for p in tbang_points(3, 1, 1)] == ["(0)", "(1/3)", "(2/3)"]
    assert any(p.is_basepoint() for p in tbang_points(2, 1, 3))
    with pytest.raises(InvalidInput):
        list(tbang_points(4, 1, 1))  # not prime


def _accepts(p: int) -> bool:
    try:
        tbang_points(p, 1, 1)
    except InvalidInput:
        return False
    return True


def test_tbang_primality_is_fast_and_exact():
    for p in (9223372036854775783, 2**61 - 1):
        start = time.perf_counter()
        assert _accepts(p)
        assert time.perf_counter() - start < 0.1
    # a Carmichael number, a strong pseudoprime to bases 2, 3, 5 and 7, a prime square, 1 and 4
    for n in (561, 3215031751, (2**31 - 1) ** 2, 1, 4):
        assert not _accepts(n), n
    assert [n for n in range(20000) if _accepts(n)] == [
        n for n in range(20000) if n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))]


def test_sample_map_ln_interior():
    entry = get("l(1)")
    records = sample_map(entry.link, grid(8, 3), entry.slope)
    assert len(records) == 7**3
    assert all(r.source == SOURCE_INTERIOR and r.certified for r in records)
    assert {(r.sigma, r.eta) for r in records} == {(0, 0)}


def test_sample_map_sources():
    entry = get("l(1)")
    pts = [
        TorusPoint.of(0, Fraction(1, 4), Fraction(1, 4)),   # face, computable
        TorusPoint.of(Fraction(1, 4), 0, Fraction(1, 4)),   # wrong color's face
        TorusPoint.of(0, 0, Fraction(1, 4)),                # two ones
        TorusPoint.of(0, 0, 0),                             # basepoint
    ]
    recs = sample_map(entry.link, pts, entry.slope)
    assert [r.source for r in recs] == [SOURCE_FACE, SOURCE_SKIPPED, SOURCE_SKIPPED, SOURCE_SKIPPED]
    assert recs[0].sigma == 1 and recs[0].eta is None
    no_slope = sample_map(entry.link, pts[:1], None)
    assert no_slope[0].source == SOURCE_SKIPPED


def test_sample_map_face_matches_closed_form():
    entry = get("l(1)")
    pts = [TorusPoint.of(0, Fraction(k1, 8), Fraction(k2, 8))
           for k1 in range(1, 8) for k2 in range(1, 8)]
    recs = sample_map(entry.link, pts, entry.slope)
    for rec in recs:
        assert rec.source == SOURCE_FACE
        assert rec.sigma == ln_face_sigma(rec.point.drop(1))


def test_sample_map_deterministic_across_workers():
    entry = get("t24")
    pts = list(grid(12, 2, include_faces=True))
    old = os.environ.get("LINKSIG_THREADS")
    try:
        os.environ["LINKSIG_THREADS"] = "1"
        serial = sample_map(entry.link, pts)
        os.environ["LINKSIG_THREADS"] = "8"
        threaded = sample_map(entry.link, pts)
    finally:
        if old is None:
            os.environ.pop("LINKSIG_THREADS", None)
        else:
            os.environ["LINKSIG_THREADS"] = old
    assert serial == threaded


def test_face_with_underflowing_slope_coefficient_is_skipped():
    # the slope coefficient at turns 1e-200 underflows to 0: the record is an
    # evaluation error, and the other face of the list is unaffected
    entry = get("l(1)")
    pts = [TorusPoint.from_string("0,1e-200,1e-200"), TorusPoint.of(0, Fraction(1, 4), Fraction(1, 4))]
    failed, face = sample_map(entry.link, pts, entry.slope)
    assert (failed.sigma, failed.source, failed.certified) == (None, SOURCE_SKIPPED, False)
    assert failed.flags == (FLAG_ERROR, "EigensolverFailure")
    assert (face.sigma, face.source) == (1, SOURCE_FACE)


@pytest.mark.parametrize("key, points", [
    ("hopf1", [TorusPoint.of(0, Fraction(1, 2)), TorusPoint.of(Fraction(1, 3), Fraction(1, 2))]),
    ("hopf1", grid(3, 2, include_faces=True)),
    ("l(1)", [TorusPoint.of(0, 0, 0, Fraction(1, 2)), TorusPoint.of(0, Fraction(1, 2))]),
    ("t24", [TorusPoint.of(0), TorusPoint.of(Fraction(1, 2))]),
])
def test_wrong_arity_points_are_errors_whatever_their_coordinates(key, points):
    entry = get(key)
    for rec in sample_map(entry.link, points, entry.slope):
        assert (rec.sigma, rec.eta, rec.source, rec.certified) == (None, None, SOURCE_SKIPPED, False), rec
        assert rec.flags == (FLAG_ERROR, "InvalidInput"), rec


def test_mu1_circle_including_one():
    hopf = get("hopf1").link
    recs = sample_map(hopf, grid(24, 1, include_faces=True))
    assert len(recs) == 24
    assert all(r.sigma == -1 for r in recs)
    one = [r for r in recs if r.point.turns[0] == 0]
    assert len(one) == 1 and one[0].source == SOURCE_FACE and one[0].eta is None


def test_constancy_t24_and_hopf():
    t24 = get("t24")
    assert constancy_check(t24.link, t24.expected["hosokawa"].value, 16) == []
    hopf = get("hopf1")
    assert constancy_check(hopf.link, hopf.expected["hosokawa"].value, 24) == []


def test_constancy_ln_normalized():
    entry = get("l(1)")
    from linksig.invariants import hosokawa_normalized

    tilde = hosokawa_normalized(entry.link.conway, entry.link)
    assert constancy_check(entry.link, tilde, 12) == []


def test_constancy_flags_fabricated_jump():
    # a polynomial with no zeros must force agreement; t24's sign change
    # across the anti-diagonal therefore reports violations
    t24 = get("t24")
    from linksig.laurent import LaurentPoly

    violations = constancy_check(t24.link, LaurentPoly.const(1, 2), 16)
    assert violations, "sign changes with a zero-free polynomial must be flagged"


def _axis_neighbors(point: TorusPoint, n: int, mu1_full_circle: bool) -> Iterator[tuple[TorusPoint, TorusPoint]]:
    # consecutive nodes along each axis; one-color sweeps wrap the circle
    for axis in range(point.mu):
        k = point.turns[axis] * n
        if k.denominator != 1:
            raise InvalidInput("constancy check expects grid points with turns k/n")
        k = int(k)
        nxt = k + 1
        if mu1_full_circle:
            nxt %= n
        elif nxt >= n:
            continue
        turns = list(point.turns)
        turns[axis] = Fraction(nxt, n)
        yield point, TorusPoint(tuple(turns))


def _midpoint(a: TorusPoint, b: TorusPoint) -> TorusPoint:
    turns = []
    for qa, qb in zip(a.turns, b.turns):
        if qa == qb:
            turns.append(qa)
        else:
            delta = (qb - qa) % 1
            if delta > Fraction(1, 2):
                delta -= 1
            turns.append((qa + delta / 2) % 1)
    return TorusPoint(tuple(turns))


def _reference_constancy(link, poly, n, tau_poly=1e-8):
    # the per-pair evaluation: every node and midpoint through eval_at
    mu1 = link.mu == 1
    points = list(grid(n, link.mu, include_faces=mu1))
    by_point = {rec.point: rec for rec in sample_map(link, points)}
    cut = 10 * tau_poly * (1 + poly.coefficient_mass())
    violations, seen = [], set()
    for pt in points:
        for a, b in _axis_neighbors(pt, n, mu1):
            key = (a, b) if a.turns <= b.turns else (b, a)
            if key in seen:
                continue
            seen.add(key)
            ra, rb = by_point.get(a), by_point.get(b)
            if ra is None or rb is None or ra.sigma is None or rb.sigma is None:
                continue
            if not (ra.certified and rb.certified):
                continue
            if all(abs(eval_at(poly, q)) > cut for q in (a, b, _midpoint(a, b))) and ra.sigma != rb.sigma:
                violations.append(ConstancyViolation(a, b, ra.sigma, rb.sigma))
    return violations


@pytest.mark.parametrize("key,poly,n", [
    ("t24", "1", 16), ("t24", "t1 - t2", 16), ("t24", "t1*t2 - 1", 12), ("t24", "t1 + t2 - 2", 9),
    ("hopf1", "1", 24), ("hopf1", "t1 + 1", 24), ("l(1)", "t1*t2 - t3", 6),
])
def test_constancy_check_matches_per_pair_reference(key, poly, n):
    link = get(key).link
    p = parse_poly(poly, mu=link.mu)
    assert constancy_check(link, p, n) == _reference_constancy(link, p, n)


_TREFOIL = ColoredLinkData("trefoil", 1, (("K", 1),), {}, g=2, seifert={(1,): ((-1, 1), (0, -1))})


@pytest.mark.parametrize("n", [2, 3, 7])
def test_constancy_check_one_color_jump_matches_reference(n):
    # the trefoil's signature jumps on the circle; with the polynomial 1 every
    # jump is a violation, and at n = 2 the wrap edge is the same pair as (0, 1/2)
    one = LaurentPoly.const(1, 1)
    violations = constancy_check(_TREFOIL, one, n)
    assert violations and violations == _reference_constancy(_TREFOIL, one, n)
    if n == 2:
        assert violations == [ConstancyViolation(TorusPoint.of(0), TorusPoint.of(Fraction(1, 2)), 0, -2)]


@pytest.mark.parametrize("key", ["l(1)", "l(2)", "l(3)"])
def test_constancy_check_half_step_matches_reference(key):
    from linksig.invariants import hosokawa_normalized

    link = get(key).link
    tilde = hosokawa_normalized(link.conway, link)
    assert tilde.half_step
    assert constancy_check(link, tilde, 6) == _reference_constancy(link, tilde, 6)


@pytest.mark.parametrize("poly,half_step,n", [
    # l(n) has no interior jump to test; which of t24's jumps count depends on
    # reading t1*t2 + 1 in half steps (in whole steps its zeros explain them all)
    ("t1*t2 + 1", True, 8),
    # the zeros q2 = 1/4, 3/4 are midpoints of edges along the second axis only
    ("t2^2 + 1", False, 6),
])
def test_constancy_check_t24_edges_match_reference(poly, half_step, n):
    link = get("t24").link
    p = parse_poly(poly, mu=2, half_step=half_step)
    violations = constancy_check(link, p, n)
    assert violations and violations == _reference_constancy(link, p, n)


def test_concordance_reports():
    ln = get("l(1)")
    rep = concordance_report(ln.link, ln.slope, 2, 2)
    assert rep.verdict == "Obstructed"
    witness_points = {str(p) for p, _ in rep.witnesses}
    assert "(0, 1/4, 1/4)" in witness_points
    assert all(s != 0 for _, s in rep.witnesses)

    hopf2 = get("hopf2")
    rep2 = concordance_report(hopf2.link, None, 2, 2)
    assert rep2.verdict == "Inconclusive"

    unknot = ColoredLinkData("unknot", 1, (("K", 1),), {}, g=0, seifert={(1,): ()})
    rep3 = concordance_report(unknot, None, 2, 2)
    assert rep3.verdict == "Inconclusive"


def test_concordance_witnesses_reverify():
    ln = get("l(2)")
    rep = concordance_report(ln.link, ln.slope, 2, 2)
    again = sample_map(ln.link, [p for p, _ in rep.witnesses], ln.slope)
    assert [r.sigma for r in again] == [s for _, s in rep.witnesses]


@pytest.mark.parametrize("key", ["l(1)", "l(2)", "l(3)"])
@pytest.mark.parametrize("d", [2, 3])
def test_concordance_report_matches_the_closed_form(key, d):
    # at the 3^d-th roots of unity the interior signature of l(n) is 0 and
    # every face with omega_1 = 1 has the closed-form signature, so the
    # witnesses are exactly the faces where that is nonzero
    entry = get(key)
    rep = concordance_report(entry.link, entry.slope, 3, d)
    n = 3**d
    faces = (TorusPoint.of(0, Fraction(k2, n), Fraction(k3, n)) for k2 in range(1, n) for k3 in range(1, n))
    expected = [(pt, ln_face_sigma(pt.drop(1))) for pt in faces]
    assert list(rep.witnesses) == [(pt, s) for pt, s in expected if s != 0]
    assert (rep.verdict, rep.samples, rep.uncertain, rep.errors) == ("Obstructed", n**3, 0, 0)


def test_csv_format():
    entry = get("t24")
    recs = sample_map(entry.link, grid(2, 2, include_faces=True))
    text = records_to_csv(recs, 2)
    lines = text.strip().split("\n")
    assert lines[0] == "q1,q2,sigma,eta,source,certified"
    assert lines[1] == "0,0,NA,NA,Skipped,true"
    assert lines[4] == "1/2,1/2,-1,0,Interior,true"


def test_json_format():
    import json

    entry = get("t24")
    recs = sample_map(entry.link, grid(2, 2))
    payload = json.loads(records_to_json(recs, 2))
    assert payload["mu"] == 2
    assert payload["records"][0]["turns"] == ["1/2", "1/2"]
    assert payload["records"][0]["sigma"] == -1


def test_ppm_format():
    entry = get("t24")
    n = 8
    recs = sample_map(entry.link, grid(n, 2))
    text = records_to_ppm(recs, n - 1, n - 1)
    lines = text.strip().split("\n")
    assert lines[0] == "P3" and lines[1] == "7 7" and lines[2] == "255"
    assert len(lines) == 3 + 7
    # pixel colors follow the sign of the closed form
    pix = []
    for row in lines[3:]:
        vals = list(map(int, row.split()))
        pix.append([tuple(vals[3 * i:3 * i + 3]) for i in range(7)])
    for i, rec in enumerate(recs):
        r, c = divmod(i, 7)
        expected = t24_sigma(rec.point)
        if expected == 0:
            assert pix[r][c] == (255, 255, 255)
        elif expected > 0:
            assert pix[r][c][0] == 255 and pix[r][c][1] < 255
        else:
            assert pix[r][c][2] == 255 and pix[r][c][1] < 255
    with pytest.raises(InvalidInput):
        records_to_ppm(recs, 3, 3)
