"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Expected values come from tabulated results or from the
independent oracles exercised in the unit tests; tolerances are fixed here.
"""

import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import linksig as ls
from linksig.catalog import get, list_keys, ln_face_sigma, ln_slope_value, t24_sigma
from linksig.clink import ColoredLinkData, hermitian_forms
from linksig.strata import FLAG_MORE_THAN_TWO_ONES, strata_to_csv
from linksig.torus import TorusPoint

from conftest import random_hermitian, random_point, random_poly, random_turn
from per_point import coefficients, eval_at, vanishes_at


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:02d} [{label}]: FAIL")
        raise
    dt = time.perf_counter() - t0
    ok = dt < budget_s
    print(f"\ncriterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} ({dt:.1f}s, budget {budget_s:.0f}s)")
    assert ok, f"runtime {dt:.1f}s exceeded the {budget_s:.0f}s budget"


def test_criterion_01_ln_interior_map():
    with criterion(1, "brunnian family interior map N=24", 30):
        for n in (1, 2, 3):
            entry = get(f"l({n})")
            records = ls.sweep(entry.link, ls.grid(24, 3)).records()
            assert len(records) == 23**3
            for rec in records:
                assert rec.certified
                assert (rec.sigma, rec.eta) == (0, 0)


def test_criterion_02_ln_slope_closed_form():
    with criterion(2, "slope solver vs closed form", 5):
        rng = random.Random(74301)
        quarter = TorusPoint.of(Fraction(1, 4), Fraction(1, 4))
        for n in (1, 2, 3):
            sd = get(f"l({n})").slope
            v = ls.slope(sd, quarter)
            assert v.is_finite and abs(v.value - 4 * n) < 1e-9
            for _ in range(200):
                pt = TorusPoint.of(random_turn(rng), random_turn(rng))
                got = ls.slope(sd, pt)
                assert got.is_finite
                assert abs(got.value - ln_slope_value(n, pt)) < 1e-8


def test_criterion_03_ln_face_signature():
    with criterion(3, "face signature grid and obstruction", 10):
        entry = get("l(1)")
        n = 16
        points = [TorusPoint.of(0, Fraction(k1, n), Fraction(k2, n)) for k1 in range(1, n) for k2 in range(1, n)]
        result = ls.sweep(entry.link, points, entry.slope)
        assert [rec.sigma for rec in result.records()] == [ln_face_sigma(pt.drop(1)) for pt in points]
        report = ls.concordance_report(entry.link, entry.slope, 2, 2)
        assert report.verdict == "Obstructed"
        witness = TorusPoint.of(0, Fraction(1, 4), Fraction(1, 4))
        assert (witness, 1) in report.witnesses


def test_criterion_04_hosokawa_table():
    with criterion(4, "Hosokawa table", 1):
        one1 = ls.LaurentPoly.const(1, 1)
        one2 = ls.LaurentPoly.const(1, 2)
        one3 = ls.LaurentPoly.const(1, 3)
        hopf = get("hopf1")
        assert ls.eq_up_to_units(ls.hosokawa(hopf.link.alexander, hopf.link), one1)
        wh = get("whitehead")
        assert ls.eq_up_to_units(ls.hosokawa(wh.link.alexander, wh.link), one2)
        bor = get("borromean")
        assert ls.eq_up_to_units(ls.hosokawa(bor.link.alexander, bor.link), one3)
        t24 = get("t24")
        expected = (ls.parse_poly("t1 - 1", mu=2) * ls.parse_poly("t2 - 1", mu=2)
                    * ls.parse_poly("t1*t2 + 1", mu=2))
        assert ls.eq_up_to_units(ls.hosokawa(t24.link.alexander, t24.link), expected)
        for n in (1, 2, 3):
            entry = get(f"l({n})")
            got = ls.hosokawa_normalized(entry.link.conway, entry.link)
            assert got == entry.expected["hosokawa_normalized"].value


def _flood_components(mask):
    """Number of 4-connected True components in a 2d boolean array."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    count = 0
    for i in range(h):
        for j in range(w):
            if mask[i, j] and not seen[i, j]:
                count += 1
                stack = [(i, j)]
                seen[i, j] = True
                while stack:
                    a, b = stack.pop()
                    for aa, bb in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)):
                        if 0 <= aa < h and 0 <= bb < w and mask[aa, bb] and not seen[aa, bb]:
                            seen[aa, bb] = True
                            stack.append((aa, bb))
    return count


def test_criterion_05_t24_map_and_heatmap():
    with criterion(5, "torus link map N=40 with heatmap", 30):
        entry = get("t24")
        n = 40
        records = ls.sweep(entry.link, ls.grid(n, 2)).records()
        assert all(rec.certified for rec in records)
        for rec in records:
            assert rec.sigma == t24_sigma(rec.point)
        violations = ls.constancy_check(entry.link, entry.expected["hosokawa"].value, n)
        assert violations == []

        ppm = ls.records_to_ppm(records, n - 1, n - 1)
        lines = ppm.strip().split("\n")
        assert lines[:3] == ["P3", "39 39", "255"]
        sigma = np.array([rec.sigma for rec in records]).reshape(n - 1, n - 1)
        red = sigma > 0
        blue = sigma < 0
        white = sigma == 0
        # white pixels sit exactly on the two anti-diagonal cuts
        for k1 in range(1, n):
            for k2 in range(1, n):
                assert white[k1 - 1, k2 - 1] == (k1 + k2 in (20, 60))
        # the two sign regions: +1 in two corner triangles, -1 in the band
        assert _flood_components(red) == 2
        assert _flood_components(blue) == 1


def test_criterion_06_mirror_property():
    with criterion(6, "mirror flips signatures", 10):
        rng = random.Random(90125)
        for key in list_keys():
            entry = get(key)
            if entry.kind != "full":
                continue
            link = entry.link
            points = [random_point(rng, link.mu) for _ in range(100)]
            coef = coefficients(points)
            for h, scale, hm, scale_m in zip(*hermitian_forms(link, coef), *hermitian_forms(ls.mirror(link), coef)):
                r = ls.inertia(h, scale=scale)
                rm = ls.inertia(hm, scale=scale_m)
                if not (r.certified and rm.certified):
                    continue
                assert rm.signature == -r.signature
                assert rm.nullity == r.nullity


def test_criterion_07_aug4_strata():
    with criterion(7, "augmentation-ideal strata", 20):
        rng = random.Random(55511)
        pres = get("aug4").presentation
        samples = []
        for _ in range(400):
            samples.append(random_point(rng, 4))
        for _ in range(50):
            turns = [random_turn(rng) for _ in range(4)]
            turns[rng.randrange(4)] = Fraction(0)
            samples.append(TorusPoint(tuple(turns)))
        for _ in range(50):
            turns = [random_turn(rng) for _ in range(4)]
            i, j = rng.sample(range(4), 2)
            turns[i] = turns[j] = Fraction(0)
            samples.append(TorusPoint(tuple(turns)))
        # index 1 everywhere, which predicts nullity 1 where at most two coordinates are 1
        result = ls.classify(pres, samples)
        assert (result.index == 1).all() and (result.ones <= 2).all()
        e2 = pres.elementary_ideal(2)
        for _ in range(50):
            pt = random_point(rng, 4)
            assert not vanishes_at(e2, pt)
        result = ls.classify(pres, [TorusPoint.of(0, 0, 0, Fraction(1, 3))])
        assert result.index.tolist() == [1] and result.ones.tolist() == [3]  # no prediction
        assert strata_to_csv(result, 4).endswith(f",1,NA,{FLAG_MORE_THAN_TWO_ONES}\n")


def test_criterion_08_mu1_circle():
    with criterion(8, "one-color circle behavior", 5):
        hopf = get("hopf1").link
        records = ls.sweep(hopf, ls.grid(24, 1, include_faces=True)).records()
        assert len(records) == 24
        assert all(rec.sigma == -1 for rec in records)
        assert all(rec.certified for rec in records)
        knot = ColoredLinkData("trefoil-like", 1, (("K", 1),), {}, g=2,
                               seifert={(1,): ((-1, 1), (0, -1))})
        assert ls.signature_at_full_one(knot) == 0


def test_criterion_09_property_suites():
    with criterion(9, "randomized property suites", 60):
        nprng = np.random.default_rng(246801)
        # Hermitian engine: 1000 cases across four properties
        for _ in range(250):
            n = int(nprng.integers(1, 13))
            diag = nprng.integers(-5, 6, n)
            while True:
                p = nprng.uniform(-2, 2, (n, n)) + 1j * nprng.uniform(-2, 2, (n, n))
                if np.linalg.cond(p) < 50:
                    break
            m = p.conj().T @ np.diag(diag).astype(complex) @ p
            r = ls.inertia(m)
            assert r.certified
            assert r.pair == (int(np.sum(diag > 0) - np.sum(diag < 0)), int(np.sum(diag == 0)))
        def known_inertia_block(n):
            diag = nprng.integers(-5, 6, n)
            while True:
                p = nprng.uniform(-2, 2, (n, n)) + 1j * nprng.uniform(-2, 2, (n, n))
                if np.linalg.cond(p) < 50:
                    break
            sig = int(np.sum(diag > 0) - np.sum(diag < 0))
            return p.conj().T @ np.diag(diag).astype(complex) @ p, sig, int(np.sum(diag == 0))

        for _ in range(250):
            na, nb = int(nprng.integers(1, 6)), int(nprng.integers(1, 6))
            ma, sa, za = known_inertia_block(na)
            mb, sb, zb = known_inertia_block(nb)
            m = np.zeros((na + nb, na + nb), dtype=complex)
            m[:na, :na] = ma
            m[na:, na:] = mb
            assert ls.inertia(m).pair == (sa + sb, za + zb)
        for _ in range(250):
            m = random_hermitian(nprng, int(nprng.integers(1, 9)))
            r, rn = ls.inertia(m), ls.inertia(-m)
            assert rn.signature == -r.signature and rn.nullity == r.nullity
        for _ in range(250):
            n = int(nprng.integers(1, 10))
            d = nprng.integers(-8, 9, n)
            r = ls.inertia(np.diag(d).astype(complex))
            assert r.pair == (int(np.sum(d > 0) - np.sum(d < 0)), int(np.sum(d == 0)))

        # Laurent ring: 1000 randomized cases
        rng = random.Random(135791)
        for _ in range(400):
            mu = rng.randint(1, 3)
            a, b, c = (random_poly(rng, mu) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
        for _ in range(300):
            mu = rng.randint(1, 2)
            a = random_poly(rng, mu, max_terms=3, exp_range=(-2, 2), coeff_range=(-4, 4), nonzero=True)
            b = random_poly(rng, mu, max_terms=3, exp_range=(-2, 2), coeff_range=(-4, 4), nonzero=True)
            d = ls.gcd(a, b)
            assert ls.exact_div(a, d) * d == a
            assert ls.exact_div(b, d) * d == b
        for _ in range(300):
            mu = rng.randint(1, 3)
            a = random_poly(rng, mu, max_terms=5, exp_range=(-8, 8), coeff_range=(-100, 100))
            b = random_poly(rng, mu, max_terms=5, exp_range=(-8, 8), coeff_range=(-100, 100))
            pt = random_point(rng, mu, interior=False)
            va, vb = eval_at(a, pt), eval_at(b, pt)
            assert abs(eval_at(a * b, pt) - va * vb) <= 1e-10 * (1 + abs(va)) * (1 + abs(vb))


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical sweeps across worker counts", 10):
        from linksig.cli import main

        assert main(["catalog", "show", "l(1)", "--export", str(tmp_path)]) == 0
        link = str(tmp_path / "l_1.link.json")
        slope = str(tmp_path / "l_1.slope.json")
        outputs = []
        old = os.environ.get("LINKSIG_THREADS")
        try:
            for threads in ("1", "8"):
                os.environ["LINKSIG_THREADS"] = threads
                out = str(tmp_path / f"map{threads}.csv")
                code = main(["sigmap", link, "--grid", "12", "--faces",
                             "--slope", slope, "--out", out])
                assert code == 0
                with open(out, "rb") as fh:
                    outputs.append(fh.read())
        finally:
            if old is None:
                os.environ.pop("LINKSIG_THREADS", None)
            else:
                os.environ["LINKSIG_THREADS"] = old
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(b"q1,q2,q3,sigma,eta,source,certified\n")
