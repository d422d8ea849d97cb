"""The batched interior sweep against exact oracles and the per-point path."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np

from linksig.catalog import get
from linksig.clink import (
    ColoredLinkData,
    SlopeData,
    hermitian_forms,
    numerator_coefficients,
    sign_vectors,
    slope_matrices,
)
from linksig.hermitian import DEFAULT_TAU, exact_symmetric_inertia, inertia_many
from linksig.sampler import (
    FLAG_ERROR,
    SOURCE_INTERIOR,
    SOURCE_SKIPPED,
    _CHUNK_POINTS,
    grid,
    records_to_csv,
    sweep,
    tbang_points,
)
from linksig.torus import TorusPoint, denominator_groups, lattice

from per_point import _evaluate_point, coefficients

# omega = e^(2 pi i q) as a Gaussian integer (re, im) for the quarter turns
_QUARTER = {Fraction(1, 4): (0, 1), Fraction(1, 2): (-1, 0), Fraction(3, 4): (0, -1)}


def _random_link(rng: random.Random, mu: int, g: int, zero: int) -> ColoredLinkData:
    """A C-complex link whose forms all have nullity >= zero.

    Random integer blocks padded with a zero block of size ``zero``, then
    moved by one unimodular congruence P^T A P shared by every A^eps.
    """
    core = g - zero
    p = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(3 * g):
        i, j = rng.sample(range(g), 2)
        k = rng.choice((-1, 1))
        p[i] = [a + k * b for a, b in zip(p[i], p[j])]
    seifert = {}
    for eps in sign_vectors(mu):
        if tuple(-e for e in eps) in seifert:
            continue
        a = [[rng.randint(-3, 3) if i < core and j < core else 0 for j in range(g)] for i in range(g)]
        pa = [[sum(p[k][i] * a[k][j] for k in range(g)) for j in range(g)] for i in range(g)]
        seifert[eps] = tuple(tuple(sum(pa[i][k] * p[k][j] for k in range(g)) for j in range(g))
                             for i in range(g))
    comps = tuple((f"K{c}", c) for c in range(1, mu + 1))
    return ColoredLinkData(f"random-{mu}-{g}", mu, comps, {}, g=g, seifert=seifert)


def _exact_pair(link: ColoredLinkData, point: TorusPoint) -> tuple[int, int]:
    """(sigma, eta) from the Gaussian-integer form, computed exactly.

    The realification [[Re, -Im], [Im, Re]] of H is an integer symmetric
    matrix whose inertia is twice that of H.
    """
    g = link.g
    re = [[0] * g for _ in range(g)]
    im = [[0] * g for _ in range(g)]
    for eps in sign_vectors(link.mu):
        cr, ci = 1, 0
        for q, e in zip(point.turns, eps):
            wr, wi = _QUARTER[q]
            fr, fi = 1 - wr, e * wi  # 1 - conj(omega)^e
            cr, ci = cr * fr - ci * fi, cr * fi + ci * fr
        a = link.seifert_matrix(eps)
        for i in range(g):
            for j in range(g):
                re[i][j] += cr * a[i][j]
                im[i][j] += ci * a[i][j]
    real = [re[i] + [-x for x in im[i]] for i in range(g)] + [im[i] + re[i] for i in range(g)]
    sig, null = exact_symmetric_inertia(real)
    assert sig % 2 == 0 and null % 2 == 0
    return sig // 2, null // 2


def test_batched_matches_exact_gaussian_oracle():
    rng = random.Random(4142)
    degenerate = 0
    # (mu, g, zero block, how many quarter points get the exact check)
    for mu, g, zero, checked in ((1, 20, 2, 3), (2, 8, 0, 9), (2, 30, 6, 3), (3, 10, 2, 27)):
        link = _random_link(rng, mu, g, zero)
        points = [TorusPoint(ks) for ks in product(sorted(_QUARTER), repeat=mu)]
        records = sweep(link, points).records()
        for rec in rng.sample(records, checked):
            sigma, eta = _exact_pair(link, rec.point)
            assert rec.source == SOURCE_INTERIOR and rec.certified, rec
            assert (rec.sigma, rec.eta) == (sigma, eta), rec.point
            degenerate += eta > 0
    assert degenerate > 0


def test_batched_matches_per_point_on_mixed_list():
    entry = get("l(1)")
    points = list(tbang_points(3, 2, 3)) + list(grid(9, 3, include_faces=True))
    points += [TorusPoint.of(Fraction(1, 7), Fraction(2, 5), Fraction(3, 11)), TorusPoint.of(Fraction(1, 2))]
    random.Random(99).shuffle(points)
    assert len(points) > _CHUNK_POINTS
    records = sweep(entry.link, iter(points), entry.slope).records()
    assert [rec.point for rec in records] == points
    sources = {rec.source for rec in records}
    assert {"Interior", "Face", "Skipped"} <= sources
    for rec, pt in zip(records, points):
        assert rec == _evaluate_point(entry.link, entry.slope, pt, DEFAULT_TAU)


def test_nonfinite_forms_stay_errors():
    link = get("l(1)").link
    huge = replace(link, seifert={eps: tuple(tuple(5 * 10**307 * x for x in row) for row in m)
                                  for eps, m in link.seifert.items()})
    records = sweep(huge, grid(5, 3)).records()
    assert all(rec.source == SOURCE_SKIPPED and not rec.certified for rec in records)
    assert all(rec.flags[0] == FLAG_ERROR for rec in records)
    rows = records_to_csv(records, 3).splitlines()[1:]
    assert len(rows) == 64 and all(row.endswith(",NA,NA,Skipped,false") for row in rows)
    # at 1e307 some forms are still finite; those must carry the true (0, 0)
    big = replace(huge, seifert={eps: tuple(tuple(10**307 * x for x in row) for row in m)
                                 for eps, m in link.seifert.items()})
    for rec in sweep(big, grid(12, 3)).records():
        assert rec.source == SOURCE_SKIPPED or (rec.sigma, rec.eta, rec.certified) == (0, 0, True)


def _same(a, b) -> bool:
    """Equal entry for entry, where a NaN part matches only a NaN part."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    return np.array_equal(a.real, b.real, equal_nan=True) and np.array_equal(a.imag, b.imag, equal_nan=True)


def _check_chunks(link: ColoredLinkData, slope_data: SlopeData | None, points) -> int:
    """Check that every point's form, scale and (off the faces) slope matrix
    on a stack of one, from its own denominator, are the rows of the batch
    kernels, for chunks of several sizes and offsets of every denominator
    group; returns the rows checked."""
    checked = set()
    for d, rows, nums in denominator_groups(points):
        rows = np.asarray(rows)
        for size in (1, 3, len(rows)):
            for b in range(0, len(rows), size):
                coef = numerator_coefficients(d, nums[b:b + size])
                h, scale = hermitian_forms(link, coef)
                inner = (nums[b:b + size] != 0).all(axis=1)
                e = slope_matrices(slope_data, coef) if slope_data is not None and inner.any() else None
                for r, i in enumerate(rows[b:b + size].tolist()):
                    alone = coefficients([points[i]])
                    form, form_scale = hermitian_forms(link, alone)
                    assert _same(form[0], h[r]) and form_scale[0] == scale[r], points[i]
                    if e is not None and inner[r]:
                        assert _same(slope_matrices(slope_data, alone)[0], e[r]), points[i]
                    checked.add(i)
    return len(checked)


def _huge_denominator_points(mu: int) -> list[TorusPoint]:
    # common denominators on both sides of 2^63 and 2^64, as in test_laurent
    rest = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)]
    return [TorusPoint((Fraction(k, den), *rest[:mu - 1]))
            for k, den in ((1, 2**61 + 1), (1, 2**62 + 1), (5, 2**62 + 1), (1, 2**70 + 1))]


def test_one_point_forms_are_rows_of_every_batch():
    # a point's form, scale and slope matrix are one arithmetic: the same
    # floats alone, in a lattice, in a mixed list or in a rejected batch, and
    # a sweep's record of it is _evaluate_point's
    rng = random.Random(1414)
    for mu, g, zero, n in ((1, 6, 0, 12), (2, 4, 0, 7), (2, 5, 2, 6), (3, 3, 0, 5), (3, 6, 0, 4)):
        link = _random_link(rng, mu, g, zero)
        base = _random_link(rng, mu - 1, rng.randint(2, 4), 0) if mu > 1 else link
        k_class = tuple(rng.randint(-2, 2) for _ in range(base.g))
        slope_data = SlopeData(base, k_class, 1)
        # entry (0, 0) at 10^308: the batch rejects the rows whose form or scale overflows
        rejected = {eps: ((10**308, *m[0][1:]), *m[1:]) for eps, m in link.seifert.items()}
        scaled = ColoredLinkData(link.name + "-scaled", mu, link.components, {}, g=g, seifert=rejected)
        grid_points = lattice(n, mu)
        ok = inertia_many(*hermitian_forms(scaled, coefficients(list(grid_points))), DEFAULT_TAU)[3]
        assert ok.any() and not ok.all()
        mixed = list(lattice(n + 1, mu)[::3]) + list(tbang_points(2, 2, mu))
        mixed += [TorusPoint(tuple(Fraction(rng.randint(0, den - 1), den) for den in
                                   (rng.randint(2, 60) for _ in range(mu)))) for _ in range(40)]
        mixed += _huge_denominator_points(mu)
        rng.shuffle(mixed)
        for target in (link, scaled):
            for points in (grid_points, mixed, mixed[:1], _huge_denominator_points(mu)[-1:]):
                assert _check_chunks(target, None, points) == len(points)
                face_data = slope_data if mu > 1 else None
                assert sweep(target, points, face_data).records() == [
                    _evaluate_point(target, face_data, pt, DEFAULT_TAU) for pt in points]
        base_points = list(lattice(n, base.mu)) + _huge_denominator_points(base.mu)
        assert _check_chunks(base, slope_data, base_points) == len(base_points)
