"""The conjugate mirror of a lattice sweep: a whole lattice closed under
conjugation evaluates one point of each conjugate pair and copies its row to
the other, which must give the columns of the unhalved list path bit for bit."""

import random
from collections import Counter

import numpy as np

import linksig.sampler
from linksig.catalog import get
from linksig.sampler import FLAG_ERROR, FLAG_FACE_UNAVAILABLE, FLAG_INFINITE_SLOPE, grid, sweep, tbang_points
from linksig.torus import lattice

from per_point import _evaluate_point
from test_sweep_reference import _random_case

_COLUMNS = ("sigma", "eta", "sigma_na", "eta_na", "source", "certified", "min_gap")


def _count_forms(monkeypatch) -> list[int]:
    """Wrap sampler.inertia_many; the list collects the rows of each call."""
    rows = []
    original = linksig.sampler.inertia_many

    def counted(h, scale, tau):
        rows.append(len(h))
        return original(h, scale, tau)

    monkeypatch.setattr(linksig.sampler, "inertia_many", counted)
    return rows


def test_conjugate_positions():
    for n, mu, start in ((2, 1, 0), (5, 1, 0), (6, 2, 0), (7, 2, 1), (4, 3, 1), (3, 3, 0)):
        lat = lattice(n, mu, start)
        mirror = lat.conjugate_positions()
        assert [lat[j] for j in mirror.tolist()] == [pt.conjugate() for pt in lat]
    assert lattice(6, 2, 2).conjugate_positions() is None  # (2/6, 2/6) has no conjugate in it
    assert lattice(6, 2)[3:].conjugate_positions() is None
    assert lattice(1, 2, 1).conjugate_positions().shape == (0,)  # no point


def test_a_lattice_sweep_evaluates_one_form_per_conjugate_pair(monkeypatch):
    entry = get("l(1)")
    rows = _count_forms(monkeypatch)
    result = sweep(entry.link, grid(32, 3))
    # 29,791 points, of which (1/2, 1/2, 1/2) alone is its own conjugate
    assert len(result.points) == 29791 and sum(rows) == 14896
    rows.clear()
    sweep(entry.link, tbang_points(3, 3, 3), entry.slope)
    assert 0 < sum(rows) <= 9842  # interior and distinguished-face batches of 19,683 points
    rows.clear()
    sweep(entry.link, grid(32, 3)[:])  # the whole lattice as a slice is still whole
    assert sum(rows) == 14896
    rows.clear()
    sweep(entry.link, grid(8, 3)[1:])  # a proper slice takes the full path
    assert sum(rows) == 7**3 - 1


def test_halved_sweeps_equal_the_full_path_bit_for_bit():
    rng = random.Random(18)
    seen = Counter()
    checked = 0
    for _ in range(30):
        link, slope_data = _random_case(rng)
        mu = link.mu
        lats = [grid(n, mu, include_faces=faces) for n in rng.sample(range(2, 7), 2) for faces in (False, True)]
        lats += [tbang_points(p, 1, mu) for p in (2, 3, 5)]
        for lat in lats:
            for tau in (1e-9, 0.05, 0.3):
                halved = sweep(link, lat, slope_data, tau)
                full = sweep(link, list(lat), slope_data, tau)
                for name in _COLUMNS:
                    a, b = getattr(halved, name), getattr(full, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
                assert halved.flags == full.flags
                for rec, pt in zip(halved.records(), lat):
                    assert rec == _evaluate_point(link, slope_data, pt, tau), (link.name, slope_data, tau)
                    seen.update(rec.flags[1:] if rec.flags[:1] == (FLAG_ERROR,) else rec.flags)
                checked += len(lat)
    assert checked > 10000
    for name in ("EigensolverFailure", "AmbiguousSlope", "InvalidInput", FLAG_FACE_UNAVAILABLE, FLAG_INFINITE_SLOPE):
        assert seen[name], seen
