"""The batched face path of sample_map against the per-point path."""

import random
from collections import Counter
from dataclasses import replace

import numpy as np

from linksig.catalog import get
from linksig.clink import SlopeData, mirror, slope_matrix_at
from linksig.hermitian import DEFAULT_TAU, NoSolution, solve
from linksig.sampler import (
    FLAG_INFINITE_SLOPE,
    SOURCE_FACE,
    _CHUNK_POINTS,
    grid,
    sample_map,
    tbang_points,
)
from linksig.torus import TorusPoint

from per_point import _evaluate_point
from test_batched_sweep import _random_link


def _random_slope_data(rng: random.Random, mu: int) -> SlopeData:
    """Slope data over a random base of arity mu - 1 and rank g <= 6.

    Half the bases carry a zero block, so their E(omega) are rank-deficient.
    The class is either random, mostly outside the range of such an E (an
    infinite slope), or a column combination of some A^eps, which lies in
    that range and annihilates the kernel (an accepted NonUnique system).
    """
    g = rng.randint(2, 6)
    base = _random_link(rng, mu - 1, g, rng.choice((0, 1, 2)) if g > 2 else 0)
    if rng.random() < 0.5:
        a = base.seifert_matrix(tuple(rng.choice((1, -1)) for _ in range(mu - 1)))
        z = [rng.randint(-2, 2) for _ in range(g)]
        k = tuple(sum(a[i][j] * z[j] for j in range(g)) for i in range(g))
    else:
        k = tuple(rng.randint(-3, 3) for _ in range(g))
    return SlopeData(base, k, rng.randint(1, mu))


def _face_kind(slope_data: SlopeData, point: TorusPoint, tau: float) -> str:
    e = slope_matrix_at(slope_data, point.drop(slope_data.distinguished_color))
    return type(solve(e, np.array(slope_data.k_class, dtype=complex), tau)).__name__


def _compare(link, slope_data, points, tau, seen: Counter) -> None:
    records = sample_map(link, points, slope_data, tau)
    assert [rec.point for rec in records] == list(points)
    for rec in records:
        assert rec == _evaluate_point(link, slope_data, rec.point, tau), rec
        seen[rec.source] += 1
        seen["AmbiguousSlope"] += "AmbiguousSlope" in rec.flags
        if rec.source == SOURCE_FACE and link.mu > 1:
            # a face record's slope is finite (Solution, or NonUnique with the
            # kernel annihilated) or infinite (NoSolution)
            kind = _face_kind(slope_data, rec.point, tau)
            assert (kind == NoSolution.__name__) == (FLAG_INFINITE_SLOPE in rec.flags)
            seen[kind] += 1


def test_batched_faces_match_per_point_on_lattices():
    rng = random.Random(2718)
    seen = Counter()
    # a coarse tau makes near-singular E numerically rank-deficient, so that
    # some kernels overlap the class (AmbiguousSlope)
    for tau in (DEFAULT_TAU, 0.05):
        for _ in range(8):
            mu = rng.choice((2, 3))
            link = _random_link(rng, mu, rng.randint(2, 4), 0)
            _compare(link, _random_slope_data(rng, mu), grid(rng.randint(4, 7), mu, include_faces=True),
                     tau, seen)
    assert all(seen[kind] for kind in ("Solution", "NonUnique", "NoSolution", "AmbiguousSlope")), seen


def test_batched_faces_match_per_point_on_mixed_lists():
    rng = random.Random(1414)
    seen = Counter()
    points = (list(tbang_points(3, 2, 3)) + list(grid(5, 3, include_faces=True))
              + list(grid(6, 3, include_faces=True)) + [TorusPoint.of(0, "1/2")])
    assert len(points) > _CHUNK_POINTS
    for tau in (DEFAULT_TAU, 0.05):
        for _ in range(3):
            rng.shuffle(points)
            link = _random_link(rng, 3, rng.randint(2, 4), 0)
            _compare(link, _random_slope_data(rng, 3), points, tau, seen)
    assert all(seen[kind] for kind in ("Solution", "NonUnique", "NoSolution")), seen


def test_failed_face_hypotheses_keep_per_point_records():
    rng = random.Random(577)
    link = _random_link(rng, 3, 3, 0)
    slope_data = _random_slope_data(rng, 3)
    linked = replace(link, linking={("K1", "K2"): 1, ("K1", "K3"): 1, ("K2", "K3"): 1})
    too_far = replace(slope_data, distinguished_color=4)
    wrong_arity = replace(slope_data, base=_random_link(rng, 1, slope_data.base.g, 0))
    one_color = _random_link(rng, 1, 3, 1)
    seen = Counter()
    for lk, sd in ((linked, slope_data), (link, too_far), (link, wrong_arity), (one_color, wrong_arity)):
        _compare(lk, sd, grid(4, lk.mu, include_faces=True), DEFAULT_TAU, seen)
    assert seen[SOURCE_FACE] == 1  # the one-color face at omega = 1


def test_mirror_negates_every_certified_signature():
    rng = random.Random(31)
    cases = [(get(key).link, get(key).slope, 9) for key in ("l(1)", "l(2)", "l(3)")]
    for _ in range(6):
        mu = rng.choice((2, 3))
        cases.append((_random_link(rng, mu, rng.randint(2, 4), 0), _random_slope_data(rng, mu), 6))
    faces = 0
    for link, slope_data, n in cases:
        mirrored = SlopeData(mirror(slope_data.base), slope_data.k_class, slope_data.distinguished_color)
        points = grid(n, link.mu, include_faces=True)
        for rec, rec_m in zip(sample_map(link, points, slope_data), sample_map(mirror(link), points, mirrored)):
            assert (rec.source, rec.eta, rec.flags) == (rec_m.source, rec_m.eta, rec_m.flags), rec
            if rec.certified and rec_m.certified and rec.sigma is not None:
                assert rec_m.sigma == -rec.sigma, rec
                faces += rec.source == SOURCE_FACE
    assert faces > 0
