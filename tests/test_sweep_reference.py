"""Random sweeps against the per-point reference: every record, failures
included, is the one the public one-point functions give."""

import random
from collections import Counter
from fractions import Fraction

from linksig.clink import ColoredLinkData, SlopeData
from linksig.sampler import FLAG_ERROR, FLAG_FACE_UNAVAILABLE, FLAG_INFINITE_SLOPE, grid, sweep, tbang_points
from linksig.torus import TorusPoint

from per_point import _evaluate_point
from test_batched_sweep import _random_link

_MAGNITUDES = (10**300, 10**307, 3 * 10**307)


def _scaled(rng: random.Random, link: ColoredLinkData) -> ColoredLinkData:
    """The link as it is, with every entry or with one entry scaled so that
    its largest entry has a magnitude of 1e300 to 3e307."""
    kind = rng.choice(("none", "all", "one"))
    if kind == "none":
        return link
    top = max(abs(x) for m in link.seifert.values() for row in m for x in row) or 1
    factor = rng.choice(_MAGNITUDES) // top
    seifert = {}
    for eps, m in link.seifert.items():
        rows = [list(row) for row in m]
        if kind == "all":
            rows = [[factor * x for x in row] for row in rows]
        else:
            rows[0][0] = factor * (rows[0][0] or 1)
        seifert[eps] = tuple(map(tuple, rows))
    return ColoredLinkData(link.name + "-" + kind, link.mu, link.components, link.linking,
                           g=link.g, seifert=seifert)


def _random_case(rng: random.Random) -> tuple[ColoredLinkData, SlopeData | None]:
    mu = rng.randint(1, 3)
    link = _scaled(rng, _random_link(rng, mu, rng.randint(2, 4), rng.choice((0, 0, 1))))
    if rng.random() < 0.2:  # linked colors: the face hypotheses fail
        link = ColoredLinkData(link.name, mu, link.components, {("K1", f"K{mu}"): 1} if mu > 1 else {},
                               g=link.g, seifert=link.seifert)
    if rng.random() < 0.1:
        return link, None
    g = rng.randint(2, 4)
    base = _scaled(rng, _random_link(rng, max(1, mu - 1) if rng.random() < 0.9 else mu, g,
                                     rng.choice((0, 1, 2)) if g > 2 else 0))
    return link, SlopeData(base, tuple(rng.randint(-3, 3) for _ in range(g)), rng.randint(1, mu + 1))


def _points(rng: random.Random, mu: int) -> list[TorusPoint]:
    points = list(grid(rng.randint(3, 6), mu, include_faces=True)) + list(tbang_points(rng.choice((2, 3)), 1, mu))
    other = [m for m in (1, 2, 3, 4) if m != mu]
    points += [TorusPoint(tuple(Fraction(rng.randint(0, 5), 6) for _ in range(rng.choice(other))))
               for _ in range(3)]
    rng.shuffle(points)
    return points


def test_random_sweeps_match_the_per_point_reference():
    rng = random.Random(15)
    seen = Counter()
    for _ in range(60):
        link, slope_data = _random_case(rng)
        points = _points(rng, link.mu)
        for tau in (1e-9, 0.05, 0.3):
            records = sweep(link, points, slope_data, tau).records()
            for rec, pt in zip(records, points):
                assert rec == _evaluate_point(link, slope_data, pt, tau), (link.name, slope_data, tau)
                seen.update(rec.flags[1:] if rec.flags[:1] == (FLAG_ERROR,) else rec.flags)
    for name in ("EigensolverFailure", "AmbiguousSlope", "InvalidInput", FLAG_FACE_UNAVAILABLE, FLAG_INFINITE_SLOPE):
        assert seen[name], seen
