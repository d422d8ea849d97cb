"""The writers built from runs of rows, against per-row references.

records_to_csv, strata_to_csv and records_to_json assemble their text from
one string per distinct turn and per distinct tail, in runs of rows that
share their leading turns (torus.rows_text); the report's witness lines do
the same from the witnesses' numerators.  Here each is compared with a
writer that formats every row on its own, on seeded random point sequences:
mixed arities and denominators (one above 2^63), groups interleaved row by
row, lattice slices with start 0 and 1, empty input and flagged rows.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from linksig import catalog
from linksig.sampler import (
    FLAG_ERROR,
    FLAG_FACE_UNAVAILABLE,
    FLAG_INFINITE_SLOPE,
    SOURCES,
    ConcordanceReport,
    Sweep,
    concordance_report,
    records_to_csv,
    records_to_json,
)
from linksig.strata import Strata, strata_to_csv
from linksig.torus import Lattice, TorusPoint, lattice

from per_point import records_to_json_per_record, strata_to_csv_per_row

DENOMINATORS = (1, 2, 3, 4, 6, 7, 12, 2**61 - 1, 2**64 + 1)


def _random_points(rng: random.Random) -> list[TorusPoint] | Lattice:
    kind = rng.choice(("lattice", "slice", "list", "runs"))
    n, mu, start = rng.randint(2, 6), rng.randint(1, 3), rng.randint(0, 1)
    whole = lattice(n, mu, start)
    if kind == "lattice":
        return whole
    if kind == "slice":
        a, b = sorted(rng.randint(-len(whole), len(whole)) for _ in range(2))
        step = rng.choice((1, 1, 2, 3, -1, -2))
        return whole[a:b:step] if step > 0 else whole[b:a:step]
    points = []
    while len(points) < rng.randint(0, 40):
        if kind == "runs" and rng.random() < 0.5:  # a stretch of a lattice: rows that share their heads
            other = lattice(rng.randint(2, 5), rng.randint(1, 3), rng.randint(0, 1))
            first = rng.randint(0, len(other) - 1)
            points += list(other[first:first + rng.randint(1, 12)])
        else:
            points.append(TorusPoint.of(*(Fraction(rng.randint(0, d), d) if d > 1 else 0
                                           for d in rng.choices(DENOMINATORS, k=rng.randint(1, 3)))))
    return points


def _random_sweep(rng: random.Random, points) -> Sweep:
    size = len(points)
    flags = (FLAG_INFINITE_SLOPE,), (FLAG_FACE_UNAVAILABLE,), (FLAG_ERROR, "EigensolverFailure")
    out = Sweep(points, np.array([rng.randint(-3, 3) for _ in range(size)], dtype=np.int64),
                np.array([rng.randint(0, 2) for _ in range(size)], dtype=np.int64),
                np.array([rng.randint(0, len(SOURCES) - 1) for _ in range(size)], dtype=np.int8),
                np.array([rng.random() < 0.8 for _ in range(size)], dtype=bool), np.full(size, np.nan), {})
    for i in range(size):
        if rng.random() < 0.2 or (i == size - 1 and rng.random() < 0.5):  # the last row flagged too
            out.flags[i] = rng.choice(flags)
    return out


def _na(value) -> str:
    return "NA" if value is None else str(value)


def _csv_per_row(result: Sweep, mu: int) -> str:
    lines = [",".join([f"q{i}" for i in range(1, mu + 1)] + ["sigma", "eta", "source", "certified"]) + "\n"]
    for rec in result.records():
        tail = f",{_na(rec.sigma)},{_na(rec.eta)},{rec.source},{'true' if rec.certified else 'false'}\n"
        lines.append(",".join(rec.point.turn_strings()) + tail)
    return "".join(lines)


@pytest.mark.parametrize("seed", range(100))
def test_writers_from_runs_match_the_per_row_writers(seed):
    rng = random.Random(seed)
    points = _random_points(rng)
    mu = rng.randint(1, 3)  # the header's arity; a point may have another
    result = _random_sweep(rng, points)
    assert records_to_csv(result, mu) == _csv_per_row(result, mu)
    assert records_to_json(result, mu) == records_to_json_per_record(result, mu)
    size = len(points)
    strata = Strata(points, np.array([rng.randint(0, 4) for _ in range(size)], dtype=np.int64),
                    np.array([rng.random() < 0.3 for _ in range(size)], dtype=bool),
                    np.array([rng.randint(0, 4) for _ in range(size)], dtype=np.int64))
    assert strata_to_csv(strata, mu) == strata_to_csv_per_row(strata, mu)


def test_writers_on_empty_input():
    empty = _random_sweep(random.Random(0), [])
    for points in ([], lattice(3, 2)[4:4]):
        result = Sweep(points, *(getattr(empty, name) for name in ("sigma", "eta", "source", "certified",
                                                                   "min_gap", "flags")))
        assert records_to_csv(result, 2) == _csv_per_row(result, 2) == "q1,q2,sigma,eta,source,certified\n"
        assert records_to_json(result, 2) == records_to_json_per_record(result, 2)
        strata = Strata(points, *(np.zeros(0, dtype) for dtype in (np.int64, bool, np.int64)))
        assert strata_to_csv(strata, 2) == "q1,q2,index,predicted_nullity,flags\n"


def _witness_lines_per_point(report: ConcordanceReport) -> str:
    return "".join(f"witness {point} sigma={sigma}\n" for point, sigma in report.witnesses)


@pytest.mark.parametrize("key,p,d", [("l(1)", 3, 2), ("l(1)", 2, 3), ("t24", 3, 2), ("hopf1", 5, 1)])
def test_witness_lines_match_the_points(key, p, d):
    entry = catalog.get(key)
    report = concordance_report(entry.link, entry.slope, p, d)
    assert report.witnesses and report.witness_numerators is not None
    assert report.witness_lines() == _witness_lines_per_point(report)
    # without numerators (a report over a point list) the points are grouped instead
    listed = ConcordanceReport(*(getattr(report, name) for name in ("verdict", "witnesses", "prime", "depth",
                                                                    "samples", "uncertain")))
    assert listed == report and listed.witness_numerators is None
    assert listed.witness_lines() == report.witness_lines()
    assert ConcordanceReport("Inconclusive", (), p, d, 0, 0).witness_lines() == ""
