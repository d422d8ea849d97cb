"""Sweep columns and the writers that read them, against the record writers
they replaced and the per-point path."""

import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import linksig.cli
from linksig.catalog import get
from linksig.clink import ColoredLinkData, SlopeData, hermitian_with_scale, save_link, save_slope
from linksig.errors import InvalidInput
from linksig.hermitian import DEFAULT_TAU, inertia
from linksig.invariants import face_parts
from linksig.sampler import (
    FLAG_ERROR,
    FLAG_INFINITE_SLOPE,
    SOURCE_FACE,
    SOURCE_INTERIOR,
    SOURCE_SKIPPED,
    SOURCES,
    Sweep,
    grid,
    records_to_csv,
    records_to_json,
    records_to_ppm,
    sample_map,
    sweep,
    uncertain_records,
)
from linksig.torus import turn_formatter

from per_point import _evaluate_point

# -- the record writers and the uncertain-sample rule before the columns: the reference --


def reference_csv(records, mu: int) -> str:
    out = io.StringIO()
    out.write(",".join([f"q{i}" for i in range(1, mu + 1)] + ["sigma", "eta", "source", "certified"]))
    out.write("\n")
    turn_strings = turn_formatter()
    for rec in records:
        sigma = "NA" if rec.sigma is None else str(rec.sigma)
        eta = "NA" if rec.eta is None else str(rec.eta)
        cert = "true" if rec.certified else "false"
        out.write(",".join(turn_strings(rec.point) + [sigma, eta, rec.source, cert]))
        out.write("\n")
    return out.getvalue()


def reference_json(records, mu: int) -> str:
    turn_strings = turn_formatter()
    payload = {
        "mu": mu,
        "records": [
            {
                "turns": turn_strings(rec.point),
                "sigma": rec.sigma,
                "eta": rec.eta,
                "source": rec.source,
                "certified": rec.certified,
                "flags": list(rec.flags),
            }
            for rec in records
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _reference_pixel(rec) -> tuple[int, int, int]:
    if rec.source == SOURCE_SKIPPED or rec.sigma is None:
        return (0, 0, 0)
    if not rec.certified:
        return (160, 160, 160)
    s = rec.sigma
    if s == 0:
        return (255, 255, 255)
    shade = max(0, 255 - 64 * abs(s))
    return (255, shade, shade) if s > 0 else (shade, shade, 255)


def reference_ppm(records, width: int, height: int) -> str:
    if width * height != len(records):
        raise InvalidInput(f"{len(records)} records do not fill {width}x{height}")
    lines = ["P3", f"{width} {height}", "255"]
    for r0 in range(height):
        row = records[r0 * width:(r0 + 1) * width]
        lines.append(" ".join(f"{c[0]} {c[1]} {c[2]}" for c in map(_reference_pixel, row)))
    return "\n".join(lines) + "\n"


def reference_uncertain(records):
    return [rec for rec in records
            if (not rec.certified or rec.flags) and rec.source != SOURCE_SKIPPED and rec.sigma is not None]


# -- cases ------------------------------------------------------------------------


def _congruent(a, p):
    """P^T A P for integer matrices given as row tuples."""
    n = len(a)
    ap = [[sum(a[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(tuple(sum(p[k][i] * ap[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def degenerate_link() -> ColoredLinkData:
    """Two colors, g = 3, a zero row and column mixed in by a unimodular
    congruence: every form has nullity at least 1."""
    p = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    seifert = {(1, 1): _congruent(((1, 2, 0), (0, -1, 0), (0, 0, 0)), p),
               (1, -1): _congruent(((2, 1, 0), (1, 0, 0), (0, 0, 0)), p)}
    return ColoredLinkData("degenerate", 2, (("K1", 1), ("K2", 2)), {}, g=3, seifert=seifert)


def infinite_slope_data() -> SlopeData:
    """Slope data for degenerate_link whose E(omega) has a zero row and
    column that the class (0, 1) needs: every face slope is infinite."""
    base = ColoredLinkData("base", 1, (("K1", 1),), {}, g=2, seifert={(1,): ((1, 0), (0, 0))})
    return SlopeData(base, (0, 1), 1)


def one_huge_entry(link: ColoredLinkData) -> ColoredLinkData:
    """link with its (0, 1) Seifert entries scaled by 10^307: the forms
    overflow at some points and not at others."""
    return replace(link, seifert={eps: tuple(tuple(10**307 * x if (i, j) == (0, 1) else x
                                                   for j, x in enumerate(row)) for i, row in enumerate(m))
                                  for eps, m in link.seifert.items()})


def _case(name: str):
    """(link, lattice, slope data, ppm side or None)."""
    if name == "l(1)":
        entry = get("l(1)")
        return entry.link, grid(6, 3, include_faces=True), entry.slope, None
    if name == "t24":  # negative signatures
        return get("t24").link, grid(9, 2, include_faces=True), None, 9
    if name == "hopf1":  # one color: omega = 1 through the linking matrix
        return get("hopf1").link, grid(12, 1, include_faces=True), None, None
    if name == "hopf2":  # g = 0
        return get("hopf2").link, grid(5, 2, include_faces=True), None, 5
    if name == "degenerate":
        return degenerate_link(), grid(7, 2, include_faces=True), None, 7
    if name == "infinite-slope":
        return degenerate_link(), grid(7, 2, include_faces=True), infinite_slope_data(), 7
    assert name == "one-huge-entry"
    entry = get("l(1)")
    return one_huge_entry(entry.link), grid(6, 3, include_faces=True), entry.slope, None


@pytest.fixture
def exported(tmp_path):
    assert linksig.cli.main(["catalog", "show", "l(1)", "--export", str(tmp_path)]) == 0
    return {"link": str(tmp_path / "l_1.link.json"), "slope": str(tmp_path / "l_1.slope.json")}


CASES = ("l(1)", "t24", "hopf1", "hopf2", "degenerate", "infinite-slope", "one-huge-entry")
INPUTS = {"lattice": lambda pts: pts, "list": list, "iterator": lambda pts: iter(list(pts))}


@pytest.mark.parametrize("name", CASES)
def test_writers_match_the_record_writers(name):
    link, points, slope_data, side = _case(name)
    expected = [_evaluate_point(link, slope_data, pt, DEFAULT_TAU) for pt in points]
    for form, make in INPUTS.items():
        result = sweep(link, make(points), slope_data)
        records = sample_map(link, make(points), slope_data)
        assert result.records() == records == expected, form
        assert isinstance(result.points, type(points)) == (form == "lattice")
        for ours, reference, args in ((records_to_csv, reference_csv, (link.mu,)),
                                      (records_to_json, reference_json, (link.mu,)),
                                      (records_to_ppm, reference_ppm, (side, side))):
            if ours is records_to_ppm and side is None:
                continue
            text = reference(records, *args)
            assert ours(result, *args) == text, (form, ours.__name__)
            assert ours(records, *args) == text, (form, ours.__name__)
    if name == "t24":
        assert min(rec.sigma for rec in records if rec.sigma is not None) < 0
    if name == "degenerate":
        assert min(rec.eta for rec in records if rec.source == SOURCE_INTERIOR) > 0
    if name == "infinite-slope":
        assert {rec.flags for rec in records if rec.source == SOURCE_FACE} == {(FLAG_INFINITE_SLOPE,)}
    if name == "one-huge-entry":
        assert {rec.flags[:1] for rec in records} >= {(FLAG_ERROR,), ()}


def test_rejected_rows_keep_their_errors():
    entry = get("l(1)")
    link = one_huge_entry(entry.link)
    points = grid(6, 3, include_faces=True)
    result = sweep(link, points, entry.slope)
    rejected = sorted(i for i, flags in result.flags.items() if flags[0] == FLAG_ERROR)
    assert rejected and SOURCES.index(SOURCE_INTERIOR) in result.source  # the batch kept other rows
    for i in rejected:
        assert result.flags[i] == _evaluate_point(link, entry.slope, points[i], DEFAULT_TAU).flags
        assert result.flags[i] == (FLAG_ERROR, "EigensolverFailure")
        assert SOURCES[result.source[i]] == SOURCE_SKIPPED and result.sigma_na[i] and not result.certified[i]
        assert math.isnan(result.min_gap[i])


def test_min_gap_column_and_smallest_margin():
    entry = get("l(1)")
    points = grid(6, 3, include_faces=True)
    result = sweep(entry.link, points, entry.slope)
    for i, pt in enumerate(points):
        source = SOURCES[result.source[i]]
        if source == SOURCE_INTERIOR:
            h, scale = hermitian_with_scale(entry.link, pt)
            assert math.isclose(result.min_gap[i], inertia(h, scale=scale).min_gap, rel_tol=1e-9)
        elif source == SOURCE_FACE:
            parts = face_parts(entry.link, entry.slope, pt, DEFAULT_TAU)
            assert math.isclose(result.min_gap[i], parts.sublink_inertia.min_gap, rel_tol=1e-9)
        else:
            assert math.isnan(result.min_gap[i])
    point, gap = result.smallest_margin()
    finite = np.isfinite(result.min_gap)
    assert gap == result.min_gap[finite].min()
    assert point == points[int(np.flatnonzero(finite & (result.min_gap == gap))[0])]
    # g = 0: no form has an eigenvalue, so no margin is finite
    assert sweep(get("hopf2").link, grid(5, 2)).smallest_margin() is None
    assert Sweep.of(sample_map(entry.link, points, entry.slope)).smallest_margin() is None


def test_uncertain_samples_follow_the_record_rule(tmp_path):
    entry = get("l(1)")
    cases = ((entry.link, entry.slope, 9, DEFAULT_TAU), (entry.link, entry.slope, 9, 0.05),
             (degenerate_link(), infinite_slope_data(), 7, DEFAULT_TAU))
    kinds = []
    for link, slope_data, n, tau in cases:
        result = sweep(link, grid(n, link.mu, include_faces=True), slope_data, tau)
        records = result.records()
        expected = reference_uncertain(records)
        assert uncertain_records(records) == expected
        assert [records[i] for i in np.flatnonzero(result.uncertain())] == expected
        save_link(link, str(tmp_path / "link.json"))
        save_slope(slope_data, str(tmp_path / "slope.json"))
        argv = ["--tau", str(tau), "sigmap", str(tmp_path / "link.json"), "--grid", str(n), "--faces",
                "--slope", str(tmp_path / "slope.json"), "--out", str(tmp_path / "map.csv")]
        assert linksig.cli.main(argv) == (3 if expected else 0)
        assert (tmp_path / "map.csv").read_text() == reference_csv(records, link.mu)
        kinds.append({"uncertified" if not rec.certified else "flagged" for rec in expected})
    assert kinds == [set(), {"uncertified"}, {"flagged"}]


def test_sigmap_ppm_rejects_arity_before_the_sweep(exported, monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep must not run")

    monkeypatch.setattr(linksig.cli, "sweep", no_sweep)
    assert linksig.cli.main(["sigmap", exported["link"], "--grid", "3", "--format", "ppm"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "two colors" in captured.err


def test_empty_sweeps():
    link = get("l(1)").link
    for points in (grid(6, 3)[4:4], []):
        result = sweep(link, points)
        assert result.records() == [] and result.smallest_margin() is None
        assert records_to_csv(result, 3) == reference_csv([], 3)
        assert records_to_json(result, 3) == reference_json([], 3)
    assert records_to_ppm(sweep(get("t24").link, []), 0, 0) == reference_ppm([], 0, 0)
    with pytest.raises(InvalidInput, match="4 records do not fill 3x3"):
        records_to_ppm(sweep(get("t24").link, grid(3, 2)), 3, 3)
