"""Workload inputs, exact oracles and output checks for the linksig benchmark.

Each workload is one CLI command on files written into a work directory.
``prepare`` writes the inputs and computes the oracle (untimed);
``check`` reads the command's output and compares it with the oracle.

Why these four, each spending most of its time in a different layer:

- ``sweep_small_g``: ``sigmap`` of catalog l(1) (mu=3, g=2) on a grid of 32.
  Per-point Python overhead dominates: point construction with Fraction,
  ``hermitian_with_scale`` and ``inertia`` bookkeeping.  Jacobi is a small
  share, so this is where a batched sweep engine shows.
- ``sweep_large_g``: ``sigmap`` of a synthetic link (mu=2, g=16) on a grid
  of 8.  The eigensolver takes almost all the time;
  no catalog link has g > 2.  The link is degenerate (eta = 4 everywhere),
  so nullity and certification are exercised.
- ``concordance``: ``report`` of l(1) with its slope file at p=3, d=3.  The
  point list is not a grid, and the face path (``face_parts``, ``slope``,
  ``solve`` and a g=4 inertia) costs several times an interior point.
- ``strata``: ``ideals`` of catalog aug4 with ``--classify --grid 8``.
  ``laurent.eval_at`` dominates and no signature code runs: the control
  that sweep optimisations should not move.

No workload's input depends on the run's seed.  The catalog inputs are
fixed, and the synthetic link is built from the fixed LARGE_SEED: Jacobi's
cost varies between random links far more than between runs (12 random
links took 27k to 42k rotations on the grid of 8, an interquartile spread of
about a fifth), so a per-run random link would swamp any regression bound.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import linksig
from linksig import catalog
from linksig.cli import main as cli_main

# Synthetic link shape: a random core block padded with a zero block, so
# every point has nullity at least LARGE_G - LARGE_CORE.
LARGE_G = 16
LARGE_CORE = 12
LARGE_ENTRY = 3
LARGE_SEED = 1

QUARTER_TURNS = frozenset({Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)})


@dataclass
class Prepared:
    """One workload instance: the command, its inputs and its oracle."""

    argv: list[str]
    inputs: list[tuple[str, str]]  # (loader kind, path) for the set-up timing
    output: str | None  # --out path, or None when the command prints to stdout
    samples: int  # samples the command evaluates
    oracle: dict = field(default_factory=dict)


@dataclass
class Check:
    """What one command's output showed, against the oracle."""

    samples: int = 0
    errors: int = 0  # Skipped with EvaluationError, or every sample of an exit-4 run
    uncertain: int = 0  # uncertain or flagged among non-skipped samples
    evaluated: int = 0  # non-skipped samples
    checked: int = 0  # samples compared with the exact oracle
    mismatches: int = 0
    problems: list[str] = field(default_factory=list)


def export_catalog(key: str, workdir: str) -> None:
    """Write the file-schema exports of a catalog entry through the CLI."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["catalog", "show", key, "--export", workdir])
    if code != 0:
        raise RuntimeError(f"catalog export of {key!r} exited with {code}")


def _interior_grid_turns(n: int, mu: int) -> list[tuple[str, ...]]:
    return [tuple(str(Fraction(k, n)) for k in ks) for ks in product(range(1, n), repeat=mu)]


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# -- sweep_small_g ---------------------------------------------------------------


def prepare_sweep_small_g(workdir: str, seed: int, smoke: bool) -> Prepared:
    export_catalog("l(1)", workdir)
    link = os.path.join(workdir, "l_1.link.json")
    out = os.path.join(workdir, "sweep_small_g.csv")
    n = 4 if smoke else 32
    expected_sigma = catalog.get("l(1)").expected["sigma_interior"].value
    return Prepared(
        argv=["sigmap", link, "--grid", str(n), "--format", "csv", "--out", out],
        inputs=[("link", link)],
        output=out,
        samples=(n - 1) ** 3,
        oracle={"turns": _interior_grid_turns(n, 3), "sigma": expected_sigma},
    )


def check_sweep_small_g(prep: Prepared, stdout_path: str) -> Check:
    header, rows = _read_csv(prep.output)
    res = Check(samples=len(rows))
    expected = prep.oracle["turns"]
    if header != ["q1", "q2", "q3", "sigma", "eta", "source", "certified"]:
        res.problems.append(f"unexpected CSV header {header}")
        return res
    if len(rows) != len(expected):
        res.problems.append(f"{len(rows)} rows, expected {len(expected)}")
    for row, turns in zip(rows, expected):
        sigma, _eta, source, certified = row[3:]
        if tuple(row[:3]) != turns:
            res.problems.append(f"row {row[:3]} out of grid order, expected {turns}")
            break
        if source == "Skipped" and certified == "false":
            res.errors += 1
            continue
        res.evaluated += 1
        res.uncertain += certified != "true"
        res.checked += 1
        res.mismatches += source != "Interior" or sigma != str(prep.oracle["sigma"])
    return res


# -- sweep_large_g ---------------------------------------------------------------


def synthetic_link(seed: int, g: int = LARGE_G, core: int = LARGE_CORE) -> dict:
    """A degenerate two-color link record with rank-``core`` forms.

    For each stored sign vector (one of each pair {eps, -eps}) a random
    integer core block is padded with zeros to g x g, and all matrices are
    moved by one unimodular congruence P^T A P built from 2g elementary row
    operations, the i-th of which changes row i mod g, so every direction of
    the kernel is mixed into the core.  Entries are Python ints throughout.
    """
    rng = random.Random(seed)
    p = [[int(i == j) for j in range(g)] for i in range(g)]
    for step in range(2 * g):
        i = step % g
        j = rng.choice([k for k in range(g) if k != i])
        s = rng.choice((1, -1))
        p[i] = [a + s * b for a, b in zip(p[i], p[j])]
    seifert = {}
    for eps in (("+", "+"), ("+", "-")):
        a = [[0] * g for _ in range(g)]
        for i in range(core):
            for j in range(core):
                a[i][j] = rng.randint(-LARGE_ENTRY, LARGE_ENTRY)
        ap = [[sum(a[i][k] * p[k][j] for k in range(g)) for j in range(g)] for i in range(g)]
        seifert["".join(eps)] = [[sum(p[k][i] * ap[k][j] for k in range(g)) for j in range(g)]
                                 for i in range(g)]
    return {
        "name": f"synthetic-g{g}-seed{seed}",
        "mu": 2,
        "components": [{"id": "K1", "color": 1}, {"id": "K2", "color": 2}],
        "linking": {},
        "g": g,
        "seifert": seifert,
    }


def _gaussian_power_of_i(m: int) -> tuple[int, int]:
    return ((1, 0), (0, 1), (-1, 0), (0, -1))[m % 4]


def exact_quarter_inertia(record: dict, turns: tuple[Fraction, ...]) -> tuple[int, int]:
    """(sigma, eta) of H at a point whose turns are multiples of 1/4, exactly.

    Every factor 1 - conj(w)^eps is then a Gaussian integer, so H lies in
    Z[i]^{g x g}; its realification [[Re, -Im], [Im, Re]] is an integer
    symmetric matrix whose inertia is twice that of H.
    """
    g = record["g"]
    matrices = {}
    for key, rows in record["seifert"].items():
        eps = tuple(1 if ch == "+" else -1 for ch in key)
        matrices[eps] = rows
        matrices[tuple(-e for e in eps)] = [list(col) for col in zip(*rows)]
    re_h = [[0] * g for _ in range(g)]
    im_h = [[0] * g for _ in range(g)]
    for eps, rows in matrices.items():
        cr, ci = 1, 0
        for q, e in zip(turns, eps):
            k = int(q * 4)
            wr, wi = _gaussian_power_of_i(-e * k)  # conj(w)^e = i^(-e k)
            fr, fi = 1 - wr, -wi
            cr, ci = cr * fr - ci * fi, cr * fi + ci * fr
        for i in range(g):
            for j in range(g):
                re_h[i][j] += cr * rows[i][j]
                im_h[i][j] += ci * rows[i][j]
    real = [re_h[i] + [-x for x in im_h[i]] for i in range(g)]
    real += [im_h[i] + re_h[i] for i in range(g)]
    sig2, null2 = linksig.exact_symmetric_inertia(real)
    if sig2 % 2 or null2 % 2:
        raise RuntimeError("realified inertia is not even")
    return sig2 // 2, null2 // 2


def prepare_sweep_large_g(workdir: str, seed: int, smoke: bool) -> Prepared:
    record = synthetic_link(LARGE_SEED)
    link = os.path.join(workdir, "synthetic.link.json")
    with open(link, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    out = os.path.join(workdir, "sweep_large_g.json")
    n = 4 if smoke else 8
    exact = {}
    for ks in product(range(1, n), repeat=2):
        turns = tuple(Fraction(k, n) for k in ks)
        if all(q in QUARTER_TURNS for q in turns):
            exact[tuple(str(q) for q in turns)] = exact_quarter_inertia(record, turns)
    return Prepared(
        argv=["sigmap", link, "--grid", str(n), "--format", "json", "--out", out],
        inputs=[("link", link)],
        output=out,
        samples=(n - 1) ** 2,
        oracle={"turns": _interior_grid_turns(n, 2), "exact": exact},
    )


def check_sweep_large_g(prep: Prepared, stdout_path: str) -> Check:
    with open(prep.output, encoding="utf-8") as fh:
        records = json.load(fh)["records"]
    res = Check(samples=len(records))
    expected = prep.oracle["turns"]
    if len(records) != len(expected):
        res.problems.append(f"{len(records)} records, expected {len(expected)}")
    for rec, turns in zip(records, expected):
        if tuple(rec["turns"]) != turns:
            res.problems.append(f"record {rec['turns']} out of grid order, expected {turns}")
            break
        if "EvaluationError" in rec["flags"]:
            res.errors += 1
            continue
        if rec["source"] != "Interior":
            res.problems.append(f"{rec['source']} record at interior point {turns}")
        res.evaluated += 1
        res.uncertain += (not rec["certified"]) or bool(rec["flags"])
        exact = prep.oracle["exact"].get(turns)
        if exact is not None:
            res.checked += 1
            res.mismatches += (rec["sigma"], rec["eta"]) != exact
    return res


# -- concordance -----------------------------------------------------------------


def prepare_concordance(workdir: str, seed: int, smoke: bool) -> Prepared:
    export_catalog("l(1)", workdir)
    link = os.path.join(workdir, "l_1.link.json")
    slope = os.path.join(workdir, "l_1.slope.json")
    depth = 1 if smoke else 3
    evaluated = 0
    witnesses = set()
    points = list(linksig.tbang_points(3, depth, 3))
    for pt in points:
        ones = pt.unit_coordinates()
        if not ones:
            evaluated += 1
        elif ones == (1,):
            evaluated += 1
            if catalog.ln_face_sigma(pt.drop(1)) != 0:
                witnesses.add(str(pt))
    return Prepared(
        argv=["report", link, "--slope", slope, "--prime", "3", "--depth", str(depth)],
        inputs=[("link", link), ("slope", slope)],
        output=None,
        samples=len(points),
        oracle={"evaluated": evaluated, "witnesses": witnesses},
    )


def check_concordance(prep: Prepared, stdout_path: str) -> Check:
    with open(stdout_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    res = Check()
    if not lines or not lines[-1].startswith("samples="):
        res.problems.append("report has no samples= line")
        return res
    fields = dict(part.split("=") for part in lines[-1].split())
    res.samples = int(fields["samples"])
    res.uncertain = int(fields["uncertain"])
    # Evaluation errors are not visible in the report text; only exit code 4 shows them.
    res.evaluated = prep.oracle["evaluated"]
    if res.samples != prep.samples:
        res.problems.append(f"samples={res.samples}, expected {prep.samples}")
    if lines[0] != "OBSTRUCTED":
        res.problems.append(f"verdict {lines[0]!r}, expected OBSTRUCTED")
    found = set()
    for line in lines[1:-1]:
        point, _, _sigma = line[len("witness "):].rpartition(" sigma=")
        found.add(point)
    # The witness set fixes sigma's sign at every evaluated point: nonzero
    # exactly at the listed face points, zero elsewhere.
    expected = prep.oracle["witnesses"]
    res.checked = res.evaluated
    res.mismatches = len(expected ^ found)
    return res


# -- strata ----------------------------------------------------------------------


def prepare_strata(workdir: str, seed: int, smoke: bool) -> Prepared:
    export_catalog("aug4", workdir)
    pres = os.path.join(workdir, "aug4.presentation.json")
    out = os.path.join(workdir, "strata.csv")
    n = 3 if smoke else 8
    turns = [tuple(str(Fraction(k, n)) for k in ks) for ks in product(range(n), repeat=4)][1:]
    index = catalog.get("aug4").expected["stratum_index"].value
    return Prepared(
        argv=["ideals", pres, "--classify", "--grid", str(n), "--out", out],
        inputs=[("presentation", pres)],
        output=out,
        samples=len(turns),
        oracle={"turns": turns, "index": str(index)},
    )


def check_strata(prep: Prepared, stdout_path: str) -> Check:
    header, rows = _read_csv(prep.output)
    res = Check(samples=len(rows), evaluated=len(rows))
    expected = prep.oracle["turns"]
    if header[:4] != ["q1", "q2", "q3", "q4"] or header[4:] != ["index", "predicted_nullity", "flags"]:
        res.problems.append(f"unexpected CSV header {header}")
        return res
    if len(rows) != len(expected):
        res.problems.append(f"{len(rows)} rows, expected {len(expected)}")
    for row, turns in zip(rows, expected):
        if tuple(row[:4]) != turns:
            res.problems.append(f"row {row[:4]} out of grid order, expected {turns}")
            break
        res.uncertain += "Uncertain" in row[6].split("|")
        res.checked += 1
        res.mismatches += row[4] != prep.oracle["index"]
    return res


WORKLOADS = {
    "sweep_small_g": (prepare_sweep_small_g, check_sweep_small_g),
    "sweep_large_g": (prepare_sweep_large_g, check_sweep_large_g),
    "concordance": (prepare_concordance, check_concordance),
    "strata": (prepare_strata, check_strata),
}
