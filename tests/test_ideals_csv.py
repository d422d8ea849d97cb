"""The ideals CSV from the stratum columns, against the per-report writer it
replaced."""

import random

import pytest

from linksig.cli import main
from linksig.sampler import grid
from linksig.strata import PresentationMatrix, load_presentation, save_presentation, stratum_indices
from linksig.torus import TorusPoint, turn_formatter

from conftest import random_poly

# -- the ideals writer before the columns: the reference ---------------------------


def reference_ideals(path: str, omega: str | None, n: int, tau_poly: float) -> tuple[str, int]:
    pres = load_presentation(path)
    lines = ["q" + ",q".join(str(i) for i in range(1, pres.mu + 1)) + ",index,predicted_nullity,flags"]
    uncertain = False
    if omega:
        points = [TorusPoint.from_string(omega)]
    else:
        points = [pt for pt in grid(n, pres.mu, include_faces=True) if not pt.is_basepoint()]
    turn_strings = turn_formatter()
    for rep in stratum_indices(pres, points, tau_poly):
        predicted = "NA" if rep.predicted_nullity is None else str(rep.predicted_nullity)
        flags = "|".join(sorted(rep.flags))
        uncertain = uncertain or "Uncertain" in rep.flags
        lines.append(",".join(turn_strings(rep.point) + [str(rep.index), predicted, flags]))
    return "\n".join(lines) + "\n", 3 if uncertain else 0


def _check(path, capsys, tmp_path, omega=None, n=8, tau_poly=1e-8):
    text, code = reference_ideals(path, omega, n, tau_poly)
    mode = ["--omega", omega] if omega else ["--classify", "--grid", str(n)]
    argv = ["--tau-poly", repr(tau_poly), "ideals", path] + mode
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (text, "")
    out = tmp_path / "strata.csv"
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == text.encode()
    assert capsys.readouterr().out == ""
    return text, code


@pytest.fixture
def aug4(tmp_path, capsys):
    assert main(["catalog", "show", "aug4", "--export", str(tmp_path)]) == 0
    capsys.readouterr()
    return str(tmp_path / "aug4.presentation.json")


def test_aug4_csv_matches_the_report_writer(aug4, capsys, tmp_path):
    seen_flags, seen_codes = set(), set()
    for n in range(2, 10):
        _check(aug4, capsys, tmp_path, n=n)
    for n, tau_poly in ((3, 1e-8), (3, 0.05), (4, 0.05), (5, 0.3), (4, 2.0)):
        text, code = _check(aug4, capsys, tmp_path, n=n, tau_poly=tau_poly)
        seen_codes.add(code)
        seen_flags |= {row.rsplit(",", 1)[1] for row in text.splitlines()[1:]}
    for omega in ("1/3,1/5,1/7,1/2", "0,0,0,1/3", "0,1/2,0,1/4"):
        for tau_poly in (1e-8, 0.3):
            _check(aug4, capsys, tmp_path, omega=omega, tau_poly=tau_poly)
    # uncertain and certain rows, suppressed predictions, both exit codes
    assert seen_flags == {"", "Uncertain", "MoreThanTwoOnes", "MoreThanTwoOnes|Uncertain"}
    assert seen_codes == {0, 3}


def test_random_presentation_csv_matches_the_report_writer(tmp_path, capsys):
    rng = random.Random(5)
    for trial in range(12):
        mu = 1 + trial % 3
        m = rng.randint(1, 3)
        rows = [[random_poly(rng, mu, max_terms=4, exp_range=(-2, 2), coeff_range=(-3, 3)) for _ in range(m)]
                for _ in range(m + rng.randint(0, 1))]
        path = str(tmp_path / f"rand{trial}.presentation.json")
        save_presentation(PresentationMatrix(mu, rows), path)
        for n in (2, 5) if mu > 1 else (2, 7, 12):
            for tau_poly in (1e-8, 0.3, 2.0):
                _check(path, capsys, tmp_path, n=n, tau_poly=tau_poly)


def test_ideals_grid_below_two_exits_2(aug4, capsys):
    for n in ("1", "0", "-4"):
        assert main(["ideals", aug4, "--classify", "--grid", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: grid needs n >= 2\n"


def test_ideals_base_point_exits_2(aug4, capsys):
    assert main(["ideals", aug4, "--omega", "0,0,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: the stratification lives on the pointed torus\n"
