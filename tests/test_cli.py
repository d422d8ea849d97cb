"""Command-line behavior: outputs, exit codes, round trips."""

import json
import os
import subprocess
import sys
import time

import pytest

import linksig.cli
from linksig.catalog import get
from linksig.cli import main
from linksig.clink import load_link, slope_from_dict


@pytest.fixture
def exported(tmp_path):
    assert main(["catalog", "show", "l(1)", "--export", str(tmp_path)]) == 0
    return {
        "link": str(tmp_path / "l_1.link.json"),
        "slope": str(tmp_path / "l_1.slope.json"),
        "dir": tmp_path,
    }


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "hopf1" in out and "l(3)" in out and "aug4" in out


def test_catalog_show_unknown(capsys):
    assert main(["catalog", "show", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_export_roundtrip(exported):
    entry = get("l(1)")
    link = load_link(exported["link"])
    assert link == entry.link
    with open(exported["slope"], encoding="utf-8") as fh:
        slope_data = slope_from_dict(json.load(fh))
    assert slope_data == entry.slope


def test_slope_command(exported, capsys):
    assert main(["slope", exported["slope"], "--omega", "1/4,1/4"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 4.0) < 1e-9


def test_slope_command_rejects_face(exported, capsys):
    assert main(["slope", exported["slope"], "--omega", "0,1/4"]) == 2


def test_hosokawa_command(tmp_path, capsys):
    assert main(["catalog", "show", "t24", "--export", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["hosokawa", str(tmp_path / "t24.link.json")]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "t1^2*t2^2 - t1^2*t2 - t1*t2^2 + 2*t1*t2 - t1 - t2 + 1"


def test_hosokawa_normalized_and_override(exported, capsys):
    assert main(["hosokawa", exported["link"], "--normalized"]) == 0
    assert capsys.readouterr().out.strip() == "-t1^2 + 2 - t1^-2"
    assert main(["hosokawa", exported["link"], "--delta", "t1 - 1"]) == 2  # wrong arity


def test_report_command(exported, capsys):
    code = main(["report", exported["link"], "--slope", exported["slope"],
                 "--prime", "2", "--depth", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("OBSTRUCTED")
    assert "witness (0, 1/4, 1/4) sigma=1" in out


def test_mirror_command(exported, tmp_path, capsys):
    out_path = str(tmp_path / "mirrored.json")
    assert main(["mirror", exported["link"], "--out", out_path]) == 0
    mirrored = load_link(out_path)
    assert mirrored.seifert[(1, 1, 1)] == ((0, -1), (-1, 0))
    assert mirrored.name.endswith("-mirror")


def test_sigmap_csv_and_determinism(exported, tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    old = os.environ.get("LINKSIG_THREADS")
    try:
        os.environ["LINKSIG_THREADS"] = "1"
        assert main(["sigmap", exported["link"], "--grid", "6", "--out", out1]) == 0
        os.environ["LINKSIG_THREADS"] = "8"
        assert main(["sigmap", exported["link"], "--grid", "6", "--out", out2]) == 0
    finally:
        if old is None:
            os.environ.pop("LINKSIG_THREADS", None)
        else:
            os.environ["LINKSIG_THREADS"] = old
    with open(out1, "rb") as fh:
        b1 = fh.read()
    with open(out2, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2
    header = b1.decode().split("\n", 1)[0]
    assert header == "q1,q2,q3,sigma,eta,source,certified"


def test_sigmap_faces_with_slope(exported, tmp_path, capsys):
    out = str(tmp_path / "faces.csv")
    code = main(["sigmap", exported["link"], "--grid", "4", "--faces",
                 "--slope", exported["slope"], "--out", out])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    assert "0,1/4,1/4,1,NA,Face,true" in text


def test_sigmap_ppm(tmp_path, capsys):
    assert main(["catalog", "show", "t24", "--export", str(tmp_path)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "map.ppm")
    assert main(["sigmap", str(tmp_path / "t24.link.json"), "--grid", "8",
                 "--format", "ppm", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "P3" and lines[1] == "7 7"


def test_ideals_commands(tmp_path, capsys):
    assert main(["catalog", "show", "aug4", "--export", str(tmp_path)]) == 0
    capsys.readouterr()
    path = str(tmp_path / "aug4.presentation.json")
    assert main(["ideals", path, "--omega", "1/3,1/5,1/7,1/2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "q1,q2,q3,q4,index,predicted_nullity,flags"
    assert out[1] == "1/3,1/5,1/7,1/2,1,1,"
    assert main(["ideals", path, "--classify", "--grid", "2"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 2**4 - 1  # base point excluded
    assert all(row.split(",")[4] == "1" for row in rows)


def test_huge_turn_exponents_exit_2_at_once(exported, tmp_path, capsys):
    assert main(["catalog", "show", "aug4", "--export", str(tmp_path)]) == 0
    capsys.readouterr()
    presentation = str(tmp_path / "aug4.presentation.json")
    long_turn = "1" * 100_000
    for argv in (["slope", exported["slope"], "--omega", "1e10000000,1/2"],
                 ["slope", exported["slope"], "--omega", f"1/2,1e-{10**100}"],
                 ["ideals", presentation, "--omega", f"1/3,1/5,1/7,{long_turn}"]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "more than 4300 digits" in err and len(err) < 200


def test_oversized_lattices_exit_2_at_once(exported, tmp_path, capsys):
    assert main(["catalog", "show", "aug4", "--export", str(tmp_path)]) == 0
    assert main(["catalog", "show", "t24", "--export", str(tmp_path)]) == 0
    capsys.readouterr()
    for argv in (["sigmap", str(tmp_path / "t24.link.json"), "--grid", "10000000000"],
                 ["ideals", str(tmp_path / "aug4.presentation.json"), "--classify", "--grid", "3100000000"],
                 ["report", exported["link"], "--prime", "2", "--depth", "64"],
                 ["report", exported["link"], "--prime", "3", "--depth", str(10**12)]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "too large" in err and "Traceback" not in err


def test_invalid_inputs_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["sigmap", missing, "--grid", "4"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sigmap", str(bad), "--grid", "4"]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"name": "x", "mu": 2, "components": [{"id": "A", "color": 1}]}))
    assert main(["sigmap", str(schema), "--grid", "4"]) == 2


def test_ideals_huge_coefficient_exits_2(tmp_path, capsys):
    pres = {"mu": 2, "entries": [[f"{10**400}*t1 - 1"], ["t2 - 1"]]}
    path = tmp_path / "huge.presentation.json"
    path.write_text(json.dumps(pres))
    for mode in (["--omega", "1/3,1/5"], ["--classify", "--grid", "3"]):
        assert main(["ideals", str(path)] + mode) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_polynomial_only_link_cannot_be_sampled(tmp_path, capsys):
    from linksig.clink import link_to_dict

    entry = get("whitehead")
    path = tmp_path / "wh.json"
    path.write_text(json.dumps(link_to_dict(entry.link)))
    assert main(["sigmap", str(path), "--grid", "4"]) == 2
    assert main(["hosokawa", str(path)]) == 0


def test_uncertain_samples_exit_3(tmp_path):
    # eigenvalue ratio ~1e9 puts the small eigenvalue inside the certified
    # band relative to the structural scale, so the sweep reports uncertainty
    link = {
        "name": "near-band",
        "mu": 1,
        "components": [{"id": "K", "color": 1}],
        "linking": {},
        "g": 2,
        "seifert": {"+": [[10**9, 0], [0, 1]]},
    }
    path = tmp_path / "nb.json"
    path.write_text(json.dumps(link))
    out = str(tmp_path / "nb.csv")
    assert main(["sigmap", str(path), "--grid", "2", "--out", out]) == 3
    with open(out, encoding="utf-8") as fh:
        rows = fh.read().strip().split("\n")
    assert rows[1].endswith("false")


@pytest.mark.parametrize("argv", [
    ["--tau", "nan", "sigmap", "LINK", "--grid", "3"],
    ["--tau", "inf", "sigmap", "LINK", "--grid", "3"],
    ["--tau-poly", "nan", "ideals", "PRES", "--omega", "1/2,1/3,1/4,1/5"],
    ["--tau-poly", "inf", "ideals", "PRES", "--omega", "1/2,1/3,1/4,1/5"],
    ["--tau-poly=-inf", "ideals", "PRES", "--classify", "--grid", "2"],
])
def test_nonfinite_tolerances_exit_2(exported, argv, capsys):
    assert main(["catalog", "show", "aug4", "--export", str(exported["dir"])]) == 0
    paths = {"LINK": exported["link"], "PRES": str(exported["dir"] / "aug4.presentation.json")}
    with pytest.raises(SystemExit) as exc:
        main([paths.get(a, a) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "positive and finite" in captured.err


def test_sigmap_overflow_keeps_stderr_empty(tmp_path):
    link = get("l(1)").link
    huge = {eps: [[5 * 10**307 * x for x in row] for row in m] for eps, m in link.seifert.items()}
    data = linksig.clink.link_to_dict(link)
    data["seifert"] = {linksig.clink.sign_key(eps): m for eps, m in huge.items()}
    path = tmp_path / "huge.link.json"
    path.write_text(json.dumps(data))
    src = os.path.dirname(os.path.dirname(linksig.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "linksig.cli", "sigmap", str(path), "--grid", "4"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 27 and all(row.endswith(",NA,NA,Skipped,false") for row in rows)


def test_overflowing_slope_is_a_numerical_failure(exported):
    # the slope base of l(1) scaled by 10**307 overflows E(omega); the slope
    # must fail and the face records must be skipped, all without warnings
    data = json.loads((exported["dir"] / "l_1.slope.json").read_text())
    data["base"]["seifert"] = {key: [[10**307 * x for x in row] for row in m]
                               for key, m in data["base"]["seifert"].items()}
    path = exported["dir"] / "huge.slope.json"
    path.write_text(json.dumps(data))
    src = os.path.dirname(os.path.dirname(linksig.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "linksig.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = run("slope", str(path), "--omega", "1/30,1/30")
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr.startswith("numerical failure:") and len(proc.stderr.splitlines()) == 1
    proc = run("sigmap", exported["link"], "--grid", "30", "--faces", "--slope", str(path), "--format", "json")
    assert proc.returncode == 0
    assert proc.stderr == ""
    records = {tuple(r["turns"]): r for r in json.loads(proc.stdout)["records"]}
    for q2, q3 in (("1/30", "1/30"), ("1/30", "29/30"), ("29/30", "1/30"), ("29/30", "29/30")):
        r = records[("0", q2, q3)]
        assert (r["sigma"], r["source"], r["certified"]) == (None, "Skipped", False)
        assert r["flags"] == ["EvaluationError", "EigensolverFailure"]


def test_sigmap_ppm_rejects_arity_before_sweeping(exported, monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sample_map must not run")

    monkeypatch.setattr(linksig.cli, "sample_map", no_sweep)
    assert main(["sigmap", exported["link"], "--grid", "3", "--format", "ppm"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "two colors" in captured.err
