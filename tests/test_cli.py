"""Command-line behavior: outputs, exit codes, round trips."""

import itertools
import json
import os
import shlex
import subprocess
import sys
import time

import pytest

import linksig.cli
from linksig.catalog import get
from linksig.cli import main
from linksig.clink import load_link, load_slope, slope_from_dict
from linksig.hermitian import MAX_TAU
from linksig.sampler import FLAG_ERROR, concordance_report, grid, records_to_csv, sweep, tbang_points


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


def test_sweeps_beyond_memory_exit_2(exported, tmp_path, capsys):
    # each sweep needs arrays of PiB scale or more, which numpy refuses outright
    assert main(["catalog", "show", "aug4", "--export", str(tmp_path)]) == 0
    capsys.readouterr()
    for argv in (["sigmap", exported["link"], "--grid", "100000"],
                 ["report", exported["link"], "--prime", "3", "--depth", "12"],
                 ["ideals", str(tmp_path / "aug4.presentation.json"), "--classify", "--grid", "10000"]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate") and captured.err.count("\n") == 1


def test_invalid_inputs_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["sigmap", missing, "--grid", "4"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sigmap", str(bad), "--grid", "4"]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"name": "x", "mu": 2, "components": [{"id": "A", "color": 1}]}))
    assert main(["sigmap", str(schema), "--grid", "4"]) == 2


def _set(keys, value):
    # an edit that puts value at the path of keys and indices in a document
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


_LINK = ["sigmap", "{}", "--grid", "3"]
_LINK_POLY = ["hosokawa", "{}"]
_SLOPE = ["slope", "{}", "--omega", "1/4,1/4"]
_PRESENTATION = ["ideals", "{}", "--omega", "1/3,1/3,1/3,1/3"]


@pytest.mark.parametrize("key,suffix,edit,argv", [
    pytest.param("hopf1", "link", _set(["mu"], "abc"), _LINK, id="mu-text"),
    pytest.param("hopf1", "link", _set(["mu"], 1.7), _LINK, id="mu-float"),
    pytest.param("hopf1", "link", _set(["components", 0, "color"], True), _LINK, id="color-bool"),
    pytest.param("hopf1", "link", _set(["g"], 1.0), _LINK, id="g-float"),
    pytest.param("hopf1", "link", _set(["seifert", "+", 0, 0], "x"), _LINK, id="seifert-text"),
    pytest.param("hopf1", "link", _set(["seifert", "+", 0, 0], 10**400), _LINK, id="seifert-huge"),
    pytest.param("hopf1", "link", _set(["seifert", "+", 0, 0], 1.5), _LINK, id="seifert-float"),
    pytest.param("hopf1", "link", _set(["seifert", "+", 0, 0], True), _LINK, id="seifert-bool"),
    pytest.param("hopf1", "link", _set(["seifert", "+"], 5), _LINK, id="seifert-not-rows"),
    pytest.param("t24", "link", _set(["linking"], [1]), _LINK_POLY, id="linking-list"),
    pytest.param("t24", "link", _set(["linking", "K1,K2"], 1.5), _LINK_POLY, id="linking-float"),
    pytest.param("t24", "link", _set(["alexander"], 5), _LINK_POLY, id="alexander-number"),
    pytest.param("l(1)", "slope", _set(["distinguished_color"], "x"), _SLOPE, id="color-text"),
    pytest.param("l(1)", "slope", _set(["k_class", 0], 10**400), _SLOPE, id="k-class-huge"),
    pytest.param("l(1)", "slope", _set(["k_class", 0], 1.9), _SLOPE, id="k-class-float"),
    pytest.param("aug4", "presentation", _set(["entries", 0, 0], 5), _PRESENTATION, id="entry-number"),
    pytest.param("aug4", "presentation", _set(["entries", 0], 5), _PRESENTATION, id="row-number"),
    pytest.param("aug4", "presentation", _set(["n_relations"], "x"), _PRESENTATION, id="n-relations-text"),
    pytest.param("aug4", "presentation", _set(["m_generators"], 4.0), _PRESENTATION, id="m-generators-float"),
])
def test_malformed_documents_exit_2(tmp_path, capsys, key, suffix, edit, argv):
    # a malformed field gives exit 2 and one error line, never a traceback or a truncated value
    assert main(["catalog", "show", key, "--export", str(tmp_path)]) == 0
    path = tmp_path / f"{key.replace('(', '_').replace(')', '')}.{suffix}.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("key,edit", [
    pytest.param("t24", _set(["linking"], {"K1,K2": 2, "K2,K1": 1}), id="linking-conflict"),
    pytest.param("t24", _set(["linking"], [["K1,K2", 2]]), id="linking-pairs"),
    pytest.param("hopf1", _set(["mu"], 300000), id="mu-huge"),
])
def test_link_loader_refusals_are_one_short_line(tmp_path, capsys, key, edit):
    # the loader refuses what ColoredLinkData refuses, and names a few unused colors, not all
    assert main(["catalog", "show", key, "--export", str(tmp_path)]) == 0
    path = tmp_path / f"{key}.link.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["hosokawa", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err) < 200


def test_ideals_huge_coefficient_exits_2(tmp_path, capsys):
    pres = {"mu": 2, "entries": [[f"{10**400}*t1 - 1"], ["t2 - 1"]]}
    path = tmp_path / "huge.presentation.json"
    path.write_text(json.dumps(pres))
    for mode in (["--omega", "1/3,1/5"], ["--classify", "--grid", "3"]):
        assert main(["ideals", str(path)] + mode) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_ideals_overflowing_coefficient_mass_prints_one_line(tmp_path, capsys):
    # each coefficient fits a float, their mass does not: a value overflows
    # in its sum (at 1/5) or in its modulus (at 1/7) before the cut refuses
    # the generator
    path = tmp_path / "mass.presentation.json"
    for c, n in ((17 * 10**307, 5), (10**308, 7)):
        path.write_text(json.dumps({"mu": 1, "entries": [[f"{c}*t1 + {c}"]]}))
        for mode in (["--omega", f"1/{n}"], ["--classify", "--grid", str(n)]):
            assert main(["ideals", str(path)] + mode) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: a generator's coefficient mass does not fit a float\n"


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


def test_underflowing_slope_coefficient_is_a_numerical_failure(exported, capsys):
    # at turns 1e-200 the product prod_i (1 - omega_i^{eps_i}) underflows to 0
    capsys.readouterr()
    assert main(["slope", exported["slope"], "--omega", "1e-200,1e-200"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1


def test_report_exits_4_on_samples_that_failed(exported):
    # with the slope base of l(1) scaled by 10**307, 16 face samples of the
    # report fail; stdout keeps the report, and one stderr line names them
    data = json.loads((exported["dir"] / "l_1.slope.json").read_text())
    data["base"]["seifert"] = {key: [[10**307 * x for x in row] for row in m]
                               for key, m in data["base"]["seifert"].items()}
    path = exported["dir"] / "huge.slope.json"
    path.write_text(json.dumps(data))
    src = os.path.dirname(os.path.dirname(linksig.cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "linksig.cli", "report", exported["link"], "--slope", str(path),
                           "--prime", "3", "--depth", "2"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 4
    assert proc.stdout == "INCONCLUSIVE\nsamples=729 uncertain=0\n"
    assert proc.stderr == ("numerical failure: 16 of 729 samples failed to evaluate; "
                           "the first at (0, 1/3, 1/3): EigensolverFailure\n")
    records = sweep(load_link(exported["link"]), tbang_points(3, 2, 3), load_slope(str(path))).records()
    failed = [rec for rec in records if rec.flags[:1] == (FLAG_ERROR,)]
    assert len(failed) == 16 and str(failed[0].point) == "(0, 1/3, 1/3)"
    assert all(rec.flags == (FLAG_ERROR, "EigensolverFailure") for rec in failed)


def test_unreadable_inputs_and_outputs_exit_2(exported, tmp_path, capsys):
    # a directory, a file of non-UTF-8 bytes, an output path that is a directory:
    # each is one error line, never a traceback
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x80" + bytes(range(256)))
    for argv in (["sigmap", str(tmp_path), "--grid", "4"],
                 ["sigmap", str(binary), "--grid", "4"],
                 ["sigmap", exported["link"], "--grid", "4", "--out", str(tmp_path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_link_is_validated_before_its_polynomials_are_parsed(tmp_path, capsys, monkeypatch):
    # a huge mu would make every parsed term a tuple of mu exponents; the
    # link's colors refuse it first
    parse_poly = linksig.clink.parse_poly

    def bounded_parse(text, mu, **kwargs):
        assert mu <= 1, "a polynomial was parsed with a mu the link does not have"
        return parse_poly(text, mu=mu, **kwargs)

    monkeypatch.setattr(linksig.clink, "parse_poly", bounded_parse)
    doc = {"name": "hopf-huge-mu", "mu": 10**9, "components": [{"id": "K1", "color": 1}, {"id": "K2", "color": 1}],
           "linking": {"K1,K2": 1}, "alexander": "t1 - 1"}
    path = tmp_path / "huge-mu.link.json"
    path.write_text(json.dumps(doc))
    assert main(["hosokawa", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "colors not used by any component" in captured.err
    doc["mu"] = 1
    path.write_text(json.dumps(doc))
    assert main(["hosokawa", str(path)]) == 0
    assert capsys.readouterr().out == "1\n"


def _readme_cli_lines() -> list[str]:
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text[text.index("```sh", text.index("\n## CLI\n")):]
    block = block[:block.index("```", 5)]
    return [line for line in block.splitlines() if line.startswith("linksig ")]


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, (line, capsys.readouterr().err)
        out = capsys.readouterr().out
        if argv[0] == "slope":
            assert out == "4\n"


def _l1_at_huge_tau() -> str:
    # a cut of tau * scale = inf calls every eigenvalue zero
    rows = ["q1,q2,q3,sigma,eta,source,certified\n"]
    for turns in itertools.product(("0", "1/3", "2/3"), repeat=3):
        zeros = turns.count("0")
        tail = "0,2,Interior" if not zeros else "0,NA,Face" if zeros == 1 and turns[0] == "0" else "NA,NA,Skipped"
        rows.append(",".join(turns) + f",{tail},true\n")
    return "".join(rows)


def _sigmap_csv(link_path: str, n: int, tau: float, slope_path: str | None = None) -> str:
    # sigmap's CSV through the Python API, which takes any positive tau
    link = load_link(link_path)
    slope_data = load_slope(slope_path) if slope_path else None
    return records_to_csv(sweep(link, grid(n, link.mu, slope_path is not None), slope_data, tau), link.mu)


def _report_text(link_path: str, slope_path: str, tau: float) -> str:
    report = concordance_report(load_link(link_path), load_slope(slope_path), 3, 1, tau)
    assert not report.witnesses and not report.errors
    return f"{report.verdict.upper()}\nsamples={report.samples} uncertain={report.uncertain}\n"


@pytest.mark.parametrize("argv, api, expected", [
    (["--tau", "1e308", "sigmap", "T24", "--grid", "3"], lambda paths: _sigmap_csv(paths["T24"], 3, 1e308),
     "q1,q2,sigma,eta,source,certified\n1/3,1/3,0,1,Interior,true\n1/3,2/3,0,1,Interior,true\n"
     "2/3,1/3,0,1,Interior,true\n2/3,2/3,0,1,Interior,true\n"),
    (["--tau", "1e308", "sigmap", "LINK", "--grid", "3", "--faces", "--slope", "SLOPE"],
     lambda paths: _sigmap_csv(paths["LINK"], 3, 1e308, paths["SLOPE"]), _l1_at_huge_tau()),
    (["--tau", "1e308", "report", "LINK", "--slope", "SLOPE", "--prime", "3", "--depth", "1"],
     lambda paths: _report_text(paths["LINK"], paths["SLOPE"], 1e308), "INCONCLUSIVE\nsamples=27 uncertain=0\n"),
    (["--tau", "0.5", "sigmap", "T24BIG", "--grid", "3"], lambda paths: _sigmap_csv(paths["T24BIG"], 3, 0.5),
     "q1,q2,sigma,eta,source,certified\n1/3,1/3,0,1,Interior,false\n1/3,2/3,-1,0,Interior,false\n"
     "2/3,1/3,-1,0,Interior,false\n2/3,2/3,0,1,Interior,false\n"),
], ids=["sigmap", "sigmap-faces", "report", "sigmap-huge-entries"])
def test_overflowing_cut_prints_no_warning(exported, capsys, argv, api, expected):
    # The command line refuses a tau above MAX_TAU, which certifies wrong
    # signatures (t24 at grid 3 is -1,0 at every point).  The API takes it:
    # there tau * scale, and the uncertain band around it, overflow to inf
    # without a warning, and every eigenvalue counts as zero.
    assert main(["catalog", "show", "t24", "--export", str(exported["dir"])]) == 0
    data = json.loads((exported["dir"] / "t24.link.json").read_text())
    data["seifert"] = {key: [[10**307 * x for x in row] for row in m] for key, m in data["seifert"].items()}
    (exported["dir"] / "t24big.link.json").write_text(json.dumps(data))
    paths = {"LINK": exported["link"], "SLOPE": exported["slope"], "T24": str(exported["dir"] / "t24.link.json"),
             "T24BIG": str(exported["dir"] / "t24big.link.json")}
    capsys.readouterr()
    assert main([paths.get(a, a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --tau ") and err.count("\n") == 1
    assert api(paths) == expected


def test_tau_at_the_maximum_is_accepted(exported, capsys):
    argv = ["--tau", str(MAX_TAU), "sigmap", exported["link"], "--grid", "3"]
    assert main(argv) in (0, 3)
    assert capsys.readouterr().err == ""
    assert main(["--tau", str(MAX_TAU * (1 + 1e-15))] + argv[2:]) == 2
