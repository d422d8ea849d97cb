"""No command imports a numpy submodule at run time.

A CLI run starts a fresh interpreter, so a numpy submodule that a command
imports lazily (numpy.ma through np.unique under numpy 2, for instance) is
paid on every run.  Each command below runs in a fresh interpreter, and the
numpy modules present after the run are compared with those present after
``import linksig.cli``.  numpy 1.24 imports more submodules eagerly, so the
comparison is of sys.modules, not of any module by name.
"""

import contextlib
import io
import os
import subprocess
import sys

import pytest

import linksig.cli

_PROBE = """
import contextlib, io, sys
import linksig.cli

def loaded():
    return {name for name in sys.modules if name == "numpy" or name.startswith("numpy.")}

before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = linksig.cli.main(sys.argv[1:])
print(code, *sorted(loaded() - before))
"""

COMMANDS = {
    "sigmap faces slope": ["sigmap", "{dir}/l_1.link.json", "--grid", "5", "--faces", "--slope", "{dir}/l_1.slope.json"],
    "sigmap json": ["sigmap", "{dir}/l_1.link.json", "--grid", "5", "--format", "json"],
    "sigmap ppm": ["sigmap", "{dir}/t24.link.json", "--grid", "5", "--format", "ppm"],
    "report slope": ["report", "{dir}/l_1.link.json", "--slope", "{dir}/l_1.slope.json", "--prime", "3", "--depth", "2"],
    "slope": ["slope", "{dir}/l_1.slope.json", "--omega", "1/4,1/4"],
    "ideals classify": ["ideals", "{dir}/aug4.presentation.json", "--classify", "--grid", "4"],
    "ideals omega": ["ideals", "{dir}/aug4.presentation.json", "--omega", "1/4,1/3,1/2,2/3"],
    "hosokawa": ["hosokawa", "{dir}/hopf1.link.json"],
}


@pytest.fixture(scope="module")
def export_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("catalog")
    with contextlib.redirect_stdout(io.StringIO()):
        for key in ("l(1)", "t24", "aug4", "hopf1"):
            assert linksig.cli.main(["catalog", "show", key, "--export", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_imports_no_numpy_module_after_the_cli(name, export_dir):
    argv = [arg.format(dir=export_dir) for arg in COMMANDS[name]]
    src = os.path.dirname(os.path.dirname(linksig.cli.__file__))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.stderr == ""
    assert proc.stdout == "0\n"  # exit code 0, and no numpy module imported by the run
