"""Golden output of the commands that print exact Laurent arithmetic.

``catalog show``, ``hosokawa`` and ``ideals`` print polynomials, stratum
indices and predicted nullities; none of their bytes depend on the LAPACK
build.  Each case pins the exit code, the SHA-256 digest of stdout and the
literal stderr, so a change in a polynomial's terms, their order, or the
order evaluation sums them in shows here.
"""

import contextlib
import hashlib
import io
import os

import pytest

from linksig import catalog
from linksig.cli import main

KEYS = [*catalog.list_keys(), "l(4)"]

# (--delta, --conway) by arity: multiples of the factors that hosokawa and
# hosokawa_normalized divide out for every catalog link of that arity, so the
# exact division succeeds
OVERRIDES = {
    1: ("t^3 - 3*t^2 + 3*t - 1", "t^3 - 2*t + t^-3"),
    2: ("t1^2 - t1^2*t2^-1 + t1*t2^3 - t1*t2^2 - 3*t1*t2 + 2*t1 + t1*t2^-1 - t2^3 + t2^2 + 3*t2 - 3",
        "t1^3*t2 - t1^3*t2^-1 - 4*t1*t2 + 5*t1*t2^-1 - t1*t2^-3 + 3*t1^-1*t2 - 4*t1^-1*t2^-1 + t1^-1*t2^-3"),
    3: ("3 - 3*t3 + 3*t2*t3 - 3*t2 + t1*t2^-1*t3 - t1*t2^-1 + 2*t1*t3 - 2*t1 - 3*t1*t2*t3 + 3*t1*t2"
        " + t1^2*t3 - t1^2 - t1^2*t2^-1*t3 + t1^2*t2^-1",
        "t1^3*t2*t3 - t1^3*t2*t3^-1 - t1^3*t2^-1*t3 + t1^3*t2^-1*t3^-1 - 4*t1*t2*t3 + 5*t1*t2*t3^-1"
        " - t1*t2*t3^-3 + 4*t1*t2^-1*t3 - 5*t1*t2^-1*t3^-1 + t1*t2^-1*t3^-3 + 3*t1^-1*t2*t3"
        " - 4*t1^-1*t2*t3^-1 + t1^-1*t2*t3^-3 - 3*t1^-1*t2^-1*t3 + 4*t1^-1*t2^-1*t3^-1 - t1^-1*t2^-1*t3^-3"),
}

# case -> (exit code, SHA-256 of stdout, stderr)
GOLDEN = {
    'show hopf1': (0, '0301a0d55f5bb5325cc26aed8d89125875dc2786cfc9859295bea6c4914c38e2', ''),
    'show hopf2': (0, 'b4e6552005df4e180523576ca962393b156c20fd4aa8b0d76f5ece0335c64461', ''),
    'show t24': (0, '497d8daedf4ca616194e9d2e2feefec8eebc1a8f902962e34fb43e44319f350f', ''),
    'show whitehead': (0, '476c8c41022715089d9b314887f84864c8194965c3345c4d12154b59869c35ca', ''),
    'show borromean': (0, '288400935efe1f890e77ef7c1f12643a1def5b3552cdb25aa3bddfc824b926f1', ''),
    'show l(1)': (0, 'a166e279accef6932d8c7615fb3c188e06a35c6d2cbec4a62ed2a6b929251104', ''),
    'show l(2)': (0, '6b384d0a5c0845988c0a5ff7afafd08f103fcc64e83a3c3520f48608ff52878b', ''),
    'show l(3)': (0, 'c6680479b6b8ff6e4fa9fa59024b0bc004642f3abbadf725a71ce465ab1d448e', ''),
    'show aug4': (0, '72ab202c944da6746aa6f08a950b5508a39a108ba6c4417c1a49624d9d2db3bd', ''),
    'show l(4)': (0, '5008d3fedd1f3988c26fda96782b1ed5323fed84957f2d2a28a47d154c9b3d6e', ''),
    'plain hopf1': (0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865', ''),
    'normalized hopf1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: no Conway potential available; pass --conway\n'),
    'delta hopf1': (0, '4f6d214a9a3056e09725552834a78ff483e2c41c8153a14662d711f79eb1e49f', 'note: --delta overrides the polynomial embedded in the file\n'),
    'conway hopf1': (0, 'b63b84e0443ef8c95464bd0d2260cfc8ff7a1531a7b5e48da3de855860383baa', ''),
    'plain hopf2': (0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865', ''),
    'normalized hopf2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: no Conway potential available; pass --conway\n'),
    'delta hopf2': (0, '1a0258bd277bb9c321d1266bee660b8827d56d21f8ec21719fd0efeabe5d450f', 'note: --delta overrides the polynomial embedded in the file\n'),
    'conway hopf2': (0, '97d5f87a96f6c2d65a1e75e8e63f88a3e1c83e643dcc6536db8fd2cb2d9a0b59', ''),
    'plain t24': (0, '158bacd285e0a16f2bbe11005c2707fbab79a634289df9cbbbca28585d4100cb', ''),
    'normalized t24': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: no Conway potential available; pass --conway\n'),
    'delta t24': (0, 'cc0a97e792cd45807b1de655b74c49f07b35b71c6884e4ffa8071c13ca1f6376', 'note: --delta overrides the polynomial embedded in the file\n'),
    'conway t24': (0, 'cd5aac4e60f33658c7a76acdb2451e88eb093fa9b932deb9d1a488d74df598f6', ''),
    'plain whitehead': (0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865', ''),
    'normalized whitehead': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: no Conway potential available; pass --conway\n'),
    'delta whitehead': (0, '5241d93439e4b1f7b842d9d95214c71100f981f7d06bdd8c881860202ca3515d', 'note: --delta overrides the polynomial embedded in the file\n'),
    'conway whitehead': (0, 'ab91617b9806cd95bcff5e3b9da862015585066d7a070738236d633d6529c34e', ''),
    'plain borromean': (0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865', ''),
    'normalized borromean': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: no Conway potential available; pass --conway\n'),
    'delta borromean': (0, 'e8a52c9f5f5a1d48afe4b03ff3a83316df8b9b0eeda2b271648ac5e031fffafc', 'note: --delta overrides the polynomial embedded in the file\n'),
    'conway borromean': (0, 'c440569acc97b97277d16bdd8bf6e08a867b3db048f1e71341c60ac8b6b3834c', ''),
    'plain l(1)': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: no Alexander polynomial available; pass --delta\n'),
    'normalized l(1)': (0, '6b7e1f846823eb6d15ffd44219fd2693cec02b34ec24bed0447d9c8b8b2b248b', ''),
    'delta l(1)': (0, 'e8a52c9f5f5a1d48afe4b03ff3a83316df8b9b0eeda2b271648ac5e031fffafc', ''),
    'conway l(1)': (0, 'c440569acc97b97277d16bdd8bf6e08a867b3db048f1e71341c60ac8b6b3834c', 'note: --conway overrides the polynomial embedded in the file\n'),
    'plain l(2)': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: no Alexander polynomial available; pass --delta\n'),
    'normalized l(2)': (0, 'e5edcf01193cc3e59b9b91b3ad148636494efad4296fd54c69f692b3ed046f1f', ''),
    'delta l(2)': (0, 'e8a52c9f5f5a1d48afe4b03ff3a83316df8b9b0eeda2b271648ac5e031fffafc', ''),
    'conway l(2)': (0, 'c440569acc97b97277d16bdd8bf6e08a867b3db048f1e71341c60ac8b6b3834c', 'note: --conway overrides the polynomial embedded in the file\n'),
    'plain l(3)': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: no Alexander polynomial available; pass --delta\n'),
    'normalized l(3)': (0, 'c8436cc2ca9d5c196a5cc015d30d27f20e435fb3d236932cce9960171e72bc3b', ''),
    'delta l(3)': (0, 'e8a52c9f5f5a1d48afe4b03ff3a83316df8b9b0eeda2b271648ac5e031fffafc', ''),
    'conway l(3)': (0, 'c440569acc97b97277d16bdd8bf6e08a867b3db048f1e71341c60ac8b6b3834c', 'note: --conway overrides the polynomial embedded in the file\n'),
    'plain l(4)': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: no Alexander polynomial available; pass --delta\n'),
    'normalized l(4)': (0, 'ebd92faad3930307abfe89ce296f445d80a4c864781d040161a6508d07e100df', ''),
    'delta l(4)': (0, 'e8a52c9f5f5a1d48afe4b03ff3a83316df8b9b0eeda2b271648ac5e031fffafc', ''),
    'conway l(4)': (0, 'c440569acc97b97277d16bdd8bf6e08a867b3db048f1e71341c60ac8b6b3834c', 'note: --conway overrides the polynomial embedded in the file\n'),
    'classify 3': (0, '50a9530e879b140f29ef9d2444c121790c1b7bd3ae4c4116bc2cf5a33f7cc5ff', ''),
    'classify 5': (0, 'f121f57d7daff29c4fbb24dbb0ba8aa5d1f49ea50743876c147276b53946f0e9', ''),
    'classify 8': (0, '175e975befbe2c74ed89fd36751cb3967406886c01ce6af217846fe456e05bcc', ''),
    'classify 11': (0, '673f05a7cf8ccab19d02b603bd20b76360af9e46d383535b885a6214ce079bec', ''),
    'omega 1/3,1/4,0,1/2': (0, '1259b823dab071eb2e9ac0780e6ef3d5793e4dabbc42f113122eeddc128b0fd7', ''),
}


@pytest.fixture(scope="module")
def export_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("catalog")
    with contextlib.redirect_stdout(io.StringIO()):
        for key in KEYS:
            assert main(["catalog", "show", key, "--export", str(out)]) == 0
    return str(out)


def _argv(case: str, export_dir: str) -> list[str]:
    kind, arg = case.split(" ")
    if kind == "show":
        return ["catalog", "show", arg]
    pres = os.path.join(export_dir, "aug4.presentation.json")
    if kind == "classify":
        return ["ideals", pres, "--classify", "--grid", arg]
    if kind == "omega":
        return ["ideals", pres, "--omega", arg]
    link = os.path.join(export_dir, arg.replace("(", "_").replace(")", "") + ".link.json")
    delta, conway = OVERRIDES[catalog.get(arg).link.mu]
    return {
        "plain": ["hosokawa", link],
        "normalized": ["hosokawa", link, "--normalized"],
        "delta": ["hosokawa", link, "--delta", delta],
        "conway": ["hosokawa", link, "--normalized", "--conway", conway],
    }[kind]


def _cases() -> list[str]:
    links = [key for key in KEYS if catalog.get(key).link is not None]
    return ([f"show {key}" for key in KEYS]
            + [f"{kind} {key}" for key in links for kind in ("plain", "normalized", "delta", "conway")]
            + [f"classify {n}" for n in (3, 5, 8, 11)]
            + ["omega 1/3,1/4,0,1/2"])


@pytest.mark.parametrize("case", _cases())
def test_exact_command_output_is_golden(case, export_dir, capsys):
    code = main(_argv(case, export_dir))
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest(), err) == GOLDEN[case]
