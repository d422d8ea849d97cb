"""Built-in example links with their expected invariants.

Each entry bundles the data needed to drive the acceptance suite.  Expected
values are tagged "tabulated" when they are published values and "derived"
when they were computed here by an independent oracle (the deriving oracles
run in the test suite before the entries are trusted).  Entries shipping no
Seifert matrices are polynomial-only on purpose: no matrix data is invented.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .clink import ColoredLinkData, SlopeData
from .errors import BasePoint, InvalidInput, UnknownKey
from .invariants import half_step_factor
from .laurent import LaurentPoly, parse_poly
from .strata import PresentationMatrix
from .torus import TorusPoint

KIND_FULL = "full"
KIND_POLYNOMIAL = "polynomial"
KIND_PRESENTATION = "presentation"


@dataclass(frozen=True)
class Expected:
    value: object
    source: str  # "tabulated" | "derived"
    note: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    kind: str
    link: ColoredLinkData | None = None
    slope: SlopeData | None = None
    presentation: PresentationMatrix | None = None
    expected: Mapping[str, Expected] = None  # type: ignore[assignment]


# -- exact closed-form signatures (used as oracles by the tests) ---------------


def t24_sigma(point: TorusPoint) -> int:
    """-sgn Re[(w1-1)(w2-1)] on the pointed torus, decided exactly.

    Re((1-w1)(1-w2)) = -4 sin(pi q1) sin(pi q2) cos(pi (q1+q2)).
    """
    if point.mu != 2:
        raise InvalidInput("two colors expected")
    q1, q2 = point.turns
    if q1 == 0 and q2 == 0:
        raise BasePoint("the closed form excludes (1, 1)")
    if q1 == 0 or q2 == 0:
        return 0
    x = q1 + q2
    if x in (Fraction(1, 2), Fraction(3, 2)):
        return 0
    return 1 if (x < Fraction(1, 2) or x > Fraction(3, 2)) else -1


def ln_face_sigma(point: TorusPoint) -> int:
    """sgn Re[(1-w1)(1-conj(w2))] for interior (w1, w2), decided exactly.

    Re((1-w1)(1-conj w2)) = 4 sin(pi q1) sin(pi q2) cos(pi (q1-q2)).
    """
    if point.mu != 2 or not point.is_interior():
        raise InvalidInput("interior two-coordinate point expected")
    d = abs(point.turns[0] - point.turns[1])
    if d == Fraction(1, 2):
        return 0
    return 1 if d < Fraction(1, 2) else -1


def ln_slope_value(n: int, point: TorusPoint) -> float:
    """2n Re((1-w1)(1-conj(w2))), evaluated from the coordinates."""
    w1, w2 = point.coordinates()
    return 2.0 * n * ((1 - w1) * (1 - w2.conjugate())).real


# -- entry construction ---------------------------------------------------------


def _hopf1() -> CatalogEntry:
    link = ColoredLinkData(
        name="hopf1",
        mu=1,
        components=(("K1", 1), ("K2", 1)),
        linking={("K1", "K2"): 1},
        g=1,
        seifert={(1,): ((-1,),)},  # derived: reproduces sigma = -1 and det(A - tA^T) = t - 1
        alexander=parse_poly("t - 1", mu=1),
    )
    return CatalogEntry(
        key="hopf1",
        kind=KIND_FULL,
        link=link,
        expected={
            "alexander": Expected(parse_poly("t - 1", mu=1), "tabulated"),
            "hosokawa": Expected(LaurentPoly.const(1, 1), "tabulated"),
            "sigma_constant": Expected(-1, "tabulated", "on the whole circle"),
            "sigma_at_one": Expected(-1, "derived", "signature of [[-1,1],[1,-1]]"),
            "seifert_matrix": Expected(((-1,),), "derived", "oracle: closed form and Alexander check"),
        },
    )


def _hopf2() -> CatalogEntry:
    link = ColoredLinkData(
        name="hopf2",
        mu=2,
        components=(("K1", 1), ("K2", 2)),
        linking={("K1", "K2"): 1},
        g=0,
        seifert={(1, 1): (), (1, -1): ()},
        alexander=LaurentPoly.const(1, 2),
    )
    return CatalogEntry(
        key="hopf2",
        kind=KIND_FULL,
        link=link,
        expected={
            "alexander": Expected(LaurentPoly.const(1, 2), "tabulated"),
            "hosokawa": Expected(LaurentPoly.const(1, 2), "tabulated"),
            "sigma_constant": Expected(0, "tabulated", "on the pointed torus"),
        },
    )


def _t24() -> CatalogEntry:
    link = ColoredLinkData(
        name="t24",
        mu=2,
        components=(("K1", 1), ("K2", 2)),
        linking={("K1", "K2"): 2},
        g=1,
        seifert={(1, 1): ((-1,),), (1, -1): ((0,),)},  # derived: reproduces the closed-form sigma
        alexander=parse_poly("t1*t2 + 1", mu=2),
    )
    return CatalogEntry(
        key="t24",
        kind=KIND_FULL,
        link=link,
        expected={
            "alexander": Expected(parse_poly("t1*t2 + 1", mu=2), "tabulated"),
            "hosokawa": Expected(
                parse_poly("t1 - 1", mu=2) * parse_poly("t2 - 1", mu=2) * parse_poly("t1*t2 + 1", mu=2),
                "tabulated",
            ),
            "sigma_closed_form": Expected("-sgn Re[(w1-1)(w2-1)]", "tabulated", "see t24_sigma"),
        },
    )


def _whitehead() -> CatalogEntry:
    link = ColoredLinkData(
        name="whitehead",
        mu=2,
        components=(("K1", 1), ("K2", 2)),
        linking={},
        alexander=parse_poly("t1 - 1", mu=2) * parse_poly("t2 - 1", mu=2),
    )
    return CatalogEntry(
        key="whitehead",
        kind=KIND_POLYNOMIAL,
        link=link,
        expected={
            "hosokawa": Expected(LaurentPoly.const(1, 2), "tabulated"),
            "sigma_constant": Expected(1, "tabulated", "prose expectation; no Seifert data shipped"),
        },
    )


def _borromean() -> CatalogEntry:
    delta = (
        parse_poly("t1 - 1", mu=3)
        * parse_poly("t2 - 1", mu=3)
        * parse_poly("t3 - 1", mu=3)
    )
    link = ColoredLinkData(
        name="borromean",
        mu=3,
        components=(("K1", 1), ("K2", 2), ("K3", 3)),
        linking={},
        alexander=delta,
    )
    return CatalogEntry(
        key="borromean",
        kind=KIND_POLYNOMIAL,
        link=link,
        expected={
            "hosokawa": Expected(LaurentPoly.const(1, 3), "tabulated"),
            "sigma_constant": Expected(0, "tabulated", "amphicheiral"),
        },
    )


def _ln(n: int) -> CatalogEntry:
    if n < 1:
        raise UnknownKey(f"l({n}) needs n >= 1")
    a = ((0, n), (n, 0))
    link = ColoredLinkData(
        name=f"l({n})",
        mu=3,
        components=(("K1", 1), ("K2", 2), ("K3", 3)),
        linking={},
        g=2,
        seifert={eps: a for eps in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1))},
        conway=LaurentPoly.const(-n * n, 3, half_step=True)
        * half_step_factor(1, 3) ** 3
        * half_step_factor(2, 3)
        * half_step_factor(3, 3),
    )
    base = ColoredLinkData(
        name=f"l({n})-sublink",
        mu=2,
        components=(("K2", 1), ("K3", 2)),
        linking={},
        g=4,
        seifert={
            (1, 1): ((0, 0, n, 0), (1, 0, 0, 0), (n, 0, 0, 0), (0, 0, 1, 0)),
            (1, -1): ((0, 0, n, 0), (1, 0, 0, 0), (n, 0, 0, 1), (0, 0, 0, 0)),
        },
    )
    slope = SlopeData(base=base, k_class=(0, 1, 0, 1), distinguished_color=1)
    return CatalogEntry(
        key=f"l({n})",
        kind=KIND_FULL,
        link=link,
        slope=slope,
        expected={
            "sigma_interior": Expected(0, "tabulated", "vanishes on the open torus"),
            "hosokawa_normalized": Expected(
                LaurentPoly.const(-n * n, 3, half_step=True) * half_step_factor(1, 3) ** 2,
                "derived",
                "substitute the Conway potential into the normalized formula",
            ),
            "slope_closed_form": Expected("2n Re((1-w1)(1-conj w2))", "tabulated", "see ln_slope_value"),
            "face_sigma_closed_form": Expected("sgn Re((1-w1)(1-conj w2))", "tabulated", "see ln_face_sigma"),
        },
    )


def _aug4() -> CatalogEntry:
    mu = 4
    rows = []
    for i in range(1, 5):
        for j in range(i + 1, 5):
            row = [LaurentPoly.zero(mu) for _ in range(4)]
            row[j - 1] = parse_poly(f"t{i} - 1", mu=mu)
            row[i - 1] = -parse_poly(f"t{j} - 1", mu=mu)
            rows.append(row)
    pres = PresentationMatrix(mu, rows)
    return CatalogEntry(
        key="aug4",
        kind=KIND_PRESENTATION,
        presentation=pres,
        expected={
            "stratum_index": Expected(1, "tabulated", "on the whole pointed torus"),
            "koszul_rank": Expected(3, "derived", "kernel of the relation family is the line through (t_i - 1)"),
        },
    )


_FIXED = ("hopf1", "hopf2", "t24", "whitehead", "borromean", "l(1)", "l(2)", "l(3)", "aug4")
_LN_RE = re.compile(r"l\((\d+)\)")


def list_keys() -> tuple[str, ...]:
    return _FIXED


def get(key: str) -> CatalogEntry:
    if key == "hopf1":
        return _hopf1()
    if key == "hopf2":
        return _hopf2()
    if key == "t24":
        return _t24()
    if key == "whitehead":
        return _whitehead()
    if key == "borromean":
        return _borromean()
    if key == "aug4":
        return _aug4()
    m = _LN_RE.fullmatch(key.strip())
    if m:
        return _ln(int(m.group(1)))
    raise UnknownKey(f"no catalog entry {key!r}; known: {', '.join(_FIXED)}")
