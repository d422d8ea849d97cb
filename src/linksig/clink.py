"""Colored links presented by C-complex data.

A mu-colored link is recorded through its colors, pairwise component linking
numbers, and the family of generalized Seifert matrices A^eps indexed by sign
vectors eps in {+1,-1}^mu, subject to the completion rule A^{-eps} =
(A^eps)^T.  From these the package assembles the Hermitian form at a torus
point and, for a link with a distinguished component, the slope system.
Both are assembled by one arithmetic, over a stack of points
(hermitian_forms, slope_matrices), from the coefficient rows of a group of
points over one denominator (numerator_coefficients); a single point is a
stack of one.  tests/per_point.py builds its reference records from the
same kernels.

Records without Seifert data (polynomial-only inputs) are legal; they feed
the Hosokawa computations but cannot be sampled.
"""

from __future__ import annotations

import json
import operator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import product
from typing import Mapping

import numpy as np

from .errors import InvalidInput, MissingSeifertData, Mu1NotApplicable, Mu1Only
from .laurent import LaurentPoly, format_poly, parse_poly
from .torus import unit_roots

SignVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


def sign_vectors(mu: int):
    """All sign vectors in {+1,-1}^mu, lexicographic with +1 first."""
    return product((1, -1), repeat=mu)


def sign_key(eps: SignVector) -> str:
    return "".join("+" if e > 0 else "-" for e in eps)


def parse_sign_key(key: str, mu: int) -> SignVector:
    if len(key) != mu or any(ch not in "+-" for ch in key):
        raise InvalidInput(f"seifert key {key!r} is not a length-{mu} sign string")
    return tuple(1 if ch == "+" else -1 for ch in key)


def strict_int(value, what: str) -> int:
    """value as an int: integers only (operator.index), bools refused, so a
    float or a string is an error rather than a truncated value."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInput(f"{what} must be an integer, not {type(value).__name__}")


def _float_sized_int(value, what: str) -> int:
    # an integer that also fits a float, as the numeric code needs
    x = strict_int(value, what)
    try:
        float(x)
    except OverflowError:
        raise InvalidInput(f"{what} of {x.bit_length()} bits does not fit a float") from None
    return x


@contextmanager
def malformed_record(kind: str):
    """Turn the errors a malformed JSON record raises while it is read into InvalidInput."""
    try:
        yield
    except KeyError as exc:
        raise InvalidInput(f"{kind} record missing field: {exc}") from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise InvalidInput(f"malformed {kind} record: {exc}") from exc


def _as_int_matrix(rows, g: int, context: str) -> IntMatrix:
    if len(rows) != g:
        raise InvalidInput(f"{context}: expected {g} rows, got {len(rows)}")
    out = []
    for row in rows:
        if len(row) != g:
            raise InvalidInput(f"{context}: expected {g} columns, got {len(row)}")
        out.append(tuple(_float_sized_int(x, f"{context} entry") for x in row))
    return tuple(out)


def _transpose(m: IntMatrix) -> IntMatrix:
    return tuple(tuple(m[j][i] for j in range(len(m))) for i in range(len(m)))


@dataclass(frozen=True)
class ColoredLinkData:
    """Validated, immutable link record."""

    name: str
    mu: int
    components: tuple[tuple[str, int], ...]
    linking: Mapping[tuple[str, str], int]
    g: int | None = None
    seifert: Mapping[SignVector, IntMatrix] | None = None
    alexander: LaurentPoly | None = None
    conway: LaurentPoly | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", strict_int(self.mu, "mu"))
        if self.mu < 1:
            raise InvalidInput("mu must be >= 1")
        comps = tuple((str(cid), strict_int(color, f"color of {cid}")) for cid, color in self.components)
        ids = [cid for cid, _ in comps]
        if len(set(ids)) != len(ids):
            raise InvalidInput("duplicate component ids")
        colors_used = {color for _, color in comps}
        if any(not 1 <= c <= self.mu for c in colors_used):
            raise InvalidInput(f"component colors must lie in 1..{self.mu}")
        unused = self.mu - len(colors_used)  # colors lie in 1..mu
        if unused:
            first = [c for c in range(1, min(self.mu, len(colors_used) + 5) + 1) if c not in colors_used][:5]
            more = f" and {unused - len(first)} more" if unused > len(first) else ""
            raise InvalidInput(f"colors not used by any component: {first}{more}")
        object.__setattr__(self, "components", comps)

        known = set(ids)
        linking: dict[tuple[str, str], int] = {}
        for key, value in dict(self.linking).items():
            if isinstance(key, str):
                parts = key.split(",")
                if len(parts) != 2:
                    raise InvalidInput(f"linking key {key!r} is not 'id1,id2'")
                a, b = parts[0].strip(), parts[1].strip()
            else:
                a, b = str(key[0]), str(key[1])
            if a not in known or b not in known:
                raise InvalidInput(f"linking key ({a},{b}) references unknown component")
            if a == b:
                raise InvalidInput(f"linking diagonal must be absent/zero, got key ({a},{b})")
            pair = (a, b) if a < b else (b, a)
            value = strict_int(value, f"linking value of {pair}")
            if pair in linking and linking[pair] != value:
                raise InvalidInput(f"conflicting linking values for {pair}")
            if value != 0:
                linking[pair] = value
        object.__setattr__(self, "linking", linking)

        if (self.seifert is None) != (self.g is None):
            raise InvalidInput("g and seifert must be supplied together")
        if self.seifert is not None:
            g = strict_int(self.g, "g")
            if g < 0:
                raise InvalidInput("g must be >= 0")
            matrices: dict[SignVector, IntMatrix] = {}
            for eps, rows in dict(self.seifert).items():
                if isinstance(eps, str):
                    eps = parse_sign_key(eps, self.mu)
                eps = tuple(int(e) for e in eps)
                if len(eps) != self.mu or any(e not in (1, -1) for e in eps):
                    raise InvalidInput(f"bad sign vector {eps}")
                matrices[eps] = _as_int_matrix(rows, g, f"seifert[{sign_key(eps)}]")
            if not matrices:
                raise InvalidInput("seifert mapping is empty")
            for eps in sign_vectors(self.mu):
                neg = tuple(-e for e in eps)
                if eps not in matrices and neg not in matrices:
                    raise InvalidInput(f"no matrix stored for the pair {sign_key(eps)}/{sign_key(neg)}")
                if eps in matrices and neg in matrices and matrices[neg] != _transpose(matrices[eps]):
                    raise InvalidInput(f"seifert[{sign_key(neg)}] is not the transpose of seifert[{sign_key(eps)}]")
            object.__setattr__(self, "g", g)
            object.__setattr__(self, "seifert", matrices)
        if self.alexander is not None and (self.alexander.mu != self.mu or self.alexander.half_step):
            raise InvalidInput("alexander polynomial has wrong arity or flag")
        if self.conway is not None and (self.conway.mu != self.mu or not self.conway.half_step):
            raise InvalidInput("conway polynomial must be half-step with matching arity")

    # -- component/linking helpers -----------------------------------------

    def component_ids(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in self.components)

    def lk(self, a: str, b: str) -> int:
        if a == b:
            return 0
        pair = (a, b) if a < b else (b, a)
        return self.linking.get(pair, 0)

    def components_of_color(self, color: int) -> tuple[str, ...]:
        return tuple(cid for cid, c in self.components if c == color)

    def has_seifert(self) -> bool:
        return self.seifert is not None

    def seifert_matrix(self, eps: SignVector) -> IntMatrix:
        """A^eps, using the completion rule when only -eps is stored."""
        if self.seifert is None:
            raise MissingSeifertData(f"link {self.name!r} has no Seifert data")
        eps = tuple(int(e) for e in eps)
        if eps in self.seifert:
            return self.seifert[eps]
        return _transpose(self.seifert[tuple(-e for e in eps)])


def _seifert_arrays(link: ColoredLinkData) -> tuple[np.ndarray, np.ndarray]:
    """The completed matrices stacked as (2^mu, g, g) floats in sign_vectors
    order, with their max-abs entries; cached per link."""
    cache = link.__dict__.get("_np_seifert")
    if cache is None:
        g = link.g
        stack = np.array([link.seifert_matrix(eps) for eps in sign_vectors(link.mu)],
                         dtype=np.float64).reshape(2**link.mu, g, g)
        cache = (stack, np.abs(stack).max(axis=(1, 2), initial=0.0))
        object.__setattr__(link, "_np_seifert", cache)
    return cache


def numerator_coefficients(d: int, nums: np.ndarray) -> np.ndarray:
    """The (P, 2^mu) array of prod_i (1 - conj(omega_i)^{eps_i}) for the
    points with turns nums[p, i] / d, from a (P, mu) integer array.

    The factors are read from one table of unit_root(k, d) (unit_roots), so
    conjugate factor pairs are exact floating conjugates.
    """
    count, mu = nums.shape
    ks = np.concatenate([-nums, nums]) % d
    factors = (1.0 - unit_roots(ks, d)).reshape(2, count, mu)  # eps_i = +1, -1
    c = factors[:, :, 0].T
    for i in range(1, mu):
        c = (c[:, :, None] * factors[:, :, i].T[:, None, :]).reshape(count, 2 ** (i + 1))
    return c


def hermitian_forms(link: ColoredLinkData, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (P, g, g) Hermitian forms sum_eps coef[:, eps] A^eps and their
    scales, for rows of numerator_coefficients, whose entry at -eps is the
    exact conjugate of that at eps: as A^-eps = (A^eps)^T, the form is
    M + M^H, M the sum over eps_1 = +1 (the first half of sign_vectors), and
    Hermitian bit for bit.

    The scale sum_eps |coef(eps)| * max|A^eps| bounds every entry; inertia
    thresholds relative to it keep exact cancellations classified as zeros.
    Each scale is summed over eps in order, one column at a time, so a
    point's scale does not depend on the stack it is in.  Entries that
    overflow come back infinite, and inertia rejects them."""
    if link.seifert is None:
        raise MissingSeifertData(f"link {link.name!r} has no Seifert data")
    stack, amax = _seifert_arrays(link)
    scale = np.zeros(len(coef))
    with np.errstate(over="ignore", invalid="ignore"):
        for column, a in zip(np.abs(coef).T, amax.tolist()):
            scale += column * a
        m = np.einsum("pe,ejk->pjk", coef[:, :len(stack) // 2], stack[:len(stack) // 2])
        return m + m.conj().swapaxes(1, 2), scale


@dataclass(frozen=True)
class SlopeData:
    """C-complex data for the sublink L' together with the class of the
    distinguished component in the dual homology basis."""

    base: ColoredLinkData
    k_class: tuple[int, ...]
    distinguished_color: int

    def __post_init__(self) -> None:
        if not self.base.has_seifert():
            raise InvalidInput("slope base link needs Seifert data")
        k = tuple(_float_sized_int(x, "k_class entry") for x in self.k_class)
        if len(k) != self.base.g:
            raise InvalidInput(f"k_class length {len(k)} != base rank {self.base.g}")
        object.__setattr__(self, "k_class", k)
        object.__setattr__(self, "distinguished_color", strict_int(self.distinguished_color, "distinguished_color"))
        if self.distinguished_color < 1:
            raise InvalidInput("distinguished_color must be >= 1")


def slope_matrices(slope_data: SlopeData, coef: np.ndarray) -> np.ndarray:
    """The (P, g, g) stack of E(omega) = sum_eps prod_i (1 - omega_i^{eps_i})^{-1}
    A^eps over the base, from the base's coefficient rows: the entry of coef
    at -eps is prod_i (1 - omega_i^{eps_i}), so the coefficients of E are
    1 / coef[:, ::-1].  No point may have a coordinate 1 (a zero
    coefficient).  Entries that overflow come back non-finite.
    """
    stack, _ = _seifert_arrays(slope_data.base)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.einsum("pe,ejk->pjk", 1.0 / coef[:, ::-1], stack)


def mirror(link: ColoredLinkData) -> ColoredLinkData:
    """The mirror image at matrix level: A^eps -> -A^{-eps}, linking negated.

    Any input polynomials are dropped rather than transformed.
    """
    if link.seifert is None:
        raise MissingSeifertData(f"link {link.name!r} has no Seifert data")
    new_seifert = {
        eps: tuple(tuple(-x for x in row) for row in link.seifert_matrix(tuple(-e for e in eps)))
        for eps in link.seifert
    }
    new_linking = {pair: -v for pair, v in link.linking.items()}
    return replace(
        link,
        name=link.name + "-mirror",
        linking=new_linking,
        seifert=new_seifert,
        alexander=None,
        conway=None,
    )


def nu_exponents(link: ColoredLinkData) -> tuple[int, ...]:
    """Per-color exponents: total |lk| with the other colors minus the
    component count of the color."""
    if link.mu == 1:
        raise Mu1NotApplicable("nu exponents are defined for mu > 1")
    out = []
    for color in range(1, link.mu + 1):
        mine = link.components_of_color(color)
        others = [cid for cid, c in link.components if c != color]
        total = sum(abs(link.lk(a, b)) for a in mine for b in others)
        out.append(total - len(mine))
    return tuple(out)


def seifert_framed_linking_matrix(link: ColoredLinkData) -> list[list[int]]:
    """For mu = 1: off-diagonal lk(K_i, K_j), diagonal forced by zero row sums
    (the Seifert framing of each longitude)."""
    if link.mu != 1:
        raise Mu1Only("the framed linking matrix is a one-color construction")
    ids = link.component_ids()
    n = len(ids)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                m[i][j] = link.lk(ids[i], ids[j])
        m[i][i] = -sum(m[i][j] for j in range(n) if j != i)
    return m


# -- file schemas --------------------------------------------------------------


def link_to_dict(link: ColoredLinkData) -> dict:
    out: dict = {
        "name": link.name,
        "mu": link.mu,
        "components": [{"id": cid, "color": color} for cid, color in link.components],
        "linking": {f"{a},{b}": v for (a, b), v in sorted(link.linking.items())},
    }
    if link.seifert is not None:
        out["g"] = link.g
        out["seifert"] = {
            sign_key(eps): [list(row) for row in mat]
            for eps, mat in sorted(link.seifert.items(), reverse=True)
        }
    if link.alexander is not None:
        out["alexander"] = format_poly(link.alexander)
    if link.conway is not None:
        out["conway"] = format_poly(link.conway)
    return out


def link_from_dict(data: dict) -> ColoredLinkData:
    with malformed_record("link"):
        mu = strict_int(data["mu"], "mu")
        components = tuple((str(c["id"]), c["color"]) for c in data["components"])
        linking = data.get("linking", {})
        if not isinstance(linking, dict):
            raise InvalidInput(f"malformed link record: linking is a {type(linking).__name__}, not an object")
        seifert = data.get("seifert")
        link = ColoredLinkData(
            name=str(data.get("name", "")),
            mu=mu,
            components=components,
            linking=linking,
            g=data.get("g"),
            seifert={k: v for k, v in seifert.items()} if seifert is not None else None,
        )
        # the polynomials are parsed only once mu is known to be the link's,
        # so a huge mu is refused before a term of mu exponents is built
        alexander = data.get("alexander")
        conway = data.get("conway")
        if not (alexander or conway):
            return link
        return replace(link, alexander=parse_poly(alexander, mu=mu) if alexander else None,
                       conway=parse_poly(conway, mu=mu, half_step=True) if conway else None)


def slope_to_dict(slope_data: SlopeData) -> dict:
    return {
        "base": link_to_dict(slope_data.base),
        "k_class": list(slope_data.k_class),
        "distinguished_color": slope_data.distinguished_color,
    }


def slope_from_dict(data: dict) -> SlopeData:
    with malformed_record("slope"):
        return SlopeData(
            base=link_from_dict(data["base"]),
            k_class=tuple(data["k_class"]),
            distinguished_color=data["distinguished_color"],
        )


def load_link(path: str) -> ColoredLinkData:
    with open(path, "r", encoding="utf-8") as fh:
        return link_from_dict(json.load(fh))


def save_link(link: ColoredLinkData, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(link_to_dict(link), fh, indent=2)
        fh.write("\n")


def load_slope(path: str) -> SlopeData:
    with open(path, "r", encoding="utf-8") as fh:
        return slope_from_dict(json.load(fh))


def save_slope(slope_data: SlopeData, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(slope_to_dict(slope_data), fh, indent=2)
        fh.write("\n")
