"""Exact multivariable Laurent polynomials over the integers.

The ring is Z[t_1^{+-1}, ..., t_mu^{+-1}].  A polynomial is a sparse mapping
from exponent tuples to nonzero integer coefficients; all arithmetic is exact.
A polynomial may instead live in the half-integer ring Z[t_i^{+-1/2}]: the
``half_step`` flag means every stored exponent k stands for t_i^(k/2).
Half-step and integer-step polynomials never mix in one operation.

Terms are validated once, where they enter: the LaurentPoly constructor
(and so the parser, the catalog and user code) refuses a monomial of the
wrong length, a duplicate monomial and a non-integer exponent or
coefficient.  Every result of the ring's own operations is built by one
accumulator from terms that are already valid, without checking them
again.  It sums the (monomial, coefficient) pairs in order and drops a
monomial whose running sum reaches zero, so a later term re-inserts it at
the end; the term order it leaves is the order evaluation sums in.

Equality up to units (a sign and monomial factors) is decided through a
canonical representative: shift so the minimal exponent of every variable is
zero, then fix the sign so the lexicographically smallest monomial has a
positive coefficient.

Evaluation on the torus substitutes roots of unity, t_i -> omega_i.
eval_family does it for several polynomials at the integer numerators of a
group of points over one denominator (a group of torus.denominator_groups):
the exponent sums of their distinct monomials are one integer matrix
product, the roots one table (torus.unit_roots), and each polynomial is
summed from the table in its own term order.  eval_numerators is
eval_family of one polynomial.  Both give the values of the scalar
reference eval_at (tests/per_point.py), one point at a time, bit for bit.
"""

from __future__ import annotations

import math
import operator
import re
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidInput, NotDivisible
from .torus import unit_roots

Monomial = tuple[int, ...]


class LaurentPoly:
    """Sparse exact Laurent polynomial in mu variables."""

    __slots__ = ("mu", "terms", "half_step")

    def __init__(self, mu: int, terms: Mapping[Monomial, int], half_step: bool = False):
        if mu < 1:
            raise InvalidInput("variable count must be >= 1")
        clean: dict[Monomial, int] = {}
        for mono, coeff in terms.items():
            if len(mono) != mu:
                raise InvalidInput(f"monomial {mono} has wrong length for mu={mu}")
            coeff = _integer(coeff, "coefficient", mono)
            key = tuple(_integer(e, "exponent", mono) for e in mono)
            if coeff == 0:
                continue
            if key in clean:
                raise InvalidInput(f"duplicate monomial {key}")
            clean[key] = coeff
        self.mu = mu
        self.terms = clean
        self.half_step = bool(half_step)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, mu: int, half_step: bool = False) -> "LaurentPoly":
        return cls(mu, {}, half_step)

    @classmethod
    def const(cls, c: int, mu: int, half_step: bool = False) -> "LaurentPoly":
        return cls(mu, {(0,) * mu: c}, half_step)

    @classmethod
    def monomial(cls, exponents: Iterable[int], coeff: int = 1, half_step: bool = False) -> "LaurentPoly":
        exps = tuple(exponents)
        return cls(len(exps), {exps: coeff}, half_step)

    @classmethod
    def variable(cls, i: int, mu: int, exp: int = 1, half_step: bool = False) -> "LaurentPoly":
        """The monomial t_i^exp (1-based index)."""
        if not 1 <= i <= mu:
            raise InvalidInput(f"variable index {i} out of range for mu={mu}")
        exps = tuple(exp if j == i - 1 else 0 for j in range(mu))
        return cls(mu, {exps: 1}, half_step)

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.mu: 1}

    def coefficient_mass(self) -> int:
        """Sum of absolute coefficients; the natural evaluation scale."""
        return sum(abs(c) for c in self.terms.values())

    def _compatible(self, other: "LaurentPoly") -> None:
        if self.mu != other.mu:
            raise InvalidInput(f"variable counts differ: {self.mu} vs {other.mu}")
        if self.half_step != other.half_step:
            raise InvalidInput("cannot mix half-step and integer-step polynomials")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other, self.mu, self.half_step)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._compatible(other)
        return _accumulate(self.mu, chain(self.terms.items(), other.terms.items()), self.half_step)

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other, self.mu, self.half_step)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return _accumulate(self.mu, ((m, -c) for m, c in self.terms.items()), self.half_step)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return _accumulate(self.mu, ((m, c * other) for m, c in self.terms.items()), self.half_step)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._compatible(other)
        pairs = ((tuple(map(operator.add, ma, mb)), ca * cb)
                 for ma, ca in self.terms.items() for mb, cb in other.terms.items())
        return _accumulate(self.mu, pairs, self.half_step)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise InvalidInput("negative powers are only defined for monomials; divide instead")
        result = LaurentPoly.const(1, self.mu, self.half_step)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (
            self.mu == other.mu
            and self.half_step == other.half_step
            and self.terms == other.terms
        )

    __hash__ = None  # mutable-looking container; not intended as a dict key

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r}, mu={self.mu}, half_step={self.half_step})"

    def __str__(self) -> str:
        return format_poly(self)


def _integer(value, what: str, mono) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{what} {value!r} of monomial {mono} is not an integer") from None


def _accumulate(mu: int, pairs: Iterable[tuple[Monomial, int]], half_step: bool) -> LaurentPoly:
    """The sum of (monomial, coefficient) pairs that are already valid: int
    tuples of length mu and ints.  A monomial whose running sum reaches zero
    is dropped, so a later term re-inserts it at the end."""
    out: dict[Monomial, int] = {}
    for mono, c in pairs:
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    p = object.__new__(LaurentPoly)
    p.mu, p.terms, p.half_step = mu, out, half_step
    return p


# -- evaluation --------------------------------------------------------------


def _float_coefficient(c: int) -> float:
    try:
        return float(c)
    except OverflowError:
        raise InvalidInput(f"a coefficient of {c.bit_length()} bits does not fit a float") from None


def _monomial_roots(monos: Sequence[Monomial], d: int, half_step: bool, nums: np.ndarray) -> np.ndarray:
    """The (P, T) array of t^e at the points with turns nums / d, one column
    per monomial e: unit_root(e . n mod den, den) with den = d, or 2 * d for
    half-step exponents, from one integer matrix product and one unit_roots
    table."""
    mu = nums.shape[1]
    den = 2 * d if half_step else d  # stored exponent k stands for t^(k/2)
    exps = np.array(monos, dtype=object).reshape(len(monos), mu) % den
    # exact in int64 while every exponent sum mu * (d - 1) * (den - 1) fits
    dtype = np.int64 if mu * d * den < 1 << 63 else object
    sums = nums.astype(dtype) @ exps.astype(dtype).T
    sums %= den
    return unit_roots(sums, den)


def _sum_terms(p: LaurentPoly, roots: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """sum_t c_t * roots[:, cols[t]] over the terms of p, in its term order."""
    total = np.zeros(len(roots), dtype=np.complex128)
    for c, col in zip(p.terms.values(), cols):
        total += _float_coefficient(c) * roots[:, col]
    return total


def eval_numerators(p: LaurentPoly, d: int, nums: np.ndarray) -> np.ndarray:
    """p at the points whose turns are the rows of nums / d.

    nums is a (P, mu) integer array, one group of torus.denominator_groups.
    Exponents act on the exact turns, reduced mod 1, so negative powers are
    conjugate powers and half-step exponents use the principal half turn
    omega_i^(1/2) = e^(i*pi*q_i) with q_i in [0, 1).  A coefficient too large
    for a float raises InvalidInput.  Every value equals the one the scalar
    reference eval_at (tests/per_point.py) gives, bit for bit: the exponent
    sums are exact integers reduced mod the denominator, the roots come from
    the same unit_root values, and the terms are multiplied and summed in
    the same order with the same float operations.  (A matmul or np.sum of
    the terms would reorder the additions.)
    """
    return next(eval_family([p], d, nums))


def eval_family(polys: Sequence[LaurentPoly], d: int, nums: np.ndarray) -> Iterator[np.ndarray]:
    """eval_numerators(p, d, nums) for each p in turn, from one table of
    roots for the distinct monomials of all of them.

    The values are computed lazily, so an error (a coefficient too large for
    a float) is raised when its polynomial is reached.
    """
    steps = {p.half_step for p in polys}
    if len(steps) > 1:
        raise InvalidInput("cannot mix half-step and integer-step polynomials")
    column: dict[Monomial, int] = {}
    for p in polys:
        for mono in p.terms:
            column.setdefault(mono, len(column))
    roots = _monomial_roots(list(column), d, True in steps, nums)
    for p in polys:
        yield _sum_terms(p, roots, [column[mono] for mono in p.terms])


# -- unit normalization ------------------------------------------------------


def unit_normalize(p: LaurentPoly) -> LaurentPoly:
    """Canonical representative of p up to multiplication by units.

    Units of the ring are signs and monomials.  The representative has the
    minimal exponent of every variable equal to zero and a positive
    coefficient on the lexicographically smallest monomial.  Zero maps to
    zero.  Idempotent by construction.
    """
    if p.is_zero():
        return p
    q, _ = _monomial_shift(p)
    return q if q.terms[min(q.terms)] > 0 else -q


def eq_up_to_units(a: LaurentPoly, b: LaurentPoly) -> bool:
    a._compatible(b)
    return unit_normalize(a) == unit_normalize(b)


# -- exact division ----------------------------------------------------------


def _monomial_shift(p: LaurentPoly) -> tuple[LaurentPoly, Monomial]:
    """Split p = t^shift * q with q having minimal exponent 0 per variable."""
    shift = tuple(min(m[i] for m in p.terms) for i in range(p.mu))
    return _times_term(p, tuple(-s for s in shift)), shift


def _times_term(p: LaurentPoly, mono: Monomial, coeff: int = 1) -> LaurentPoly:
    """p * coeff * t^mono, term by term in p's order."""
    return _accumulate(p.mu, ((tuple(map(operator.add, m, mono)), coeff * c) for m, c in p.terms.items()),
                       p.half_step)


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The exact quotient q with q*b == a, or raise NotDivisible.

    Division is carried out on true polynomials after clearing monomial
    factors (monomials are units here); lexicographic leading-term reduction
    with integer coefficient checks decides divisibility exactly.
    """
    a._compatible(b)
    if b.is_zero():
        raise InvalidInput("division by zero")
    if a.is_zero():
        return LaurentPoly.zero(a.mu, a.half_step)
    pa, sa = _monomial_shift(a)
    pb, sb = _monomial_shift(b)
    lead_b = max(pb.terms)
    cb = pb.terms[lead_b]
    quotient: list[tuple[Monomial, int]] = []
    rem = pa
    while not rem.is_zero():
        lead_r = max(rem.terms)
        cr = rem.terms[lead_r]
        diff = tuple(r - s for r, s in zip(lead_r, lead_b))
        if any(d < 0 for d in diff) or cr % cb != 0:
            raise NotDivisible(f"{format_poly(b)} does not divide {format_poly(a)}")
        qc = cr // cb
        quotient.append((diff, qc))
        rem = rem - _times_term(pb, diff, qc)
    shift = tuple(x - y for x, y in zip(sa, sb))
    return _times_term(_accumulate(a.mu, quotient, a.half_step), shift)


def divides(b: LaurentPoly, a: LaurentPoly) -> bool:
    try:
        exact_div(a, b)
        return True
    except NotDivisible:
        return False


# -- gcd ---------------------------------------------------------------------


def _deg_in(p: LaurentPoly, k: int) -> int:
    """Degree in variable k (0-based) of a polynomial with nonneg exponents."""
    return max(m[k] for m in p.terms)


def _univariate_view(p: LaurentPoly, k: int) -> dict[int, LaurentPoly]:
    """Coefficients of powers of variable k, as polynomials in the others."""
    coeffs: dict[int, list[tuple[Monomial, int]]] = {}
    for mono, c in p.terms.items():
        rest = tuple(e if i != k else 0 for i, e in enumerate(mono))
        coeffs.setdefault(mono[k], []).append((rest, c))
    return {d: _accumulate(p.mu, pairs, p.half_step) for d, pairs in coeffs.items()}


def _leading_in(p: LaurentPoly, k: int) -> tuple[int, LaurentPoly]:
    d = _deg_in(p, k)
    return d, _univariate_view(p, k)[d]


def _shift_in(p: LaurentPoly, k: int, d: int) -> LaurentPoly:
    return _times_term(p, tuple(d if i == k else 0 for i in range(p.mu)))


def _pseudo_rem(a: LaurentPoly, b: LaurentPoly, k: int) -> LaurentPoly:
    db, lb = _leading_in(b, k)
    r = a
    while not r.is_zero() and _deg_in(r, k) >= db:
        dr, lr = _leading_in(r, k)
        r = lb * r - _shift_in(lr, k, dr - db) * b
    return r


def _content_in(p: LaurentPoly, k: int) -> LaurentPoly:
    coeffs = list(_univariate_view(p, k).values())
    content = coeffs[0]
    for c in coeffs[1:]:
        content = _gcd_nonneg(content, c)
        if content.is_one():
            break
    return content


def _gcd_nonneg(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Recursive primitive-part Euclidean gcd; inputs have nonneg exponents."""
    if a.is_zero():
        return unit_normalize(b)
    if b.is_zero():
        return unit_normalize(a)
    used = [k for k in range(a.mu) if any(m[k] for m in a.terms) or any(m[k] for m in b.terms)]
    if not used:
        g = math.gcd(a.terms[(0,) * a.mu], b.terms[(0,) * b.mu])
        return LaurentPoly.const(g, a.mu, a.half_step)
    k = used[-1]
    ca = _content_in(a, k)
    cb = _content_in(b, k)
    content = _gcd_nonneg(ca, cb)
    pa = exact_div(a, ca)
    pb = exact_div(b, cb)
    if _deg_in(pa, k) < _deg_in(pb, k):
        pa, pb = pb, pa
    while not pb.is_zero():
        r = _pseudo_rem(pa, pb, k)
        pa = pb
        if r.is_zero():
            pb = r
        else:
            pb = exact_div(r, _content_in(r, k))
    return unit_normalize(content * pa)


def gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """A greatest common divisor, unit-normalized.

    Monomial factors are units and are cleared first; the rest is a
    variable-by-variable content/primitive-part Euclidean gcd over Z.
    """
    a._compatible(b)
    if a.is_zero() and b.is_zero():
        return LaurentPoly.zero(a.mu, a.half_step)
    if a.is_zero():
        return unit_normalize(b)
    if b.is_zero():
        return unit_normalize(a)
    pa, _ = _monomial_shift(a)
    pb, _ = _monomial_shift(b)
    return _gcd_nonneg(pa, pb)


def gcd_many(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    it = iter(polys)
    try:
        acc = next(it)
    except StopIteration:
        raise InvalidInput("gcd of an empty family")
    for p in it:
        acc = gcd(acc, p)
        if acc.is_one():
            break
    return unit_normalize(acc)


# -- structural maps ---------------------------------------------------------


def substitute_diagonal(p: LaurentPoly) -> LaurentPoly:
    """Replace every variable by a single variable t."""
    return _accumulate(1, (((sum(m),), c) for m, c in p.terms.items()), p.half_step)


def conj_involution(p: LaurentPoly) -> LaurentPoly:
    """The involution t_i -> t_i^{-1}."""
    return _accumulate(p.mu, ((tuple(-e for e in m), c) for m, c in p.terms.items()), p.half_step)


def to_half_step(p: LaurentPoly) -> LaurentPoly:
    """Reinterpret an integer-step polynomial in the half-step ring.

    Exponents double so the represented polynomial is unchanged.
    """
    if p.half_step:
        return p
    return _accumulate(p.mu, ((tuple(2 * e for e in m), c) for m, c in p.terms.items()), True)


# -- text grammar -------------------------------------------------------------

_FACTOR_RE = re.compile(r"t(\d*)(?:\^(-?\d+))?")


def _parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's limit on int-from-string conversion
        raise InvalidInput(f"a number of {len(digits)} digits is too long") from None


def parse_poly(text: str, mu: int | None = None, half_step: bool = False) -> LaurentPoly:
    """Parse the textual grammar: terms joined by +/-, factors like 2*t1^-3*t2.

    One variable may be written plain ``t``.  Whitespace is insignificant.
    If mu is not given it is inferred from the largest variable index used
    (at least 1).
    """
    s = re.sub(r"\s+", "", text)
    if s == "":
        raise InvalidInput("empty polynomial text")
    # split before every sign; a '-' directly after '^' belongs to an exponent
    pieces = re.split(r"(?<!\^)(?=[+-])", s)
    if pieces[0] == "":  # the text starts with a sign
        del pieces[0]
    parsed: list[tuple[int, dict[int, int]]] = []
    max_index = 0
    for piece in pieces:
        term = piece[1:] if piece[0] in "+-" else piece
        if term == "":
            raise InvalidInput(f"empty term in {text!r}")
        coeff = -1 if piece[0] == "-" else 1
        exps: dict[int, int] = {}
        for factor in term.split("*"):
            if factor == "":
                raise InvalidInput(f"empty factor in term {term!r}")
            if factor[0] in "0123456789":
                if not factor.isdigit():
                    raise InvalidInput(f"bad coefficient {factor!r} in {text!r}")
                coeff *= _parse_int(factor)
                continue
            m = _FACTOR_RE.fullmatch(factor)
            if not m:
                raise InvalidInput(f"bad factor {factor!r} in {text!r}")
            idx = _parse_int(m.group(1)) if m.group(1) else 1
            if idx < 1:
                raise InvalidInput(f"bad variable index in {factor!r}")
            exp = _parse_int(m.group(2)) if m.group(2) else 1
            exps[idx] = exps.get(idx, 0) + exp
            max_index = max(max_index, idx)
        parsed.append((coeff, exps))

    if mu is None:
        mu = max(max_index, 1)
    elif max_index > mu:
        raise InvalidInput(f"variable t{max_index} exceeds mu={mu}")
    elif mu < 1:
        raise InvalidInput("variable count must be >= 1")
    pairs = ((tuple(exps.get(i, 0) for i in range(1, mu + 1)), coeff) for coeff, exps in parsed)
    return _accumulate(mu, pairs, bool(half_step))


def format_poly(p: LaurentPoly) -> str:
    """Render in the same grammar parse_poly accepts; '0' for zero."""
    if p.is_zero():
        return "0"
    var = (lambda i: "t") if p.mu == 1 else (lambda i: f"t{i}")
    pieces = []
    for mono in sorted(p.terms, reverse=True):
        c = p.terms[mono]
        factors = []
        for i, e in enumerate(mono, start=1):
            if e == 0:
                continue
            factors.append(var(i) if e == 1 else f"{var(i)}^{e}")
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)
