"""Ring arithmetic, normalization, divisibility, gcd, and the text grammar."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksig.clink import seifert_coefficients
from linksig.errors import InvalidInput, NotDivisible
from linksig.laurent import (
    LaurentPoly,
    conj_involution,
    divides,
    eq_up_to_units,
    eval_at,
    eval_family,
    eval_many,
    exact_div,
    format_poly,
    gcd,
    parse_poly,
    substitute_diagonal,
    to_half_step,
    unit_normalize,
)
from linksig.laurent import _leading_in, _monomial_shift, _shift_in, _univariate_view
from linksig.sampler import tbang_points
from linksig.strata import PresentationMatrix, stratum_indices
from linksig.torus import Lattice, TorusPoint, denominator_groups, lattice

from conftest import random_point, random_poly, random_turn

P = parse_poly


def t(i, mu):
    return LaurentPoly.variable(i, mu)


def test_add_examples():
    assert (P("t1 - 1") + P("1 - t1")).is_zero()
    assert P("t1*t2 + 1") + P("t1*t2") == P("2*t1*t2 + 1")
    assert P("t1^-1") + P("t1") == P("t1^-1 + t1")
    assert len((P("t1^-1") + P("t1")).terms) == 2


def test_add_rejects_mismatch():
    with pytest.raises(InvalidInput):
        P("t1", mu=1) + P("t1", mu=2)
    with pytest.raises(InvalidInput):
        P("t1", mu=1) + parse_poly("t1", mu=1, half_step=True)


def test_mul_examples():
    assert P("t1 - 1") * P("t1^-1") == P("1 - t1^-1")
    prod = P("t1 - 1", mu=3) * P("t2 - 1", mu=3) * P("t3 - 1", mu=3)
    assert len(prod.terms) == 8
    assert set(prod.terms.values()) == {1, -1}
    assert P("t - 1") * P("t + 1") == P("t^2 - 1")


def test_eval_examples():
    two = eval_at(P("t1*t2 + 1"), TorusPoint.of(Fraction(1, 2), Fraction(1, 2)))
    assert abs(two - 2) < 1e-12
    p = P("t1 - 1", mu=3) * P("t2 - 1", mu=3) * P("t3 - 1", mu=3)
    z = eval_at(p, TorusPoint.of(0, Fraction(1, 3), Fraction(2, 7)))
    assert abs(z) < 1e-12
    v = eval_at(P("t - 1"), TorusPoint.of(Fraction(1, 4)))
    assert abs(v - (-1 + 1j)) < 1e-12


def test_eval_arity_mismatch():
    with pytest.raises(InvalidInput):
        eval_at(P("t1*t2"), TorusPoint.of(Fraction(1, 3)))


def _mixed_points(rng: random.Random, mu: int, count: int) -> list[TorusPoint]:
    """Grid points (faces included) and random turns, shuffled together."""
    pts = []
    for _ in range(count):
        if rng.random() < 0.5:
            n = rng.choice([2, 3, 4, 6, 12])
            pts.append(TorusPoint(tuple(Fraction(rng.randrange(n), n) for _ in range(mu))))
        else:
            pts.append(TorusPoint(tuple(random_turn(rng, interior=rng.random() < 0.7) for _ in range(mu))))
    rng.shuffle(pts)
    return pts


@pytest.mark.parametrize("half_step", [False, True])
def test_eval_many_equals_eval_at_exactly(rng, half_step):
    for _ in range(60):
        mu = rng.randint(1, 4)
        p = random_poly(rng, mu, max_terms=8, exp_range=(-30, 30), coeff_range=(-10**6, 10**6),
                        half_step=half_step)
        pts = _mixed_points(rng, mu, 30)
        assert any(not pt.is_interior() for pt in pts)
        values = eval_many(p, pts)
        assert values.dtype == complex and values.shape == (len(pts),)
        assert values.tolist() == [eval_at(p, pt) for pt in pts]
        # np.abs may round complex magnitudes differently; np.hypot is abs
        assert np.hypot(values.real, values.imag).tolist() == [abs(eval_at(p, pt)) for pt in pts]


@pytest.mark.parametrize("half_step", [False, True])
def test_eval_family_equals_eval_at_exactly(rng, half_step):
    for _ in range(20):
        mu = rng.randint(1, 3)
        base = random_poly(rng, mu, max_terms=6, exp_range=(-5, 5), half_step=half_step)
        # shared and distinct monomials, a zero polynomial, different term counts
        family = [base, base * 3 + LaurentPoly.const(1, mu, half_step), LaurentPoly.zero(mu, half_step),
                  random_poly(rng, mu, max_terms=3, exp_range=(-5, 5), half_step=half_step)]
        pts = _mixed_points(rng, mu, 20)
        for d, rows, nums in denominator_groups(pts):
            values = list(eval_family(family, d, nums))
            assert len(values) == len(family)
            for p, z in zip(family, values):
                assert z.tolist() == [eval_at(p, pts[r]) for r in rows]
    with pytest.raises(InvalidInput, match="cannot mix"):
        next(eval_family([P("t + 1"), to_half_step(P("t"))], 3, np.array([[1]])))


def test_eval_many_edge_cases():
    assert eval_many(P("t1 + 1", mu=2), []).shape == (0,)
    pts = [TorusPoint.of(Fraction(1, 3), 0), TorusPoint.of(Fraction(1, 2), Fraction(1, 5))]
    assert eval_many(LaurentPoly.zero(2), pts).tolist() == [0j, 0j]
    huge = P(f"t1^{10**30} - t2^-{10**25}", mu=2)
    assert eval_many(huge, pts).tolist() == [eval_at(huge, pt) for pt in pts]
    with pytest.raises(InvalidInput, match="arity mismatch"):
        eval_many(P("t1*t2"), pts + [TorusPoint.of(Fraction(1, 3))])


# common denominators below 2^63 with an int64 overflow risk in the exponent
# sums, in [2^63, 2^64) (where numpy would pick uint64), and beyond 2^64
HUGE_DENOMINATOR_POINTS = [
    TorusPoint.of(Fraction(1, 2**61 + 1), Fraction(1, 2)),
    TorusPoint.of(Fraction(1, 2**62 + 1), Fraction(1, 3)),
    TorusPoint.of(Fraction(1, 3), Fraction(1, 2)),
    TorusPoint.of(Fraction(5, 2**62 + 1), Fraction(2, 3)),
    TorusPoint.of(Fraction(1, 2**70 + 1), Fraction(2, 7)),
    TorusPoint.of(0, Fraction(3, 2**62 + 1)),
]


def test_eval_many_huge_denominators(rng):
    dtypes = {d: nums.dtype for d, _, nums in denominator_groups(HUGE_DENOMINATOR_POINTS)}
    assert dtypes[3 * (2**62 + 1)] == object and dtypes[7 * (2**70 + 1)] == object
    assert dtypes[2**62 + 2] == np.int64
    for half_step in (False, True):
        for _ in range(10):
            p = random_poly(rng, 2, max_terms=6, exp_range=(-40, 40), coeff_range=(-100, 100),
                            half_step=half_step)
            assert eval_many(p, HUGE_DENOMINATOR_POINTS).tolist() == [
                eval_at(p, pt) for pt in HUGE_DENOMINATOR_POINTS]


def _strata_fields(reports):
    return [(rep.point, rep.index, rep.predicted_nullity, rep.flags) for rep in reports]


@pytest.mark.parametrize("mu", [1, 2, 3])
def test_lattice_batches_equal_the_list_path(rng, mu):
    # turns k/8: faces and reduced denominators 1, 2, 4 and 8 in one lattice
    whole = tbang_points(2, 3, mu)
    face = P("t1 - 1", mu=mu)
    for points in (whole, whole[len(whole) // 3:len(whole) // 3 + 37], whole[::-5]):
        listed = list(points)
        assert seifert_coefficients(mu, points).tolist() == seifert_coefficients(mu, listed).tolist()
        for half_step in (False, True):
            for _ in range(4):
                p = random_poly(rng, mu, max_terms=5, exp_range=(-9, 9), half_step=half_step)
                assert eval_many(p, points).tolist() == eval_many(p, listed).tolist()
                assert eval_many(p, points).tolist() == [eval_at(p, pt) for pt in listed]
        rows = [[random_poly(rng, mu, max_terms=3, exp_range=(-2, 2), nonzero=True) * face
                 for _ in range(2)] for _ in range(2)]
        rows.append([random_poly(rng, mu, max_terms=3, exp_range=(-2, 2)) for _ in range(2)])
        pres = PresentationMatrix(mu, rows)
        pointed = points[1:] if points[0].is_basepoint() else points
        for tau_poly in (1e-8, 0.3):
            assert _strata_fields(stratum_indices(pres, pointed, tau_poly)) == \
                _strata_fields(stratum_indices(pres, list(pointed), tau_poly))


def test_lattice_batches_with_huge_denominators(rng):
    n = 2**64  # beyond any lattice: turns k/2^64 go through the per-point grouping
    cases = [
        [TorusPoint.of(Fraction(k, n)) for k in range(n - 8, n - 3)],
        # reduced denominators 2^62, 2^63, 2^64
        [TorusPoint.of(Fraction(a, n), Fraction(b, n)) for a, b in product(range(n - 4, n), repeat=2)][-9:],
        lattice(2**31 + 1, 2, 1)[-3:],  # 2^62 points
        lattice(3 * (2**61 + 1), 1)[7:10],
        lattice(3 * (2**61 + 1), 1)[-3:],
    ]
    for points in cases:
        listed = list(points)
        if isinstance(points, Lattice):
            nums = points.numerators()
            assert nums.dtype == np.int64
            assert nums.tolist() == [[int(q * points.n) for q in pt.turns] for pt in listed]
            assert seifert_coefficients(points.mu, points).tolist() == \
                seifert_coefficients(points.mu, listed).tolist()
        for half_step in (False, True):
            for _ in range(4):
                p = random_poly(rng, listed[0].mu, max_terms=5, exp_range=(-40, 40),
                                coeff_range=(-100, 100), half_step=half_step)
                assert eval_many(p, points).tolist() == [eval_at(p, pt) for pt in listed]


def test_eval_rejects_coefficients_beyond_float():
    p = P(f"{10**400}*t1 - 1", mu=2)
    pt = TorusPoint.of(Fraction(1, 3), Fraction(1, 5))
    with pytest.raises(InvalidInput, match="does not fit a float"):
        eval_at(p, pt)
    with pytest.raises(InvalidInput, match="does not fit a float"):
        eval_many(p, [pt])


def test_denominator_groups():
    pts = [TorusPoint.of(Fraction(1, 2), Fraction(1, 3)), TorusPoint.of(0, Fraction(3, 4)),
           TorusPoint.of(Fraction(5, 6), Fraction(1, 2)), TorusPoint.of(0, 0)]
    groups = denominator_groups(pts)
    assert [(d, rows, nums.tolist()) for d, rows, nums in groups] == [
        (6, [0, 2], [[3, 2], [5, 3]]),
        (4, [1], [[0, 3]]),
        (1, [3], [[0, 0]]),
    ]


def test_eval_negative_powers_are_conjugate_powers():
    p = P("t^-3")
    pt = TorusPoint.of(Fraction(2, 7))
    w = pt.coordinate(1)
    assert abs(eval_at(p, pt) - w.conjugate() ** 3) < 1e-12


def test_eval_half_step_principal_root():
    s = LaurentPoly(1, {(1,): 1}, half_step=True)  # t^(1/2)
    v = eval_at(s, TorusPoint.of(Fraction(1, 2)))
    assert abs(v - 1j) < 1e-12  # e^(i*pi*q) with q = 1/2
    v34 = eval_at(s, TorusPoint.of(Fraction(3, 4)))
    assert abs(v34 - complex(-(2 ** -0.5), 2 ** -0.5)) < 1e-12


def test_unit_normalize_examples():
    p = LaurentPoly(2, {(-1, 1): -1, (-2, 0): -1})  # -t1^-2*(t1*t2 + 1)
    assert unit_normalize(p) == P("t1*t2 + 1")
    assert unit_normalize(P("t - 1")) == unit_normalize(P("1 - t^-1"))
    z = LaurentPoly.zero(2)
    assert unit_normalize(z) == z


def test_unit_normalize_idempotent_random(rng):
    for _ in range(300):
        p = random_poly(rng, rng.randint(1, 3))
        n1 = unit_normalize(p)
        assert unit_normalize(n1) == n1


def test_eq_up_to_units_examples():
    a = P("t1 - 1", mu=2) * P("t2 - 1")
    b = P("1 - t1^-1", mu=2) * P("1 - t2^-1") * P("t1*t2")
    assert eq_up_to_units(a, b)
    assert not eq_up_to_units(P("t1*t2 + 1"), P("t1 + t2"))
    d = P("t1*t2 + 1")
    assert eq_up_to_units(d, -d)


def test_eq_up_to_units_is_equivalence(rng):
    for _ in range(200):
        mu = rng.randint(1, 3)
        p = random_poly(rng, mu, nonzero=True)
        unit = LaurentPoly.monomial(tuple(rng.randint(-2, 2) for _ in range(mu)),
                                    rng.choice([1, -1]))
        q = p * unit
        r = q * LaurentPoly.monomial(tuple(rng.randint(-2, 2) for _ in range(mu)),
                                     rng.choice([1, -1]))
        assert eq_up_to_units(p, p)
        assert eq_up_to_units(p, q) == eq_up_to_units(q, p)
        assert eq_up_to_units(p, q) and eq_up_to_units(q, r) and eq_up_to_units(p, r)


def test_exact_div_examples():
    assert exact_div(P("t^2 - 1"), P("t - 1")) == P("t + 1")
    with pytest.raises(NotDivisible):
        exact_div(P("t1*t2 + 1"), P("t1 - 1", mu=2))
    assert exact_div(P("t - 1"), P("t - 1")) == P("1")


def test_exact_div_integrality():
    # divisible over Q but not over Z
    with pytest.raises(NotDivisible):
        exact_div(P("t"), P("2*t"))
    assert exact_div(P("2*t"), P("t")) == P("2")


def test_exact_div_random_products(rng):
    for _ in range(200):
        mu = rng.randint(1, 3)
        a = random_poly(rng, mu, nonzero=True)
        b = random_poly(rng, mu, nonzero=True)
        assert exact_div(a * b, b) == a


def test_gcd_examples_with_divisor_oracle():
    mu = 2
    f = P("t1 - 1", mu=mu)
    g1 = P("t1*t2 + 1", mu=mu)
    g2 = P("t2 - 1", mu=mu)
    a = f * g1
    b = f * g2
    d = gcd(a, b)
    assert eq_up_to_units(d, f)
    # oracle: trial division over the finite candidate products of the
    # constituent factors; the maximal common divisor among them is t1 - 1
    candidates = []
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                for c in (1, 2):
                    candidates.append(LaurentPoly.const(c, mu) * f**i * g1**j * g2**k)
    common = [q for q in candidates if divides(q, a) and divides(q, b)]
    best = max(common, key=lambda q: (sum(map(abs, max(q.terms))), len(q.terms)))
    assert eq_up_to_units(best, f)


def test_gcd_degenerate_cases():
    p = P("t1*t2 + 2*t1", mu=2)
    assert eq_up_to_units(gcd(p, LaurentPoly.zero(2)), p)
    assert eq_up_to_units(gcd(P("2*t1", mu=2), P("3*t2", mu=2)), P("1", mu=2))
    assert eq_up_to_units(gcd(P("2*t1", mu=2), P("4*t2", mu=2)), P("2", mu=2))


def test_gcd_divides_and_scales(rng):
    for _ in range(150):
        mu = rng.randint(1, 2)
        a = random_poly(rng, mu, max_terms=3, exp_range=(-2, 2), coeff_range=(-4, 4), nonzero=True)
        b = random_poly(rng, mu, max_terms=3, exp_range=(-2, 2), coeff_range=(-4, 4), nonzero=True)
        d = gcd(a, b)
        assert divides(d, a) and divides(d, b)
        m = random_poly(rng, mu, max_terms=2, exp_range=(0, 2), coeff_range=(-3, 3), nonzero=True)
        assert eq_up_to_units(gcd(m * a, m * b), m * d)


def test_ring_axioms_random(rng):
    for _ in range(300):
        mu = rng.randint(1, 3)
        a = random_poly(rng, mu)
        b = random_poly(rng, mu)
        c = random_poly(rng, mu)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_eval_is_ring_homomorphism(rng):
    for _ in range(300):
        mu = rng.randint(1, 3)
        a = random_poly(rng, mu, max_terms=5, exp_range=(-8, 8), coeff_range=(-100, 100))
        b = random_poly(rng, mu, max_terms=5, exp_range=(-8, 8), coeff_range=(-100, 100))
        pt = random_point(rng, mu, interior=False)
        va, vb = eval_at(a, pt), eval_at(b, pt)
        vab = eval_at(a * b, pt)
        assert abs(vab - va * vb) <= 1e-10 * (1 + abs(va)) * (1 + abs(vb))
        vsum = eval_at(a + b, pt)
        assert abs(vsum - (va + vb)) <= 1e-10 * (1 + abs(va) + abs(vb))


def test_substitute_diagonal_examples():
    assert substitute_diagonal(P("t1*t2 + 1")) == P("t^2 + 1")
    assert substitute_diagonal(P("t1 - 1", mu=2) * P("t2 - 1", mu=2)) == P("t - 1") * P("t - 1")
    assert substitute_diagonal(P("5", mu=3)) == P("5", mu=1)


def test_conj_involution_examples():
    p = P("t1*t2 + 1")
    q = conj_involution(p)
    assert q == P("t1^-1*t2^-1 + 1")
    assert eq_up_to_units(p, q)
    assert conj_involution(P("t1^2 + t2")) == P("t1^-2 + t2^-1")
    assert conj_involution(LaurentPoly.zero(2)).is_zero()


def test_conj_involution_properties(rng):
    for _ in range(200):
        mu = rng.randint(1, 3)
        a = random_poly(rng, mu)
        b = random_poly(rng, mu)
        assert conj_involution(conj_involution(a)) == a
        assert conj_involution(a * b) == conj_involution(a) * conj_involution(b)


def test_half_step_conversion():
    p = P("t1^2 - t2")
    h = to_half_step(p)
    assert h.half_step and h.terms == {(4, 0): 1, (0, 2): -1}
    with pytest.raises(InvalidInput):
        p * h  # mixing flags is refused


def test_parse_rejects_garbage():
    for bad in ("", "t0", "(t1-1)^2", "t1^", "++1", "2**t1", "1" * 5000 + "*t", "t^" + "1" * 5000, "t" + "1" * 5000):
        with pytest.raises(InvalidInput):
            parse_poly(bad)


def test_parse_merges_and_infers_mu():
    p = parse_poly("t1*t2 - t2*t1 + 3")
    assert p.mu == 2 and p == P("3", mu=2)
    assert parse_poly("t^2*t").terms == {(3,): 1}
    assert parse_poly("t1", mu=3).mu == 3


def test_format_parse_roundtrip(rng):
    for _ in range(300):
        mu = rng.randint(1, 3)
        p = random_poly(rng, mu, max_terms=5)
        text = format_poly(p)
        back = parse_poly(text, mu=mu, half_step=p.half_step)
        assert back == p


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=st.sampled_from("t123^*+-0 9x(.") | st.characters(), max_size=30),
       mu=st.integers(1, 3))
def test_parse_fuzz_round_trips_or_is_invalid_input(text, mu):
    # mu is given: an inferred mu is the largest variable index in the text, which may be huge
    try:
        p = parse_poly(text, mu=mu)
    except InvalidInput:
        return
    formatted = format_poly(p)
    assert parse_poly(formatted, mu=mu) == p
    assert format_poly(parse_poly(formatted, mu=mu)) == formatted


def test_power_examples():
    assert P("t - 1") ** 0 == P("1")
    assert P("t - 1") ** 3 == P("t^3 - 3*t^2 + 3*t - 1")
    with pytest.raises(InvalidInput):
        P("t - 1") ** -1


class _One:
    def __index__(self):
        return 1


def test_constructor_refuses_non_integers_and_bad_terms():
    for make in (lambda: LaurentPoly(1, {(1.5,): 1}),
                 lambda: LaurentPoly(1, {(0,): 2.7}),
                 lambda: LaurentPoly(2, {(1, Fraction(2)): 1}),
                 lambda: LaurentPoly(1, {("3",): 1}),
                 lambda: LaurentPoly(1, {(0,): 0.0}),
                 lambda: LaurentPoly.monomial([0.5], 3),
                 lambda: LaurentPoly.const(2.5, 2),
                 lambda: LaurentPoly(0, {}),
                 lambda: LaurentPoly(2, {(1,): 1}),
                 lambda: LaurentPoly(1, {(1,): 1, (_One(),): 2})):
        with pytest.raises(InvalidInput) as info:
            make()
        assert "\n" not in str(info.value)
    p = LaurentPoly(2, {(np.int64(1), np.int32(-2)): np.int64(3), (True, 0): np.int8(-1), (0, 0): 0})
    assert list(p.terms.items()) == [((1, -2), 3), ((1, 0), -1)]
    assert all(type(x) is int for mono, c in p.terms.items() for x in (*mono, c))


def _reference(mu, pairs, half_step):
    """The pop-on-zero sum of pairs, through the validating constructor."""
    out = {}
    for mono, c in pairs:
        s = out.get(mono, 0) + c
        if s == 0:
            out.pop(mono, None)
        else:
            out[mono] = s
    return LaurentPoly(mu, out, half_step)


def _ref_mul(a, b):
    return _reference(a.mu, ((tuple(x + y for x, y in zip(ma, mb)), ca * cb)
                             for ma, ca in a.terms.items() for mb, cb in b.terms.items()), a.half_step)


def _ref_add(a, b):
    return _reference(a.mu, [*a.terms.items(), *b.terms.items()], a.half_step)


def _ref_scale(a, mono, k=1):
    return _reference(a.mu, ((tuple(x + y for x, y in zip(m, mono)), k * c) for m, c in a.terms.items()),
                      a.half_step)


def _ref_pow(a, n):
    result, base = LaurentPoly.const(1, a.mu, a.half_step), a
    while n:
        if n & 1:
            result = _ref_mul(result, base)
        base = _ref_mul(base, base)
        n >>= 1
    return result


def _ref_shift(a):
    shift = tuple(min(m[i] for m in a.terms) for i in range(a.mu))
    return _ref_scale(a, tuple(-s for s in shift)), shift


def _ref_normalize(a):
    if a.is_zero():
        return a
    q, _ = _ref_shift(a)
    return q if q.terms[min(q.terms)] > 0 else _ref_scale(q, (0,) * a.mu, -1)


def _ref_div(a, b):
    if a.is_zero():
        return a
    pa, sa = _ref_shift(a)
    pb, sb = _ref_shift(b)
    lead_b = max(pb.terms)
    quotient, rem = [], pa
    while rem.terms:
        lead_r = max(rem.terms)
        diff = tuple(r - s for r, s in zip(lead_r, lead_b))
        qc = rem.terms[lead_r] // pb.terms[lead_b]
        quotient.append((diff, qc))
        rem = _ref_add(rem, _ref_scale(pb, diff, -qc))
    return _ref_scale(_reference(a.mu, quotient, a.half_step), tuple(x - y for x, y in zip(sa, sb)))


def _ref_view(a, k):
    view = {}
    for m, c in a.terms.items():
        view.setdefault(m[k], []).append((tuple(0 if i == k else e for i, e in enumerate(m)), c))
    return {d: _reference(a.mu, pairs, a.half_step) for d, pairs in view.items()}


def _assert_same_terms(result, reference):
    for mono, c in result.terms.items():
        assert type(mono) is tuple and len(mono) == result.mu
        assert all(type(e) is int for e in mono) and type(c) is int and c != 0
    assert (result.mu, result.half_step) == (reference.mu, reference.half_step)
    assert list(result.terms.items()) == list(reference.terms.items())


@pytest.mark.parametrize("half_step", [False, True])
@pytest.mark.parametrize("mu", [1, 2, 3, 4])
def test_ring_results_keep_the_invariant_and_term_order(rng, mu, half_step):
    """Every ring result has int monomials of length mu and no zero
    coefficient, with the terms in the order the validating constructor
    gives to the pop-on-zero sum of the operation's term pairs."""
    for _ in range(40):
        # small ranges make running sums cancel and monomials re-enter
        ranges = {"exp_range": rng.choice([(-1, 1), (-3, 3)]), "coeff_range": rng.choice([(-2, 2), (-9, 9)])}
        a = random_poly(rng, mu, max_terms=5, half_step=half_step, **ranges)
        b = random_poly(rng, mu, max_terms=5, half_step=half_step, **ranges)
        c = random_poly(rng, mu, max_terms=3, half_step=half_step, nonzero=True, **ranges)
        k = rng.randint(-3, 3)
        n = rng.randint(0, 3)
        neg_b = _reference(mu, ((m, -x) for m, x in b.terms.items()), half_step)
        cases = [
            (a + b, _ref_add(a, b)),
            (a - b, _ref_add(a, neg_b)),
            (-b, neg_b),
            (a * k, _ref_scale(a, (0,) * mu, k)),
            (a * b, _ref_mul(a, b)),
            (a ** n, _ref_pow(a, n)),
            (unit_normalize(a), _ref_normalize(a)),
            (_monomial_shift(c)[0], _ref_shift(c)[0]),
            (exact_div(a * c, c), _ref_div(_ref_mul(a, c), c)),
            (substitute_diagonal(a), _reference(1, (((sum(m),), x) for m, x in a.terms.items()), half_step)),
            (conj_involution(a), _reference(mu, ((tuple(-e for e in m), x) for m, x in a.terms.items()), half_step)),
            (parse_poly(format_poly(a), mu=mu, half_step=half_step),
             _reference(mu, ((m, a.terms[m]) for m in sorted(a.terms, reverse=True)), half_step)),
        ]
        if not half_step:
            cases.append((to_half_step(a), _reference(mu, ((tuple(2 * e for e in m), x) for m, x in a.terms.items()), True)))
        var = rng.randrange(mu)
        view, ref_view = _univariate_view(c, var), _ref_view(c, var)
        assert list(view) == list(ref_view)
        cases += [(view[d], ref_view[d]) for d in view]
        deg, lead = _leading_in(c, var)
        assert deg == max(ref_view)
        cases.append((lead, ref_view[deg]))
        shift = rng.randint(-2, 2)
        cases.append((_shift_in(c, var, shift), _ref_scale(c, tuple(shift if i == var else 0 for i in range(mu)))))
        for result, reference in cases:
            _assert_same_terms(result, reference)
