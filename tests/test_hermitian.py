"""Inertia engine and solver: frozen examples, property suites, oracles."""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from linksig.errors import EigensolverFailure, InvalidInput, NonSquare, NotHermitian
from linksig.hermitian import (
    MAX_TAU,
    InertiaResult,
    NonUnique,
    NoSolution,
    Solution,
    eigenvalues,
    exact_symmetric_inertia,
    in_uncertain_band,
    inertia,
    inertia_many,
    solve,
    solve_many,
)

from conftest import random_hermitian


def test_inertia_examples():
    assert inertia(np.array([[0, 64], [64, 0]], dtype=complex)).pair == (0, 0)
    assert inertia(np.array([[-4.0]])).pair == (-1, 0)
    r = inertia(np.zeros((2, 2)))
    assert r.pair == (0, 2) and r.certified
    r0 = inertia(np.zeros((0, 0)))
    assert r0.pair == (0, 0) and r0.certified


def test_inertia_rejects_bad_input():
    with pytest.raises(NonSquare):
        inertia(np.zeros((2, 3)))
    with pytest.raises(NotHermitian):
        inertia(np.array([[0, 1], [2, 0]], dtype=complex))


def test_certified_band():
    # an eigenvalue sitting inside the uncertain band flips the flag
    m = np.diag([1.0, 5e-9])
    r = inertia(m, tau=1e-9)
    assert not r.certified
    ok = inertia(np.diag([1.0, 1e-3]), tau=1e-9)
    assert ok.certified and ok.pair == (2, 0)


def test_external_scale_controls_classification():
    # a cancellation residue must read as zero relative to the data scale
    m = np.array([[3e-17]])
    assert inertia(m).pair in ((1, 0), (-1, 0))  # matrix-norm scaling cannot know
    r = inertia(m, scale=4.0)
    assert r.pair == (0, 1) and r.certified


def test_hermitian_defect_measured_against_scale():
    # a form that cancels to rounding residue: its asymmetry is of the order
    # of its entries, but negligible against the structural scale
    m = np.array([[1e-17, 2e-17 + 1e-17j, 0],
                  [3e-17, -1e-17, 1e-17j],
                  [0, -2e-17j, 2e-17]])
    with pytest.raises(NotHermitian):
        inertia(m)
    r = inertia(m, scale=10.0)
    assert r.pair == (0, 3) and r.certified
    sig, null, cert, ok, _ = inertia_many(m[None], np.array([10.0]))
    assert (sig[0], null[0], cert[0], ok[0]) == (0, 3, True, True)


# Two congruence blocks from the randomized property suite (diagonals
# [-3, 1, 5, -2, 5] and [2, 5, 4]).  Cyclic Jacobi rotations met a subnormal
# off-diagonal pivot on their direct sum, overflowed and never converged.
_SUBNORMAL_PIVOT_BLOCKS = (
    [
        [(27.86108925483014-1.6930901125533637e-15j), (21.416455368158008-5.506590682847579j), (-22.540406189549323-25.40447957007674j), (-30.07998764926291-24.320847862379793j), (22.32369747530917+23.75756357632479j)],
        [(21.416455368158008+5.506590682847577j), (24.869938689181282+0j), (0.37339134639482907-30.1949824359518j), (11.37492625307824-37.674159878273095j), (-1.2483596492283657+24.271741641756428j)],
        [(-22.54040618954933+25.40447957007674j), (0.37339134639482907+30.194982435951797j), (25.820690791325273+0j), (54.55654323293029+5.56947677095981j), (-31.160049757822126-1.927914520377332j)],
        [(-30.07998764926291+24.320847862379793j), (11.374926253078241+37.674159878273095j), (54.55654323293028-5.569476770959811j), (41.15205437617922+0j), (-21.754699055702755-27.118179945002268j)],
        [(22.32369747530917-23.75756357632479j), (-1.248359649228366-24.271741641756424j), (-31.160049757822122+1.92791452037733j), (-21.75469905570276+27.118179945002268j), (19.201751386081657+4.318770979427454e-16j)],
    ],
    [
        [(62.49610429357838+2.31163953201964e-18j), (-7.901339330208316+44.022771348583156j), (-20.77207889852068+22.345763111128644j)],
        [(-7.901339330208316-44.022771348583156j), (37.703613259489096-1.6937126935252703e-16j), (18.871989252342004+10.723628808500425j)],
        [(-20.77207889852068-22.345763111128647j), (18.871989252342004-10.723628808500425j), (16.62432990827656+1.6105961386560734e-16j)],
    ],
)


def test_subnormal_pivot_block_diagonal():
    a, b = (np.array(block) for block in _SUBNORMAL_PIVOT_BLOCKS)
    m = np.zeros((8, 8), dtype=complex)
    m[:5, :5] = a
    m[5:, 5:] = b
    r = inertia(m)
    assert r.certified
    assert r.pair == (4, 0)


def test_inertia_rejects_nonfinite(monkeypatch):
    with pytest.raises(EigensolverFailure):
        inertia(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(EigensolverFailure):
        inertia(np.array([[np.inf]]))
    with pytest.raises(EigensolverFailure):
        inertia(np.eye(2), scale=float("inf"))

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(EigensolverFailure):
        inertia(np.eye(3))  # forms up to 2x2 are solved in closed form, without LAPACK


def test_inertia_many_matches_inertia(nprng):
    for n in (0, 1, 3, 7):
        h = np.array([random_hermitian(nprng, n) for _ in range(12)]).reshape(12, n, n)
        h[3] = np.diag(np.arange(n) - 1.0)  # a degenerate form
        scale = np.abs(h).max(axis=(1, 2), initial=0.0) * nprng.uniform(1, 4, 12)
        sig, null, cert, ok, _ = inertia_many(h, scale)
        assert ok.all()
        for k in range(12):
            r = inertia(h[k], scale=float(scale[k]))
            assert (sig[k], null[k], cert[k]) == (r.signature, r.nullity, r.certified)
    h = np.array([np.eye(2), [[np.nan, 0], [0, 1]], np.eye(2)], dtype=complex)
    _, _, _, ok, _ = inertia_many(h, np.array([1.0, 1.0, np.inf]))
    assert ok.tolist() == [True, False, False]
    with pytest.raises(NotHermitian):  # inertia_many takes Hermitian stacks; inertia checks one matrix
        inertia(np.array([[0, 1], [2, 0]]), scale=2.0)


def _eigvalsh_inertia(h, scale, tau):
    """(signature, nullity, certified, ok) from LAPACK's eigenvalues of every
    finite form: the classification inertia_many makes, without its closed form."""
    ok = np.isfinite(h + h).all(axis=(1, 2)) & np.isfinite(scale)
    eig = np.zeros(h.shape[:2])
    eig[ok] = np.linalg.eigvalsh(h[ok])
    cut = tau * scale[:, None]
    n_pos, n_neg = (eig > cut).sum(axis=1), (eig < -cut).sum(axis=1)
    return n_pos - n_neg, h.shape[1] - n_pos - n_neg, ~in_uncertain_band(np.abs(eig), cut).any(axis=1), ok


def _exact_eigenvalues(form) -> list[Decimal]:
    """The eigenvalues m -+ sqrt(((a - c) / 2)^2 + |b|^2) of a 2x2 Hermitian
    form (lower triangle), from its float entries in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, c = Decimal(form[0, 0].real), Decimal(form[1, 1].real)
        b2 = Decimal(form[1, 0].real) ** 2 + Decimal(form[1, 0].imag) ** 2
        m, r = (a + c) / 2, (((a - c) / 2) ** 2 + b2).sqrt()
        return [m - r, m + r]


def _random_2x2_forms(nprng, count):
    """Hermitian 2x2 forms with entries of magnitude 1e-200 to 1e200, either
    sign: independent magnitudes, one magnitude per form (where eigenvalues
    can cancel), and singular, zero and scalar forms among them."""
    def signed(size):
        return 10.0 ** nprng.uniform(-200, 200, size) * nprng.choice((-1.0, 1.0), size)

    a, c, x, y = (signed(count) for _ in range(4))
    y[::2] = 0  # real off-diagonals
    same = 10.0 ** nprng.uniform(-200, 200, count)
    for entry in (a, c, x, y):
        entry[::3] = same[::3] * nprng.uniform(-1, 1, len(same[::3]))
    h = np.moveaxis(np.array([[a + 0j, x - 1j * y], [x + 1j * y, c + 0j]]), 2, 0)
    # rank one: s v v^H, |v_i| from 1e-100 to 1e100
    v = np.sqrt(np.abs(signed((count, 2)))) * np.exp(2j * np.pi * nprng.uniform(0, 1, (count, 2)))
    rank_one = np.sign(signed(count))[:, None, None] * v[:, :, None] * v[:, None, :].conj()
    h[1::7] = rank_one[1::7]
    h[2::11] = 0
    h[3::13] = same[3::13, None, None] * np.eye(2) * np.sign(signed(len(h[3::13])))[:, None, None]
    return h


def _near_band_forms(nprng, tau):
    """Forms U diag(s u, s r) U^H with scale s, 0.3 <= |u| <= 0.9 and |r| a
    factor 1.01 from tau / 16, tau or 16 tau: an eigenvalue next to the cut
    or a band edge."""
    ratios = np.array([tau * f * o for f in (1 / 16, 1, 16) for o in (1 / 1.01, 1.01)] * 50)
    count = len(ratios)
    s = 10.0 ** nprng.uniform(-200, 200, count)
    one = s * nprng.uniform(0.3, 0.9, count) * nprng.choice((-1.0, 1.0), count)
    two = s * ratios * nprng.choice((-1.0, 1.0), count)
    theta, phi = nprng.uniform(0, np.pi, count), nprng.uniform(0, 2 * np.pi, count)
    cos, sin = np.cos(theta), np.sin(theta) * np.exp(1j * phi)
    h = np.moveaxis(np.array([[one * cos**2 + two * abs(sin)**2, (one - two) * cos * sin.conj()],
                              [(one - two) * cos * sin, one * abs(sin)**2 + two * cos**2]]), 2, 0)
    return h, s


def test_closed_form_2x2_eigenvalues_are_within_the_bound(nprng):
    h = _random_2x2_forms(nprng, 3000)
    eig = eigenvalues(h)
    bound = 8 * np.finfo(float).eps * np.abs(h).max(axis=(1, 2))
    for form, pair, limit in zip(h, eig, bound):
        assert pair[0] <= pair[1]
        for value, exact in zip(pair.tolist(), _exact_eigenvalues(form)):
            assert abs(Decimal(value) - exact) <= Decimal(limit), (form, pair)
    assert np.array_equal(eigenvalues(h.conj()), eig)  # conjugate forms, identical eigenvalues
    assert eigenvalues(np.array([[[8e300, 0], [0, 8]]], dtype=complex)).tolist() == [[8, 8e300]]


def test_closed_form_2x2_classifies_as_eigvalsh(nprng):
    h = _random_2x2_forms(nprng, 3000)
    entry = np.abs(h).max(axis=(1, 2))
    big = np.abs(np.linalg.eigvalsh(h)).max(axis=1)
    for tau in (1e-9, MAX_TAU):
        # random scales, and scales that put the larger eigenvalue a factor 1.01 from the cut or a band edge
        cases = [(h, entry * nprng.uniform(1, 4, len(h)))]
        cases += [(h, big / (tau * f * o)) for f in (1 / 16, 1, 16) for o in (1 / 1.01, 1.01)]
        cases.append(_near_band_forms(nprng, tau))
        for forms, scale in cases:
            sig, null, cert, ok, _ = inertia_many(forms, scale, tau)
            assert ok.all()
            assert [x.tolist() for x in (sig, null, cert, ok)] == [x.tolist() for x in _eigvalsh_inertia(forms, scale, tau)]
        assert not _eigvalsh_inertia(*cases[-1], tau)[2].all()  # the near-band forms reach the band
    # a form that overflows when doubled, a non-finite scale, and the finite forms around them
    forms = np.array([[[1e308, 0], [0, 1]], np.eye(2), [[1, 1e308], [1e308, 1]], np.eye(2)], dtype=complex)
    ok = inertia_many(forms, np.array([1e308, np.inf, 1e308, 1.0]))[3]
    assert ok.tolist() == [False, False, False, True]


def test_closed_form_certifies_an_eigenvalue_on_the_band_edge():
    # the exact eigenvalue 8e300 equals the scale, the top of the band at
    # MAX_TAU, which is open: certified (LAPACK's rescaling of a matrix this
    # large can return it one unit in the last place low, inside the band)
    sig, null, cert, ok, min_gap = inertia_many(np.array([[[8e300, 0], [0, 8]]], dtype=complex),
                                                np.array([8e300]), MAX_TAU)
    assert (sig.tolist(), null.tolist(), cert.tolist(), ok.tolist(), min_gap.tolist()) == ([1], [1], [True], [True], [1.0])


@pytest.mark.parametrize("x", [8e300, 8e-300])
def test_eigvalsh_certifies_an_eigenvalue_on_the_band_edge_at_either_end(x):
    # the same edge through eigvalsh, beyond 2^+-485 where LAPACK rescales
    # inexactly: eigenvalues pre-scales the form by a power of two instead
    h = np.diag([x, x * 2.0**-30, x * 2.0**-40]).astype(complex)[None]
    sig, null, cert, ok, min_gap = inertia_many(h, np.array([x]), MAX_TAU)
    assert (sig.tolist(), null.tolist(), cert.tolist(), ok.tolist(), min_gap.tolist()) == ([1], [2], [True], [True], [1.0])
    assert inertia(h[0], MAX_TAU, x) == InertiaResult(1, 2, True, 1.0)


def test_eigenvalues_rescale_only_the_forms_beyond_lapacks_range(nprng):
    h = np.array([random_hermitian(nprng, 3) for _ in range(6)])
    plain = np.linalg.eigvalsh(h)
    assert np.array_equal(eigenvalues(h), plain)  # every form in range: eigvalsh's, bit for bit
    far = h.copy()
    far[1] *= 2.0**600
    far[4] *= 2.0**-600
    eig = eigenvalues(far)
    assert np.array_equal(eig[[0, 2, 3, 5]], plain[[0, 2, 3, 5]])
    assert np.array_equal(eig[1], plain[1] * 2.0**600) and np.array_equal(eig[4], plain[4] * 2.0**-600)


def test_inertia_many_reports_the_smallest_margin():
    h = np.array([np.diag([2.0, -0.5, 0.0]), np.zeros((3, 3)), np.diag([1.0, 1.0, 1.0]), np.diag([3.0, 0, 0])])
    sig, null, cert, ok, min_gap = inertia_many(h, np.array([4.0, 1.0, 0.0, 2.0]))
    assert ok.all() and cert.all()
    assert (sig.tolist(), null.tolist()) == ([0, 0, 3, 1], [1, 3, 0, 2])
    assert min_gap.tolist() == [0.125, np.inf, np.inf, 1.5]
    for k in range(len(h)):
        scale = [4.0, 1.0, 0.0, 2.0][k]
        assert inertia(h[k], scale=scale).min_gap == min_gap[k]
    assert inertia(np.zeros((0, 0))).min_gap == np.inf


def _random_inertia_instance(nprng, n):
    """A Hermitian matrix with known inertia: congruence of an integer diagonal."""
    diag = nprng.integers(-5, 6, n)
    while True:
        p = nprng.uniform(-2, 2, (n, n)) + 1j * nprng.uniform(-2, 2, (n, n))
        if np.linalg.cond(p) < 50:
            break
    m = p.conj().T @ np.diag(diag).astype(complex) @ p
    sig = int(np.sum(diag > 0) - np.sum(diag < 0))
    null = int(np.sum(diag == 0))
    return m, sig, null


def test_congruence_invariance(nprng):
    for _ in range(200):
        n = int(nprng.integers(1, 13))
        m, sig, null = _random_inertia_instance(nprng, n)
        r = inertia(m)
        assert r.certified
        assert r.pair == (sig, null)


def test_congruence_of_arbitrary_hermitian(nprng):
    # inertia(P* M P) == inertia(M) for random M and bounded-condition P,
    # compared only when both classifications are certified
    for _ in range(200):
        n = int(nprng.integers(1, 13))
        m = random_hermitian(nprng, n)
        while True:
            p = nprng.uniform(-2, 2, (n, n)) + 1j * nprng.uniform(-2, 2, (n, n))
            if np.linalg.cond(p) < 50:
                break
        r = inertia(m)
        rc = inertia(p.conj().T @ m @ p)
        if r.certified and rc.certified:
            assert rc.pair == r.pair


def test_direct_sum_additivity(nprng):
    for _ in range(100):
        na, nb = int(nprng.integers(1, 7)), int(nprng.integers(1, 7))
        ma, sa, za = _random_inertia_instance(nprng, na)
        mb, sb, zb = _random_inertia_instance(nprng, nb)
        m = np.zeros((na + nb, na + nb), dtype=complex)
        m[:na, :na] = ma
        m[na:, na:] = mb
        r = inertia(m)
        assert r.pair == (sa + sb, za + zb)


def test_negation(nprng):
    for _ in range(100):
        n = int(nprng.integers(1, 9))
        m, _, _ = _random_inertia_instance(nprng, n)
        r = inertia(m)
        rn = inertia(-m)
        assert rn.signature == -r.signature
        assert rn.nullity == r.nullity


def test_diagonal_exactness(nprng):
    for _ in range(100):
        n = int(nprng.integers(1, 10))
        d = nprng.integers(-8, 9, n)
        d[np.abs(d) < 1] = 0
        r = inertia(np.diag(d).astype(complex))
        assert r.pair == (int(np.sum(d > 0) - np.sum(d < 0)), int(np.sum(d == 0)))


def test_solve_examples():
    n = 4
    assert isinstance(solve(np.eye(2), np.array([3.0, -1j])), Solution)
    s = solve(np.eye(2), np.array([3.0, -1j]))
    assert np.allclose(s.alpha, [3.0, -1j])
    assert isinstance(solve(np.zeros((2, 2)), np.array([1.0, 0.0])), NoSolution)
    res = solve(np.zeros((2, 2)), np.zeros(2))
    assert isinstance(res, NonUnique) and res.kernel_basis.shape == (2, 2)
    assert solve(np.zeros((0, 0)), np.zeros(0)).alpha.shape == (0,)


def test_solve_dimension_mismatch():
    with pytest.raises(InvalidInput):
        solve(np.eye(2), np.zeros(3))
    with pytest.raises(NonSquare):
        solve(np.zeros((2, 3)), np.zeros(2))


def test_solve_residual_property(nprng):
    for _ in range(200):
        n = int(nprng.integers(1, 9))
        m = nprng.uniform(-3, 3, (n, n)) + 1j * nprng.uniform(-3, 3, (n, n))
        b = nprng.uniform(-3, 3, n) + 1j * nprng.uniform(-3, 3, n)
        res = solve(m, b)
        if isinstance(res, (Solution, NonUnique)):
            alpha = res.alpha
            lhs = np.linalg.norm(m @ alpha - b)
            assert lhs <= 1e-8 * (np.linalg.norm(m) * np.linalg.norm(alpha) + np.linalg.norm(b))


def test_solve_rank_deficient_consistent(nprng):
    for _ in range(100):
        n = int(nprng.integers(2, 7))
        r = int(nprng.integers(1, n))
        basis = nprng.uniform(-2, 2, (n, r)) + 1j * nprng.uniform(-2, 2, (n, r))
        m = basis @ (nprng.uniform(-2, 2, (r, n)) + 1j * nprng.uniform(-2, 2, (r, n)))
        b = m @ (nprng.uniform(-1, 1, n) + 0j)
        res = solve(m, b)
        assert isinstance(res, NonUnique)
        assert np.linalg.norm(m @ res.alpha - b) <= 1e-7 * max(1.0, np.linalg.norm(m) * np.linalg.norm(res.alpha))
        # kernel basis vectors are genuine kernel elements
        for f in range(res.kernel_basis.shape[1]):
            v = res.kernel_basis[:, f]
            assert np.linalg.norm(m @ v) <= 1e-7 * max(1.0, np.linalg.norm(m))


def _rank_deficient_system(nprng, n, r):
    left = nprng.uniform(-2, 2, (n, r)) + 1j * nprng.uniform(-2, 2, (n, r))
    return left @ (nprng.uniform(-2, 2, (r, n)) + 1j * nprng.uniform(-2, 2, (r, n)))


def test_solve_kernel_basis_is_orthonormal(nprng):
    for _ in range(300):
        n = int(nprng.integers(3, 7))
        r = int(nprng.integers(1, n))
        m = _rank_deficient_system(nprng, n, r)
        res = solve(m, m @ (nprng.uniform(-1, 1, n) + 1j * nprng.uniform(-1, 1, n)))
        assert isinstance(res, NonUnique)
        k = res.kernel_basis
        assert k.shape == (n, n - r)
        assert np.max(np.abs(k.conj().T @ k - np.eye(n - r))) <= 1e-12


def test_solve_rhs_outside_the_range(nprng):
    for _ in range(100):
        n = int(nprng.integers(2, 7))
        r = int(nprng.integers(1, n))
        m = _rank_deficient_system(nprng, n, r)
        u = np.linalg.svd(m)[0]
        b = m @ (nprng.uniform(-1, 1, n) + 0j) + u[:, r]  # a left singular vector beyond the rank
        assert isinstance(solve(m, b), NoSolution)


def test_solve_tolerance_edge():
    # 1e-12 lies below the cut tau * max|m_ij| = 1e-9, so the rank is 1
    m = np.diag([1.0, 1e-12])
    res = solve(m, np.array([1.0, 0.0]))
    assert isinstance(res, NonUnique)
    assert np.allclose(res.alpha, [1.0, 0.0]) and np.allclose(np.abs(res.kernel_basis), [[0.0], [1.0]])
    assert isinstance(solve(m, np.array([1.0, 1.0])), NoSolution)


def test_solve_rejects_nonfinite(monkeypatch):
    for m, b in ((np.array([[np.nan]]), np.ones(1)),
                 (np.array([[1.0, np.inf], [0.0, 1.0]]), np.ones(2)),
                 (np.eye(2), np.array([1.0, np.inf])),
                 (np.eye(2), np.array([np.nan, 0.0]))):
        with pytest.raises(EigensolverFailure):
            solve(m, b)

    def fail(_):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(EigensolverFailure):
        solve(np.eye(2), np.ones(2))


def _same_result(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, NoSolution):
        return True
    if isinstance(a, NonUnique) and not np.array_equal(a.kernel_basis, b.kernel_basis):
        return False
    return np.array_equal(a.alpha, b.alpha)


def test_solve_many_matches_solve_row_by_row(nprng):
    kinds = set()
    for n in range(1, 6):
        m, b = [], []
        for _ in range(40):
            r = int(nprng.integers(0, n + 1))
            a = _rank_deficient_system(nprng, n, r)
            x = nprng.uniform(-1, 1, n) + 1j * nprng.uniform(-1, 1, n)
            m.append(a)
            b.append(a @ x if nprng.random() < 0.6 else x)  # in the range, or most likely outside
        m, b = np.array(m).reshape(40, n, n), np.array(b).reshape(40, n)
        sols = solve_many(m, b)
        assert sols.ok.all()
        for i in range(40):
            expected = solve(m[i], b[i])
            assert _same_result(sols.result(i), expected), (n, i)
            kinds.add(type(expected).__name__)
        # non-finite rows are marked and leave the others as they were
        m[3, 0, 0] = np.nan
        b[7, 0] = np.inf
        marked = solve_many(m, b)
        assert np.flatnonzero(~marked.ok).tolist() == [3, 7]
        assert all(_same_result(marked.result(i), sols.result(i)) for i in range(40) if i not in (3, 7))
    assert kinds == {"Solution", "NoSolution", "NonUnique"}
    empty = solve_many(np.zeros((2, 0, 0)), np.zeros((2, 0)))
    assert all(_same_result(empty.result(i), solve(np.zeros((0, 0)), np.zeros(0))) for i in range(2))


def test_solve_many_marks_every_row_when_the_svd_fails(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert not solve_many(np.array([np.eye(2), np.eye(2)]), np.ones((2, 2))).ok.any()


def test_inertia_rejects_overflowing_symmetrisation():
    # every entry is finite, but (a + a^H) / 2 overflows
    m = np.array([[1.5e308, 1.0], [1.0, 1.0]])
    with pytest.raises(EigensolverFailure):
        inertia(m)
    _, _, _, ok, _ = inertia_many(np.array([m, np.eye(2)], dtype=complex), np.array([1.5e308, 1.0]))
    assert ok.tolist() == [False, True]


def test_exact_symmetric_inertia_cases():
    assert exact_symmetric_inertia([[-1, 1], [1, -1]]) == (-1, 1)
    assert exact_symmetric_inertia([[0, 1], [1, 0]]) == (0, 0)
    assert exact_symmetric_inertia([[0, 0], [0, 0]]) == (0, 2)
    assert exact_symmetric_inertia([[0]]) == (0, 1)
    assert exact_symmetric_inertia([]) == (0, 0)
    assert exact_symmetric_inertia([[2]]) == (1, 0)


def test_exact_symmetric_inertia_random(nprng):
    for _ in range(150):
        n = int(nprng.integers(1, 7))
        d = nprng.integers(-4, 5, n)
        p = nprng.integers(-2, 3, (n, n))
        while abs(np.linalg.det(p)) < 0.5:
            p = nprng.integers(-2, 3, (n, n))
        m = p.T @ np.diag(d) @ p
        sig, null = exact_symmetric_inertia(m.tolist())
        assert sig == int(np.sum(d > 0) - np.sum(d < 0))
        assert null == int(np.sum(d == 0))
