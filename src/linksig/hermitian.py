"""Certified inertia of dense Hermitian matrices and a tolerance-aware solver.

Signature and nullity come from LAPACK's Hermitian eigenvalue routine
(np.linalg.eigvalsh), a stack of forms at a time in inertia_many; inertia is
inertia_many on a stack of one, with the input checks of a single matrix.
Classification is relative to a scale: by default the largest absolute entry
of the matrix, but callers that know the structural magnitude of their data
(e.g. a form assembled from integer matrices and roots of unity) may pass it
explicitly so that an exact zero produced by cancellation is not mistaken for
a matrix-sized eigenvalue.

Why eigvalsh is accurate enough: an eigenvalue counts as zero when
|lambda| <= cut = tau * scale (tau = 1e-9 by default), and the split is
certified only when no eigenvalue lies within a factor UNCERTAIN_BAND of the
cut (in_uncertain_band, which the elementary-ideal strata use as well).
LAPACK's eigenvalues are backward stable, with absolute errors of order
n * eps * ||H|| (eps ~ 2.2e-16).  The scale bounds every entry, so
||H|| <= n * scale and the error stays below cut / UNCERTAIN_BAND for n up to
several hundred.  The relative accuracy of Jacobi rotations on small
eigenvalues (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992) would
matter only below the cut, where every eigenvalue already counts as zero.
Each form's certification margin, min_gap, is the smallest |lambda| / scale
among the eigenvalues called nonzero.

What certified promises: the split into positive, negative and zero
eigenvalues relative to the cut is that of the exact eigenvalues of the form
as given, because each computed eigenvalue lies at least a factor
UNCERTAIN_BAND from the cut and LAPACK's error stays below cut /
UNCERTAIN_BAND.  That needs tau well above n^2 * eps; the default 1e-9 has a
wide margin.  It does not promise that an exact eigenvalue below the cut is
zero, so a cut above the form's smallest nonzero eigenvalue certifies a
wrong signature: once tau * scale exceeds every eigenvalue, every form is
certified as (0, n).  MAX_TAU = 1 / UNCERTAIN_BAND keeps the top of the band
at or below the scale, so an eigenvalue as large as the scale always counts
as nonzero; on the catalog links at grids 5, 7 and 12, every row certified
both at tau = 1e-9 and at tau = MAX_TAU has the same signature and nullity
at both.  The command line refuses a larger tau; the functions here accept
any positive tau.

solve_many reads the rank of each system of a stack from one stacked LAPACK
singular value decomposition (np.linalg.svd), with the same relative cut:
singular values above tau times the largest entry count.  It gives the
least-norm particular solution and, for a rank-deficient system, an
orthonormal basis of the numerical kernel; non-finite rows are marked, as
in inertia_many.  solve is solve_many on a stack of one, so the arithmetic
exists once: a non-finite system or a failed SVD raises EigensolverFailure,
as in inertia.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EigensolverFailure, InvalidInput, NonSquare, NotHermitian

DEFAULT_TAU = 1e-9
UNCERTAIN_BAND = 16.0
MAX_TAU = 1 / UNCERTAIN_BAND  # the largest tau for which certified holds its promise (see above)
_HERMITIAN_REL = 1e-9


@dataclass(frozen=True)
class InertiaResult:
    """Signature n+ - n-, nullity n0, and the certification of the split."""

    signature: int
    nullity: int
    certified: bool
    min_gap: float  # smallest |eigenvalue|/scale among those called nonzero

    @property
    def pair(self) -> tuple[int, int]:
        return (self.signature, self.nullity)


def in_uncertain_band(value, cut):
    """Whether each magnitude lies strictly within a factor UNCERTAIN_BAND of
    its cut, where calling it zero or nonzero cannot be trusted."""
    return (value > cut / UNCERTAIN_BAND) & (value < cut * UNCERTAIN_BAND)


def inertia(m: np.ndarray, tau: float = DEFAULT_TAU, scale: float | None = None) -> InertiaResult:
    """Certified signature and nullity of a Hermitian matrix: inertia_many on
    a stack of one.

    The scale defaults to the largest absolute entry.  A matrix or scale that
    is not finite, a symmetrised form that overflows, or an eigensolver
    failure raises EigensolverFailure; a Hermitian defect beyond the
    tolerance raises NotHermitian.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not np.all(np.isfinite(a)):
        raise EigensolverFailure(f"a {n}x{n} matrix has non-finite entries")
    entry_scale = float(np.abs(a).max(initial=0.0))
    if scale is None:
        scale = entry_scale
    if scale < 0:
        raise InvalidInput("scale must be nonnegative")
    if not math.isfinite(scale):
        raise EigensolverFailure(f"scale {scale} is not finite")
    signature, nullity, certified, ok, min_gap = inertia_many(a[None], np.array([scale], dtype=np.float64), tau)
    if not ok[0]:
        reference = max(entry_scale, scale)
        with np.errstate(over="ignore"):
            herm_defect = float(np.abs(a - a.conj().T).max(initial=0.0))
        if herm_defect > _HERMITIAN_REL * reference:
            raise NotHermitian(f"asymmetry {herm_defect:.3e} exceeds {_HERMITIAN_REL:.0e} * {reference:.3e}")
        raise EigensolverFailure(f"eigvalsh failed or the symmetrised {n}x{n} form is not finite")
    return InertiaResult(int(signature[0]), int(nullity[0]), bool(certified[0]), float(min_gap[0]))


def inertia_many(h: np.ndarray, scale: np.ndarray, tau: float = DEFAULT_TAU
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Signature, nullity and certification of a (P, n, n) stack of forms,
    one scale per form.

    Eigenvalues with |lambda| > cut = tau * scale count into the signature,
    the rest into the nullity; a row is uncertified when an eigenvalue lies
    in the uncertain band around its cut.  The Hermitian defect is measured
    against the larger of the scale and the largest entry, so a form that
    cancels to rounding residue classifies as zeros.  Returns (signature,
    nullity, certified, ok, min_gap), where min_gap is the smallest
    |lambda| / scale among the eigenvalues called nonzero (inf when there is
    none or the scale is 0).  A row with ok False has a non-finite form,
    symmetrised form or scale, or fails the Hermitian check; its other
    entries are meaningless, and inertia on that form gives its error.
    """
    herm = h.conj().swapaxes(1, 2)
    entry_scale = np.abs(h).max(axis=(1, 2), initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow and inf - inf in forms rejected anyway
        herm_defect = np.abs(h - herm).max(axis=(1, 2), initial=0.0)
        sym = (h + herm) / 2.0
    # a finite symmetrised form has a finite h as well
    ok = (np.isfinite(sym).all(axis=(1, 2)) & np.isfinite(scale)
          & (herm_defect <= _HERMITIAN_REL * np.maximum(entry_scale, scale)))
    eig = np.zeros(h.shape[:2])
    try:
        eig[ok] = np.linalg.eigvalsh(sym[ok])
    except np.linalg.LinAlgError:
        ok[:] = False
    absed = np.abs(eig)
    # rows with ok False or scale 0; a cut or band that overflows is inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cut = tau * scale[:, None]
        n_pos = np.sum(eig > cut, axis=-1)
        n_neg = np.sum(eig < -cut, axis=-1)
        certified = ~np.any(in_uncertain_band(absed, cut), axis=-1)
        smallest = np.where(absed > cut, absed, np.inf).min(axis=-1, initial=np.inf)
        min_gap = np.where(scale > 0, smallest / scale, np.inf)
    return n_pos - n_neg, eig.shape[-1] - n_pos - n_neg, certified, ok, min_gap


# -- linear solving -----------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    alpha: np.ndarray


@dataclass(frozen=True)
class NoSolution:
    pass


@dataclass(frozen=True)
class NonUnique:
    alpha: np.ndarray
    kernel_basis: np.ndarray  # orthonormal columns spanning the numerical kernel


@dataclass(frozen=True)
class Solutions:
    """Row-wise results of solve_many on a (P, n, n) stack of systems.

    A row with ok False has a non-finite system, or the SVD failed; its
    other entries are meaningless, and solve on that row gives its error.
    """

    rank: np.ndarray  # (P,) singular values above tau times the largest entry
    solvable: np.ndarray  # (P,) False where the system has no solution
    alpha: np.ndarray  # (P, n) least-norm solutions of the solvable rows
    vh: np.ndarray  # (P, n, n) right singular vectors; rows rank: span the kernel, conjugated
    ok: np.ndarray  # (P,)

    def result(self, i: int) -> Solution | NoSolution | NonUnique:
        """Row i in the contract of solve."""
        rank = int(self.rank[i])
        if not self.solvable[i]:
            return NoSolution()
        if rank == self.alpha.shape[1]:
            return Solution(self.alpha[i])
        return NonUnique(self.alpha[i], self.vh[i, rank:].conj().T)


def solve_many(m: np.ndarray, b: np.ndarray, tau: float = DEFAULT_TAU) -> Solutions:
    """Solve every system m[i] @ alpha = b[i] of a (P, n, n) stack through one
    stacked singular value decomposition.

    Singular values above tau times the largest entry of m[i] count toward
    its rank.  A row has no solution when the component of b[i] beyond the
    rank, U^H b, exceeds tau times the larger of max|b[i]| and that entry;
    otherwise alpha[i] = V_r diag(1/s_r) U_r^H b[i] is its least-norm
    solution.  Non-finite rows come back with ok False and leave the others
    unaffected; a failed SVD sets ok False on every row.
    """
    count, n = m.shape[:2]
    ok = np.isfinite(m).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    rank = np.zeros(count, dtype=np.intp)
    solvable = np.zeros(count, dtype=bool)
    alpha = np.zeros((count, n), dtype=np.complex128)
    vh = np.zeros((count, n, n), dtype=np.complex128)
    rows = np.flatnonzero(ok)
    try:
        u, s, vh[rows] = np.linalg.svd(m[rows])
    except np.linalg.LinAlgError:
        return Solutions(rank, solvable, alpha, vh, np.zeros(count, dtype=bool))
    a, rhs = m[rows], b[rows]
    with np.errstate(over="ignore", invalid="ignore"):  # hypot overflow in huge finite entries
        scale = np.abs(a).max(axis=(1, 2), initial=0.0)
        rank[rows] = np.sum(s > tau * scale[:, None], axis=1)
        c = (u.conj().swapaxes(1, 2) @ rhs[..., None])[..., 0]
        rhs_scale = np.maximum(np.maximum(np.abs(rhs).max(axis=1, initial=0.0), scale), 1e-300)
        beyond = np.arange(n) >= rank[rows, None]
        solvable[rows] = ~np.any(beyond & (np.abs(c) > tau * rhs_scale[:, None]), axis=1)
        # the least-norm solutions, one product per rank so that each sums its rank terms only
        for r in np.unique(rank[rows]).tolist():
            sel = (rank[rows] == r) & solvable[rows]
            w = (c[sel, :r] / s[sel, :r])[..., None]
            alpha[rows[sel]] = (vh[rows[sel], :r].conj().swapaxes(1, 2) @ w)[..., 0]
    return Solutions(rank, solvable, alpha, vh, ok)


def solve(m: np.ndarray, b: np.ndarray, tau: float = DEFAULT_TAU) -> Solution | NoSolution | NonUnique:
    """Solve m @ alpha = b: solve_many on a stack of one.

    Returns NoSolution when b is outside the numerical range, otherwise the
    least-norm solution, as Solution at full rank or as NonUnique with the
    orthonormal kernel basis V[:, rank:].  A non-finite m or b, or a failed
    SVD, raises EigensolverFailure.
    """
    a = np.asarray(m, dtype=np.complex128)
    rhs = np.asarray(b, dtype=np.complex128).reshape(-1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if rhs.shape[0] != n:
        raise InvalidInput(f"rhs length {rhs.shape[0]} != dimension {n}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(rhs))):
        raise EigensolverFailure(f"a {n}x{n} system has non-finite entries")
    solutions = solve_many(a[None], rhs[None], tau)
    if not solutions.ok[0]:
        raise EigensolverFailure(f"svd failed on a {n}x{n} matrix")
    return solutions.result(0)


# -- exact integer/rational inertia -------------------------------------------


def exact_symmetric_inertia(rows) -> tuple[int, int]:
    """(signature, nullity) of a symmetric rational matrix, computed exactly.

    Symmetric Gaussian elimination over Fraction: a nonzero diagonal pivot
    contributes its sign; a zero diagonal with a nonzero off-diagonal entry
    forms a hyperbolic pair contributing (+1, -1).
    """
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    for row in m:
        if len(row) != n:
            raise NonSquare("expected a square matrix")
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise NotHermitian("matrix is not symmetric")
    active = list(range(n))
    signature = 0
    nullity = 0
    while active:
        pivot = next((i for i in active if m[i][i] != 0), None)
        if pivot is not None:
            d = m[pivot][pivot]
            signature += 1 if d > 0 else -1
            rest = [i for i in active if i != pivot]
            for i in rest:
                for j in rest:
                    m[i][j] -= m[i][pivot] * m[pivot][j] / d
            active = rest
            continue
        pair = next(((i, j) for i in active for j in active if j > i and m[i][j] != 0), None)
        if pair is None:
            nullity += len(active)
            break
        i0, j0 = pair
        a = m[i0][j0]
        rest = [i for i in active if i not in (i0, j0)]
        # Schur complement of the invertible block [[0, a], [a, 0]]
        for i in rest:
            for j in rest:
                m[i][j] -= (m[i][i0] * m[j0][j] + m[i][j0] * m[i0][j]) / a
        active = rest
    return signature, nullity
