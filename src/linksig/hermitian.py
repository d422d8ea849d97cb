"""Certified inertia of dense Hermitian matrices and a tolerance-aware solver.

Signature and nullity come from LAPACK's Hermitian eigenvalue routine
(np.linalg.eigvalsh), one matrix at a time in inertia or a stack at a time
in inertia_many.  Classification is relative to a scale: by default the
largest absolute entry of the matrix, but callers that know the structural
magnitude of their data (e.g. a form assembled from integer matrices and
roots of unity) may pass it explicitly so that an exact zero produced by
cancellation is not mistaken for a matrix-sized eigenvalue.

Why eigvalsh is accurate enough: an eigenvalue counts as zero when
|lambda| <= cut = tau * scale (tau = 1e-9 by default), and the split is
certified only when no eigenvalue lies within a factor UNCERTAIN_BAND of the
cut.  LAPACK's eigenvalues are backward stable, with absolute errors of
order n * eps * ||H|| (eps ~ 2.2e-16).  The scale bounds every entry, so
||H|| <= n * scale and the error stays below cut / UNCERTAIN_BAND for n up to
several hundred.  The relative accuracy of Jacobi rotations on small
eigenvalues (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992) would
matter only below the cut, where every eigenvalue already counts as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EigensolverFailure, InvalidInput, NonSquare, NotHermitian

DEFAULT_TAU = 1e-9
UNCERTAIN_BAND = 16.0
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


def _classify(eig: np.ndarray, cut) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signature, nullity and certification of the eigenvalues along the last axis.

    Eigenvalues with |lambda| > cut count into the signature, the rest into
    the nullity; a split is uncertain when any eigenvalue falls inside the
    band (cut/16, 16*cut).
    """
    absed = np.abs(eig)
    n_pos = np.sum(eig > cut, axis=-1)
    n_neg = np.sum(eig < -cut, axis=-1)
    uncertain = np.any((absed > cut / UNCERTAIN_BAND) & (absed < cut * UNCERTAIN_BAND), axis=-1)
    return n_pos - n_neg, eig.shape[-1] - n_pos - n_neg, ~uncertain


def inertia(m: np.ndarray, tau: float = DEFAULT_TAU, scale: float | None = None) -> InertiaResult:
    """Certified signature and nullity of a Hermitian matrix.

    Eigenvalues with |lambda| > tau*scale count into the signature, the rest
    into the nullity; certified is False when any eigenvalue falls inside
    the band (tau*scale/16, 16*tau*scale).  A matrix or scale that is not
    finite, or an eigensolver failure, raises EigensolverFailure.  The
    Hermitian defect is measured against the larger of scale and the largest
    entry, so a form that cancels to rounding residue classifies as zeros.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return InertiaResult(0, 0, True, float("inf"))
    if not np.all(np.isfinite(a)):
        raise EigensolverFailure(f"a {n}x{n} matrix has non-finite entries")
    entry_scale = float(np.max(np.abs(a)))
    if scale is None:
        scale = entry_scale
    if scale < 0:
        raise InvalidInput("scale must be nonnegative")
    if not math.isfinite(scale):
        raise EigensolverFailure(f"scale {scale} is not finite")
    reference = max(entry_scale, scale)
    herm_defect = float(np.max(np.abs(a - a.conj().T)))
    if herm_defect > _HERMITIAN_REL * reference:
        raise NotHermitian(f"asymmetry {herm_defect:.3e} exceeds {_HERMITIAN_REL:.0e} * {reference:.3e}")
    try:
        eig = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"eigvalsh failed on a {n}x{n} matrix: {exc}") from exc
    cut = tau * scale
    signature, nullity, certified = _classify(eig, cut)
    absed = np.abs(eig)
    nonzero = absed[absed > cut]
    min_gap = float(np.min(nonzero) / scale) if (nonzero.size and scale > 0) else float("inf")
    return InertiaResult(int(signature), int(nullity), bool(certified), min_gap)


def inertia_many(h: np.ndarray, scale: np.ndarray,
                 tau: float = DEFAULT_TAU) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Signature, nullity and certification of a (P, n, n) stack of forms.

    The batched counterpart of inertia with one scale per form.  Returns
    (signature, nullity, certified, ok).  A row with ok False has a
    non-finite form or scale or fails the Hermitian check; its other entries
    are meaningless, and inertia on that form gives its error.
    """
    herm = h.conj().swapaxes(1, 2)
    entry_scale = np.abs(h).max(axis=(1, 2), initial=0.0)
    with np.errstate(invalid="ignore"):  # inf - inf in a form that is rejected anyway
        herm_defect = np.abs(h - herm).max(axis=(1, 2), initial=0.0)
    ok = (np.isfinite(h).all(axis=(1, 2)) & np.isfinite(scale)
          & (herm_defect <= _HERMITIAN_REL * np.maximum(entry_scale, scale)))
    eig = np.zeros(h.shape[:2])
    try:
        eig[ok] = np.linalg.eigvalsh((h[ok] + herm[ok]) / 2.0)
    except np.linalg.LinAlgError:
        ok[:] = False
    return (*_classify(eig, tau * scale[:, None]), ok)


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
    kernel_basis: np.ndarray  # columns span the numerical kernel


def solve(m: np.ndarray, b: np.ndarray, tau: float = DEFAULT_TAU):
    """Solve m @ alpha = b by Gaussian elimination with full pivoting.

    Pivots below tau times the largest initial entry count as zero.  Returns
    Solution, NoSolution (b outside the column space), or NonUnique with a
    particular solution and an orthonormalized kernel basis.
    """
    a = np.array(m, dtype=np.complex128, copy=True)
    rhs = np.array(b, dtype=np.complex128, copy=True).reshape(-1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if rhs.shape[0] != n:
        raise InvalidInput(f"rhs length {rhs.shape[0]} != dimension {n}")
    if n == 0:
        return Solution(np.empty(0, dtype=np.complex128))
    scale = float(np.max(np.abs(a)))
    pivot_cut = tau * scale
    col_perm = np.arange(n)
    rank = n
    for k in range(n):
        sub = np.abs(a[k:, k:])
        i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if sub[i, j] <= pivot_cut:
            rank = k
            break
        i += k
        j += k
        if i != k:
            a[[k, i], :] = a[[i, k], :]
            rhs[[k, i]] = rhs[[i, k]]
        if j != k:
            a[:, [k, j]] = a[:, [j, k]]
            col_perm[[k, j]] = col_perm[[j, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= np.outer(factors, a[k, k:])
        rhs[k + 1:] -= factors * rhs[k]

    rhs_scale = max(float(np.max(np.abs(rhs))) if n else 0.0, scale, 1e-300)
    if rank < n and np.any(np.abs(rhs[rank:]) > tau * rhs_scale):
        return NoSolution()

    # back substitution on the leading rank x rank triangle, free vars = 0
    x = np.zeros(n, dtype=np.complex128)
    for k in range(rank - 1, -1, -1):
        x[k] = (rhs[k] - a[k, k + 1:rank] @ x[k + 1:rank]) / a[k, k]
    alpha = np.zeros(n, dtype=np.complex128)
    alpha[col_perm[:rank]] = x[:rank]
    if rank == n:
        return Solution(alpha)

    kernel = np.zeros((n, n - rank), dtype=np.complex128)
    for f in range(n - rank):
        y = np.zeros(n, dtype=np.complex128)
        y[rank + f] = 1.0
        for k in range(rank - 1, -1, -1):
            y[k] = -(a[k, k + 1:] @ y[k + 1:]) / a[k, k]
        kernel[col_perm, f] = y
        kernel[:, f] /= np.linalg.norm(kernel[:, f])
    return NonUnique(alpha, kernel)


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
