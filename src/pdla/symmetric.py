"""Least eigenpairs and PSD tests of dense symmetric matrices.

SDP separation needs only the least eigenpair of the residual, so
`min_eigpair` asks LAPACK's MRRR driver `dsyevr` for that one pair instead of
a full decomposition. It calls the driver directly, with the arguments
`scipy.linalg.eigh(subset_by_index=[0, 0], driver="evr")` passes, and so
gives the same bits without `eigh`'s per-call argument handling; its
workspace sizes are cached per dimension. A diagonal matrix is
answered exactly from its diagonal. The eigenvector's largest-magnitude
entry is made positive so the output is deterministic.

`is_psd` decides by a Cholesky factorization (`dpotrf`) of the matrix
shifted by half its floor, and asks `dsyevr` only when that fails or when
the factorization's roundoff could reach the shift, so every decision is
the least eigenvalue's. `psd_at_floor` is that decision for a matrix its
caller has already checked, with the norm the check took, and
`cholesky_proves` is its Cholesky half alone: the SDP separation asks it
first and computes the eigenpair only when it proves nothing.

`scipy.linalg` loads on the first call that reaches LAPACK: a Cholesky
attempt in `cholesky_proves` (so `make_sdp_instance` loads it) or a
non-diagonal eigenpair. Importing this module, and every LP, set-cover and
group-Steiner run, leaves it unloaded. `_lapack()` imports
`scipy.linalg.lapack` once, through the import system, and every driver
call reads its driver from that module, so a test may replace one there.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import AsymmetricMatrix, DimensionMismatch, NotConverged

TOL_SYM = 1e-8   # relative asymmetry a symmetric matrix may carry
TOL_PSD = 1e-7   # relative PSD slack; `SolverParams.tol_psd` defaults to it

# Cholesky of M + s I is trusted to prove lambda_min(M) >= -2 s only while
# its backward error, about d^2 eps (||M|| + s), stays below s by this factor.
_CHOL_MARGIN = 16.0
_EPS = float(np.finfo(float).eps)


@functools.cache
def _lapack():
    """scipy's LAPACK module, imported on the first call."""
    from scipy.linalg import lapack
    return lapack


@functools.cache
def _syevr_work(d: int) -> tuple[int, int]:
    """dsyevr's (lwork, liwork) for dimension d."""
    work, iwork, info = _lapack().dsyevr_lwork(n=d, lower=1)
    if info != 0:
        raise NotConverged(f"LAPACK workspace query failed: info={info}")
    return int(work), int(iwork)


def frobenius_norm(a: np.ndarray) -> float:
    """||a||_F of a float array, with the bits of `np.linalg.norm`, which
    takes the same dot over the same memory-order ravel."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def checked_matrix(m) -> tuple[np.ndarray, float]:
    """The matrix as a float array and its Frobenius norm, after the input
    checks, in this order: square and nonempty, finite, symmetric within a
    relative TOL_SYM. A finite norm proves every entry finite, so only a
    matrix whose norm is not finite has its entries scanned."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(
            f"expected a nonempty square matrix, got {a.shape}")
    norm = frobenius_norm(a)
    if not math.isfinite(norm) and not np.isfinite(a).all():
        raise NotConverged("matrix has non-finite entries")
    if np.max(np.abs(a - a.T)) > TOL_SYM * max(1.0, norm):
        raise AsymmetricMatrix("matrix is not symmetric within tolerance")
    return a, norm


def _least_pair(a: np.ndarray) -> tuple[float, np.ndarray]:
    diag = np.diag(a)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        k = int(np.argmin(diag))
        vec = np.zeros(a.shape[0])
        vec[k] = 1.0
        return float(diag[k]), vec
    lwork, liwork = _syevr_work(a.shape[0])
    vals, vecs, _, _, info = _lapack().dsyevr(
        0.5 * (a + a.T), compute_v=1, range="I", lower=1, il=1, iu=1,
        lwork=lwork, liwork=liwork, overwrite_a=1)
    if info != 0:
        raise NotConverged(f"LAPACK eigensolver failed: info={info}")
    vec = vecs[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return float(vals[0]), vec


def min_eigpair(m) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and its unit eigenvector.

    A diagonal matrix gives its least diagonal entry and the positive
    coordinate axis of that entry, the lowest index on ties. Raises
    DimensionMismatch unless the matrix is square and nonempty,
    AsymmetricMatrix beyond a relative 1e-8 asymmetry and NotConverged on
    non-finite entries or a LAPACK failure.
    """
    return _least_pair(checked_matrix(m)[0])


def is_psd(m, tol_psd: float = TOL_PSD, scale: float | None = None) -> bool:
    """True when lambda_min >= -tol_psd * max(1, scale), where scale
    defaults to ||M||_F; the monotone tests pass the newer target's norm.

    Raises as min_eigpair does, then decides by `psd_at_floor`.
    """
    a, norm = checked_matrix(m)
    return psd_at_floor(a, norm,
                        tol_psd * max(1.0, norm if scale is None else scale))


def psd_at_floor(a: np.ndarray, norm: float, floor: float) -> bool:
    """True when lambda_min(a) >= -floor, for a float matrix that passed
    `is_psd`'s checks and its Frobenius norm.

    A Cholesky proof (`cholesky_proves`) answers True; otherwise the least
    eigenvalue decides.
    """
    return cholesky_proves(a, norm, floor) or _least_pair(a)[0] >= -floor


def cholesky_proves(a: np.ndarray, norm: float, floor: float) -> bool:
    """Whether a Cholesky factorization of a + (floor / 2) I proves
    lambda_min(a) >= -floor, for a matrix and norm as `psd_at_floor` takes.

    False means no proof: the factorization failed, or the shift is too
    small against its roundoff to trust a success. A success leaves
    lambda_min(a) >= -floor / 2 up to that roundoff, far from -floor, so
    `dsyevr`'s least eigenvalue would have passed the same floor.
    """
    d = a.shape[0]
    shift = 0.5 * floor
    if _CHOL_MARGIN * d * (d + 1) * _EPS * (norm + shift) > shift:
        return False
    s = 0.5 * (a + a.T)
    s.flat[::d + 1] += shift
    # s is symmetric, so its transpose is the same matrix in the
    # Fortran order dpotrf factors in place.
    _, info = _lapack().dpotrf(s.T, lower=1, clean=0, overwrite_a=1)
    if info < 0:
        raise NotConverged(f"LAPACK Cholesky failed: info={info}")
    return info == 0
