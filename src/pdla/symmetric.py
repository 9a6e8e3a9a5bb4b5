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
caller has already checked, with the norm the check took.

`scipy.linalg` loads on the first call that reaches LAPACK: a Cholesky
attempt in `psd_at_floor` (so `make_sdp_instance` loads it) or a non-diagonal
eigenpair. Importing this module, and every LP, set-cover and group-Steiner
run, leaves it unloaded. The drivers `dpotrf`, `dsyevr` and `dsyevr_lwork`
are module attributes: reading one loads them, and the solvers call through
them, so a test may replace one.
"""
from __future__ import annotations

import threading

import numpy as np

from .errors import AsymmetricMatrix, DimensionMismatch, NotConverged

_LAPACK_NAMES = ("dpotrf", "dsyevr", "dsyevr_lwork")
_lapack_loaded = False
_LAPACK_LOCK = threading.Lock()

TOL_SYM = 1e-8   # relative asymmetry a symmetric matrix may carry
TOL_PSD = 1e-7   # relative PSD slack; `SolverParams.tol_psd` defaults to it

# Cholesky of M + s I is trusted to prove lambda_min(M) >= -2 s only while
# its backward error, about d^2 eps (||M|| + s), stays below s by this factor.
_CHOL_MARGIN = 16.0
_EPS = float(np.finfo(float).eps)

# dsyevr's (lwork, liwork) per dimension, filled on first use.
_SYEVR_WORK: dict[int, tuple[int, int]] = {}


def _load_lapack() -> None:
    """Bind the LAPACK drivers as module globals, once per process. A name
    already set, such as a test's stand-in, is kept."""
    global _lapack_loaded
    with _LAPACK_LOCK:
        if _lapack_loaded:
            return
        from scipy.linalg import lapack
        for name in _LAPACK_NAMES:
            globals().setdefault(name, getattr(lapack, name))
        _lapack_loaded = True


def __getattr__(name: str):
    if name in _LAPACK_NAMES:
        _load_lapack()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _checked(m) -> tuple[np.ndarray, float]:
    """The matrix as a float array and its Frobenius norm, after the input
    checks, in this order: square and nonempty, finite, symmetric within a
    relative TOL_SYM."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(
            f"expected a nonempty square matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise NotConverged("matrix has non-finite entries")
    norm = float(np.linalg.norm(a))
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
    d = a.shape[0]
    if d not in _SYEVR_WORK:
        # Only a dimension's first call checks the load: its workspace is
        # cached after LAPACK has loaded.
        _load_lapack()
        work, iwork, info = dsyevr_lwork(n=d, lower=1)
        if info != 0:
            raise NotConverged(f"LAPACK workspace query failed: info={info}")
        _SYEVR_WORK[d] = int(work), int(iwork)
    lwork, liwork = _SYEVR_WORK[d]
    vals, vecs, _, _, info = dsyevr(0.5 * (a + a.T), compute_v=1, range="I",
                                    lower=1, il=1, iu=1, lwork=lwork,
                                    liwork=liwork, overwrite_a=1)
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
    return _least_pair(_checked(m)[0])


def is_psd(m, tol_psd: float = TOL_PSD, scale: float | None = None) -> bool:
    """True when lambda_min >= -tol_psd * max(1, scale), where scale
    defaults to ||M||_F; the monotone tests pass the newer target's norm.

    Raises as min_eigpair does, then decides by `psd_at_floor`.
    """
    a, norm = _checked(m)
    return psd_at_floor(a, norm,
                        tol_psd * max(1.0, norm if scale is None else scale))


def psd_at_floor(a: np.ndarray, norm: float, floor: float) -> bool:
    """True when lambda_min(a) >= -floor, for a float matrix that passed
    `is_psd`'s checks and its Frobenius norm.

    A successful Cholesky factorization of a + (floor / 2) I answers True;
    a failed one, or a shift too small against the factorization's
    roundoff, leaves the answer to the least eigenvalue.
    """
    d = a.shape[0]
    shift = 0.5 * floor
    if _CHOL_MARGIN * d * (d + 1) * _EPS * (norm + shift) <= shift:
        s = 0.5 * (a + a.T)
        s.flat[::d + 1] += shift
        if not _lapack_loaded:
            _load_lapack()
        # s is symmetric, so its transpose is the same matrix in the
        # Fortran order dpotrf factors in place.
        _, info = dpotrf(s.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return True
        if info < 0:
            raise NotConverged(f"LAPACK Cholesky failed: info={info}")
    return _least_pair(a)[0] >= -floor
