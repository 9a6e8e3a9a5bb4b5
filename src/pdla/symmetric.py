"""Least eigenpairs and PSD tests of dense symmetric matrices.

SDP separation needs only the least eigenpair of the residual, so
`min_eigpair` asks LAPACK's MRRR driver `dsyevr` for that one pair instead of
a full decomposition. It calls the driver directly, with the arguments
`scipy.linalg.eigh(subset_by_index=[0, 0], driver="evr")` passes, and so
gives the same bits without `eigh`'s per-call argument handling; the driver
and its workspace sizes are cached per dimension. A diagonal matrix is
answered exactly from its diagonal. The eigenvector's largest-magnitude
entry is made positive so the output is deterministic.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import AsymmetricMatrix, DimensionMismatch, NotConverged


# d -> (dsyevr, lwork, liwork), filled on first use of each dimension.
_SYEVR: dict[int, tuple] = {}


def _syevr(d: int) -> tuple:
    if d not in _SYEVR:
        drv, drv_lwork = get_lapack_funcs(("syevr", "syevr_lwork"),
                                          (np.empty((d, d)),))
        work, iwork, info = drv_lwork(n=d, lower=1)
        if info != 0:
            raise NotConverged(f"LAPACK workspace query failed: info={info}")
        _SYEVR[d] = drv, int(work), int(iwork)
    return _SYEVR[d]


def _as_array(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {a.shape}")
    return a


def min_eigpair(m) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and its unit eigenvector.

    A diagonal matrix gives its least diagonal entry and the positive
    coordinate axis of that entry, the lowest index on ties. Raises
    AsymmetricMatrix beyond a relative 1e-8 asymmetry and NotConverged on
    non-finite entries or a LAPACK failure.
    """
    a = _as_array(m)
    if not np.isfinite(a).all():
        raise NotConverged("matrix has non-finite entries")
    if np.max(np.abs(a - a.T)) > 1e-8 * max(1.0, float(np.linalg.norm(a))):
        raise AsymmetricMatrix("matrix is not symmetric within tolerance")
    diag = np.diag(a)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        k = int(np.argmin(diag))
        vec = np.zeros(a.shape[0])
        vec[k] = 1.0
        return float(diag[k]), vec
    drv, lwork, liwork = _syevr(a.shape[0])
    vals, vecs, _, _, info = drv(0.5 * (a + a.T), compute_v=1, range="I",
                                 lower=1, il=1, iu=1, lwork=lwork,
                                 liwork=liwork, overwrite_a=1)
    if info != 0:
        raise NotConverged(f"LAPACK eigensolver failed: info={info}")
    vec = vecs[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return float(vals[0]), vec


def is_psd(m, tol_psd: float = 1e-7) -> bool:
    """True when lambda_min >= -tol_psd * max(1, ||M||_F)."""
    a = _as_array(m)
    lam, _ = min_eigpair(a)
    return lam >= -tol_psd * max(1.0, float(np.linalg.norm(a)))
