"""Least eigenpairs and PSD tests of dense symmetric matrices.

SDP separation needs only the least eigenpair of the residual, so
`min_eigpair` asks LAPACK's MRRR driver (`dsyevr` through
`scipy.linalg.eigh(subset_by_index=[0, 0], driver="evr")`) for that one pair
instead of a full decomposition. A diagonal matrix is answered exactly from
its diagonal. The eigenvector's largest-magnitude entry is made positive so
the output is deterministic.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, eigh

from .errors import AsymmetricMatrix, DimensionMismatch, NotConverged


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
    try:
        vals, vecs = eigh(0.5 * (a + a.T), subset_by_index=[0, 0],
                          driver="evr", overwrite_a=True, check_finite=False)
    except LinAlgError as exc:
        raise NotConverged(f"LAPACK eigensolver failed: {exc}") from exc
    vec = vecs[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return float(vals[0]), vec


def is_psd(m, tol_psd: float = 1e-7) -> bool:
    """True when lambda_min >= -tol_psd * max(1, ||M||_F)."""
    a = _as_array(m)
    lam, _ = min_eigpair(a)
    return lam >= -tol_psd * max(1.0, float(np.linalg.norm(a)))
