"""Least eigenpairs and PSD tests checked against numpy.linalg and hand cases."""
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from pdla import symmetric
from pdla.errors import AsymmetricMatrix, DimensionMismatch, NotConverged
from pdla.instances import SolverParams
from pdla.symmetric import is_psd, min_eigpair


def test_two_by_two_hand_case():
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3 with eigenvectors
    # (1, -1)/sqrt(2) and (1, 1)/sqrt(2).
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    lam, v0 = min_eigpair(m)
    assert lam == pytest.approx(1.0)
    assert abs(v0 @ np.array([1.0, -1.0]) / np.sqrt(2)) == pytest.approx(1.0)
    # The largest eigenvalue is the least of -M, negated.
    assert -min_eigpair(-m)[0] == pytest.approx(3.0)


def test_matches_numpy_on_random_symmetric():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 5, 8, 12):
        a = rng.normal(size=(d, d))
        m = (a + a.T) / 2
        lam, v = min_eigpair(m)
        ref = np.linalg.eigvalsh(m)
        assert np.allclose(lam, ref[0], atol=1e-8 * max(1, abs(ref).max()))
        # The pair solves M v = lam v with a unit v.
        assert np.allclose(m @ v, lam * v, atol=1e-8 * max(1.0, abs(m).max()))
        assert np.allclose(v @ v, 1.0, atol=1e-9)


def test_values_ascending_and_min_eigpair():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 6))
    m = (a + a.T) / 2
    lam, v = min_eigpair(m)
    assert lam == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-8)
    assert np.linalg.norm(m @ v - lam * v) < 1e-7
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_diagonal_matrix_is_immediate():
    m = np.diag([3.0, -1.0, 2.0])
    lam, v = min_eigpair(m)
    assert lam == -1.0
    # The -1 eigenvector is the second coordinate axis, positive.
    assert v.tolist() == [0.0, 1.0, 0.0]
    # Ties go to the lowest index.
    lam, v = min_eigpair(np.diag([2.0, -1.5, 4.0, -1.5]))
    assert lam == -1.5
    assert v.tolist() == [0.0, 1.0, 0.0, 0.0]
    lam, v = min_eigpair(np.zeros((3, 3)))
    assert lam == 0.0
    assert v.tolist() == [1.0, 0.0, 0.0]
    lam, v = min_eigpair([[7.0]])
    assert (lam, v.tolist()) == (7.0, [1.0])


def test_eigenvector_sign_convention():
    rng = np.random.default_rng(11)
    for d in (2, 4, 9):
        for _ in range(5):
            a = rng.normal(size=(d, d))
            m = (a + a.T) / 2
            _, v = min_eigpair(m)
            assert v[np.argmax(np.abs(v))] > 0
            # The same input gives the same vector, sign included.
            _, v_again = min_eigpair(m.copy())
            assert np.array_equal(v, v_again)
            ref = np.linalg.eigh(m)[1][:, 0]
            ref = ref if ref[np.argmax(np.abs(ref))] > 0 else -ref
            assert np.allclose(v, ref, atol=1e-8)


def test_is_psd_tolerance():
    assert is_psd(np.eye(3))
    assert is_psd(np.zeros((2, 2)))
    assert not is_psd(np.diag([1.0, -1e-3]))
    # Slightly negative within tolerance counts as PSD.
    assert is_psd(np.diag([1.0, -1e-9]), tol_psd=1e-7)


def test_the_psd_slack_is_defined_once():
    assert inspect.signature(is_psd).parameters["tol_psd"].default \
        == symmetric.TOL_PSD == SolverParams().tol_psd


def test_min_eigpair_validates_its_input():
    with pytest.raises(AsymmetricMatrix):
        min_eigpair(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(AsymmetricMatrix):
        is_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        min_eigpair(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        is_psd(np.ones(4))
    # Asymmetry within the relative 1e-8 slack is accepted.
    lam, _ = min_eigpair(np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]]))
    assert lam == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_does_not_converge(bad):
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    m[0, 0] = bad
    with pytest.raises(NotConverged):
        min_eigpair(m)
    m = np.eye(2)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(NotConverged):
        is_psd(m)


def test_psd_projection_cases():
    # Rank-one and repeated-eigenvalue cases.
    v = np.array([1.0, 2.0, -1.0])
    m = np.outer(v, v)
    lam, u = min_eigpair(m)
    assert lam == pytest.approx(0.0, abs=1e-10)
    assert u @ v == pytest.approx(0.0, abs=1e-10)
    assert -min_eigpair(-m)[0] == pytest.approx(v @ v)
    lam, u = min_eigpair(np.eye(4) * 2.5)
    assert lam == pytest.approx(2.5)
    # A repeated least eigenvalue off the axes: Q diag(1, 1, 3) Q'.
    q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 3)))
    m = q @ np.diag([1.0, 1.0, 3.0]) @ q.T
    lam, u = min_eigpair(m)
    assert lam == pytest.approx(1.0)
    assert np.allclose(m @ u, u, atol=1e-10)
    assert u @ q[:, 2] == pytest.approx(0.0, abs=1e-10)


def _eigh_pair(m):
    """The least pair from scipy's eigh with the MRRR driver, sign-fixed."""
    vals, vecs = eigh(0.5 * (m + m.T), subset_by_index=[0, 0], driver="evr")
    vec = vecs[:, 0]
    return vals[0], vec if vec[np.argmax(np.abs(vec))] > 0 else -vec


@pytest.mark.parametrize("d", [1, 2, 3, 24, 100])
def test_min_eigpair_is_eighs_evr_result_bit_for_bit(d):
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    spectrum = np.r_[-1.0, -1.0, rng.uniform(0.0, 5.0, d)][:d]
    mats = [q @ np.diag(spectrum) @ q.T]          # repeated least eigenvalue
    for _ in range(5):
        a = rng.normal(size=(d, d))
        mats.append(a + a.T)
    for m in mats:
        lam, v = min_eigpair(m)
        ref_lam, ref_v = _eigh_pair(m)
        assert lam == ref_lam
        assert np.array_equal(v, ref_v)


def test_lapack_failure_is_not_converged(monkeypatch):
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    drv = symmetric.dsyevr

    def failing(*args, **kwargs):
        *out, _ = drv(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(symmetric, "dsyevr", failing)
    with pytest.raises(NotConverged, match="LAPACK"):
        min_eigpair(m)
    # is_psd certifies a positive definite matrix by Cholesky alone, so the
    # eigen fallback runs on an indefinite one (eigenvalues -1 and 3).
    with pytest.raises(NotConverged, match="LAPACK"):
        is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_argument_error_is_not_converged(monkeypatch):
    potrf = symmetric.dpotrf

    def failing(*args, **kwargs):
        c, _ = potrf(*args, **kwargs)
        return c, -1

    monkeypatch.setattr(symmetric, "dpotrf", failing)
    with pytest.raises(NotConverged, match="Cholesky"):
        is_psd(np.array([[2.0, 1.0], [1.0, 2.0]]))


@pytest.mark.parametrize("shape", [(0, 0), (0,), (1, 0)])
def test_empty_matrix_is_a_dimension_mismatch(shape):
    with pytest.raises(DimensionMismatch):
        min_eigpair(np.zeros(shape))
    with pytest.raises(DimensionMismatch):
        is_psd(np.zeros(shape))


def _psd_reference(m, tol):
    return min_eigpair(m)[0] >= -tol * max(1.0, float(np.linalg.norm(m)))


@st.composite
def _near_threshold(draw):
    """M = Q diag(lam) Q' whose least eigenvalue lies within a few floors
    of is_psd's threshold, on either side; also rank-deficient PSD and
    diagonal draws."""
    d = draw(st.integers(1, 30))
    tol = draw(st.sampled_from([1e-7, 1e-10]))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["near", "rank_deficient", "diagonal"]))
    lam = rng.uniform(0.0, 1.0, d) * scale
    if kind == "rank_deficient":
        lam[:draw(st.integers(1, d))] = 0.0
    elif d > 1:
        lam[0] = 0.0
    # The threshold at this spectrum; the least eigenvalue moves the norm
    # by at most a few floors, which the offsets below dwarf.
    floor = tol * max(1.0, float(np.linalg.norm(lam)))
    if kind != "rank_deficient":
        lam[0] = -floor * draw(st.sampled_from(
            [0.0, 0.25, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 4.0, -1.0]))
    rng.shuffle(lam)
    if kind == "diagonal":
        return np.diag(lam), tol
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * lam) @ q.T, tol


@settings(max_examples=300, deadline=None)
@given(_near_threshold())
def test_cholesky_shortcut_decides_as_the_least_eigenvalue(case):
    m, tol = case
    assert is_psd(m, tol) == _psd_reference(m, tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_input_errors_come_before_any_factorization(bad, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("factorized a rejected matrix")

    monkeypatch.setattr(symmetric, "dpotrf", never)
    monkeypatch.setattr(symmetric, "dsyevr", never)
    m = np.eye(3)
    m[2, 1] = bad
    with pytest.raises(NotConverged):
        is_psd(m)
    m = np.eye(3)
    m[2, 1] = 1e-3
    with pytest.raises(AsymmetricMatrix):
        is_psd(m)
