"""Online covering SDP solver with untrusted suggestions.

A stream of monotonically growing symmetric targets B_1 <= B_2 <= ... arrives
online and the solver maintains x >= 0 with sum_j A_j x_j >= B_i in the PSD
order. Each violated round is reduced to covering rows through the least
eigenvector v of the residual: the implicit row has weights w_j = v' A_j v
and right side b = v' B_i v. The solver-state checks, the round and its
report, phase restarts, the budget check, the growth step with its tight-set
snap and the dual certificate are the LP solver's (`covering_lp`), and so
are the column load A_j (x) Y and the dual objective that every growth step
folds in. This module keeps only its separation step (`_EigenSeparation`:
the first budget guess, the residual's test, the implicit row and its
column statistics, whether sum_j x'_j A_j covers the target) and its own
dual accumulator (`SdpPhase`: the matrix dual Y); it keeps no step report
of its own, and `process_matrix` returns the LP's `StepReport`. Every
target passes `instances.as_matrix`, the one check of an SDP matrix input,
and the state's `residual` is the one product of x with the stack, whose
one layout `A_flat` the cut's weights read too. The residual's test tries
a Cholesky proof that it is PSD within the floor first; only a test the
proof cannot settle computes the least eigenpair, which decides it and
gives the cut its direction, so a round that holds on arrival normally
never calls `min_eigpair`. Every stop event returns to a fresh test. The
boxed variant enforces x <= 1 through the same tight-set mechanism.

The matrix dual Y accumulates delta * v v' per growth step, giving the
scaled certificate A_j (x) Y <= c_j after dividing by the reported factor.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covering_lp import (DualCertificate, Phase, Separation, SolverState,
                          StepReport, grow_round)
from .covering_lp import dual_certificate as _lp_dual_certificate
from .covering_lp import beta_seen, current_solution, kappa_seen  # noqa: F401
from .errors import (DimensionMismatch, NoFeasibleSolution, NonMonotoneB,
                     NotConverged)
# Not called here; kept because the traced benchmark rebinds these names.
from .growth import advance, coefficient_vector, find_stop  # noqa: F401
from .instances import (AdviceVector, CoveringSdpInstance, SolverParams,
                        as_count, as_matrix, as_numbers)
from .symmetric import checked_matrix, cholesky_proves, is_psd, min_eigpair

# Relative floor on the implicit row: v'A_j v <= SPAN_TOL tr(A_j) counts as
# no weight. Roundoff leaves v'A_j v slightly positive along a null
# direction of A_j, so without it a target outside the span of the A_j
# grows x forever instead of raising NoFeasibleSolution.
SPAN_TOL = 1e-10


@dataclass
class SdpPhase(Phase):
    Y: np.ndarray               # matrix dual, sum of delta * v v'


@dataclass
class SdpDualCertificate(DualCertificate):
    Y: np.ndarray               # matrix dual of the active phase


@dataclass(kw_only=True)
class SdpSolverState(SolverState):
    d: int
    A: np.ndarray                                     # stacked (n, d, d)
    A_flat: np.ndarray = field(init=False)            # A as (n, d * d)
    traces: np.ndarray = field(init=False)            # tr(A_j)
    last_B: np.ndarray = field(init=False)            # previous target
    support: np.ndarray = field(init=False)           # every coordinate

    def __post_init__(self):
        super().__post_init__()
        self.d = as_count(self.d, "d must be a positive integer")
        self.A = A = as_numbers(self.A, "A")
        if A.shape != (self.n, self.d, self.d):
            raise DimensionMismatch(
                f"A is {A.shape}, expected {(self.n, self.d, self.d)}")
        self.A_flat = A.reshape(self.n, self.d * self.d)
        self.traces = np.trace(A, axis1=1, axis2=2)
        # The stream starts from zero, as in make_sdp_instance, so the first
        # target passes the same monotone check as every later one.
        self.last_B = np.zeros((self.d, self.d))
        self.support = np.arange(self.n)

    def new_phase(self, **shared) -> SdpPhase:
        return SdpPhase(Y=np.zeros((self.d, self.d)), **shared)

    def residual(self, x: np.ndarray, B: np.ndarray) -> np.ndarray:
        """sum_j x_j A_j - B: the one product of x with the stack."""
        return (x @ self.A_flat).reshape(self.d, self.d) - B


class _EigenSeparation(Separation):
    """The SDP's separation step against one target B: the residual's least
    eigenpair (lam, v) and the implicit row w_j = v' A_j v >= b = v' B v.
    norm is ||B||_F, which sets the floor the least eigenvalue must reach,
    at x and at the suggestion alike. A test that a Cholesky proof settles
    leaves (lam, v) as they were; cut() follows only a test that failed,
    which computed them."""

    def __init__(self, state: SdpSolverState, B: np.ndarray, norm: float):
        self.state, self.B, self.norm = state, B, norm
        self.support = state.support
        self.floor = -state.params.tol_psd * max(1.0, norm)

    def estimate(self) -> float:
        """The cheapest single coordinate whose trace covers the target's."""
        st = self.state
        ok = st.traces > 0
        if not ok.any():
            raise NoFeasibleSolution(
                "every coverage matrix has zero trace; nothing can grow")
        return float(np.min(st.c[ok] * np.trace(self.B) / st.traces[ok]))

    def advice_holds(self, adv: AdviceVector) -> bool:
        """Whether sum_j x'_j A_j covers B, at the floor `holds` uses:
        tol_psd * max(1, ||B||_F), not the residual's own norm."""
        return is_psd(self.state.residual(adv.x_prime, self.B),
                      tol_psd=self.state.params.tol_psd, scale=self.norm)

    def holds(self, x: np.ndarray) -> bool:
        """Whether lambda_min(sum_j x_j A_j - B) reaches the floor: the
        residual's checks, then a Cholesky proof, then the eigenpair."""
        resid, norm = checked_matrix(self.state.residual(x, self.B))
        if cholesky_proves(resid, norm, -self.floor):
            return True
        self.lam, self.v = min_eigpair(resid)
        return self.lam >= self.floor

    def cut(self) -> tuple[np.ndarray, float]:
        st, v = self.state, self.v
        self.vv = np.outer(v, v)
        w = st.A_flat @ self.vv.ravel()
        w = np.where(w > SPAN_TOL * st.traces, w, 0.0)
        self.b = float(v @ self.B @ v)
        if self.b <= 0.0:
            raise NotConverged(
                "separating direction has nonpositive target mass")
        cols = np.nonzero(w > 0)[0]
        st.add_columns(cols, w[cols] / self.b)
        return w, self.b

    def accumulate(self, ph: SdpPhase, delta: float) -> None:
        ph.Y += delta * self.vv

    def trace_fields(self) -> dict:
        return {"residual": self.lam}


def new_sdp_solver(inst: CoveringSdpInstance,
                   advice: AdviceVector | None = None,
                   params: SolverParams | None = None) -> SdpSolverState:
    return SdpSolverState(n=inst.n, d=inst.d, c=inst.c, A=inst.A,
                          boxed=inst.boxed, advice=advice, params=params)


def process_matrix(state: SdpSolverState, B) -> StepReport:
    """Feed one target matrix; returns once the residual is PSD within tol.

    The target is checked by `instances.as_matrix`. Raises NonMonotoneB
    when the stream decreases, NoFeasibleSolution when a residual direction
    admits no growth, and PhaseRestartLimit on runaway budget guesses.
    """
    B, norm = as_matrix(B, state.d, "target")
    # make_sdp_instance's monotone test: the floor is relative to the
    # newer target's norm, as the separation's is.
    if not is_psd(B - state.last_B, tol_psd=state.params.tol_psd,
                  scale=norm):
        raise NonMonotoneB(
            f"round {state.round_no + 1} target decreased somewhere")
    # A read-only array that owns its data (an instance target) is kept as
    # is; any other is copied, so a caller's in-place edit cannot hide a
    # decrease from the next round's monotone check.
    frozen = B.flags.owndata and not B.flags.writeable
    state.last_B = B if frozen else B.copy()
    if state.phase is None and float(np.trace(B)) <= 0.0:
        # A zero target is covered by any x >= 0; the budget guess waits
        # for a round that actually needs mass.
        state.round_no += 1
        return StepReport(state.round_no)
    report, _ = grow_round(state, _EigenSeparation(state, B, norm))
    # The round's cut arrays are not an instance's: fold rather than hold.
    state.fold_columns()
    return report


def feasibility_gap(state: SdpSolverState, B) -> float:
    """Least eigenvalue of sum_j A_j xhat_j - B at the published solution;
    the target is checked as process_matrix checks it."""
    B, _ = as_matrix(B, state.d, "target")
    return float(min_eigpair(state.residual(state.x_best, B))[0])


def dual_certificate(state: SdpSolverState) -> SdpDualCertificate:
    """The LP certificate of the active phase (`covering_lp.dual_certificate`)
    with its matrix dual Y.

    Y is PSD by construction; dividing by scale gives A_j (x) Y - z_j <= c_j
    for every coordinate. objective is the sum over steps of (v' B v) delta
    minus the tight-coordinate discounts, before scaling.
    """
    ph = state.phase
    Y = np.zeros((state.d, state.d)) if ph is None else ph.Y.copy()
    return SdpDualCertificate(**vars(_lp_dual_certificate(state)), Y=Y)


def run_sdp(inst: CoveringSdpInstance, advice: AdviceVector | None = None,
            params: SolverParams | None = None):
    """Convenience: stream every target of an instance, return (state, reports)."""
    state = new_sdp_solver(inst, advice=advice, params=params)
    reports = [process_matrix(state, B) for B in inst.B_stream]
    return state, reports

