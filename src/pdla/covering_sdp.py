"""Online covering SDP solver with untrusted suggestions.

A stream of monotonically growing symmetric targets B_1 <= B_2 <= ... arrives
online and the solver maintains x >= 0 with sum_j A_j x_j >= B_i in the PSD
order. Each violated round is reduced to covering rows through the least
eigenvector v of the residual: the implicit row has weights w_j = v' A_j v
and right side b = v' B_i v. The solver-state checks, the round,
phase restarts, the tight-set snap, the budget check, the growth step and
the dual certificate are the LP solver's (`covering_lp`), and so are the
column load A_j (x) Y and the dual objective that every growth step folds
in. This module keeps only its separation step (`_EigenSeparation`: the
first budget guess, the residual's least eigenpair, the implicit row and
its column statistics, whether sum_j x'_j A_j covers the target), its step
report and its own dual accumulator (`SdpPhase`: the matrix dual Y). Every
stop event returns to a fresh eigendirection. The boxed variant enforces
x <= 1 through the same tight-set mechanism.

The matrix dual Y accumulates delta * v v' per growth step, giving the
scaled certificate A_j (x) Y <= c_j after dividing by the reported factor.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covering_lp import (DualCertificate, Phase, Separation, SolverState,
                          grow_round)
from .covering_lp import dual_certificate as _lp_dual_certificate
from .covering_lp import beta_seen, current_solution, kappa_seen  # noqa: F401
from .errors import (DimensionMismatch, MalformedDocument, NoFeasibleSolution,
                     NonMonotoneB, NotConverged)
# Not called here; kept because the traced benchmark rebinds these names.
from .growth import advance, coefficient_vector, find_stop  # noqa: F401
from .instances import AdviceVector, CoveringSdpInstance, SolverParams
from .symmetric import is_psd, min_eigpair

# Relative floor on the implicit row: v'A_j v <= SPAN_TOL tr(A_j) counts as
# no weight. Roundoff leaves v'A_j v slightly positive along a null
# direction of A_j, so without it a target outside the span of the A_j
# grows x forever instead of raising NoFeasibleSolution.
SPAN_TOL = 1e-10


@dataclass
class SdpPhase(Phase):
    Y: np.ndarray               # matrix dual, sum of delta * v v'


@dataclass
class SdpStepReport:
    round_no: int
    stop_reason: str            # "already_satisfied" | "satisfied"
    iterations: int
    phases_entered: int
    residual_eig: float         # least eigenvalue at exit (>= -tol)
    y_round: float
    tight_added: list[int]


@dataclass
class SdpDualCertificate(DualCertificate):
    Y: np.ndarray               # matrix dual of the active phase


@dataclass(kw_only=True)
class SdpSolverState(SolverState):
    d: int
    A: np.ndarray                                     # stacked (n, d, d)
    traces: np.ndarray = field(init=False)            # tr(A_j)
    S_advice: np.ndarray | None = field(init=False)   # sum_j x'_j A_j
    last_B: np.ndarray = field(init=False)            # previous target

    def __post_init__(self):
        super().__post_init__()
        self.A = A = np.asarray(self.A, dtype=float)
        if A.shape != (self.n, self.d, self.d):
            raise DimensionMismatch(
                f"A is {A.shape}, expected {(self.n, self.d, self.d)}")
        self.traces = np.trace(A, axis1=1, axis2=2)
        self.S_advice = None if self.advice is None else np.tensordot(
            self.advice.x_prime, A, axes=1)
        # The stream starts from zero, as in make_sdp_instance, so the first
        # target passes the same monotone check as every later one.
        self.last_B = np.zeros((self.d, self.d))

    def new_phase(self, **shared) -> SdpPhase:
        return SdpPhase(Y=np.zeros((self.d, self.d)), **shared)


class _EigenSeparation(Separation):
    """The SDP's separation step against one target B: the residual's least
    eigenpair (lam, v) and the implicit row w_j = v' A_j v >= b = v' B v."""

    def __init__(self, state: SdpSolverState, B: np.ndarray):
        self.state, self.B = state, B
        self.support = np.arange(state.n)
        self.A_flat = state.A.reshape(state.n, state.d * state.d)
        self.floor = -state.params.tol_psd * max(1.0, float(np.linalg.norm(B)))

    def estimate(self) -> float:
        """The cheapest single coordinate whose trace covers the target's."""
        st = self.state
        ok = st.traces > 0
        if not ok.any():
            raise NoFeasibleSolution(
                "every coverage matrix has zero trace; nothing can grow")
        return float(np.min(st.c[ok] * np.trace(self.B) / st.traces[ok]))

    def advice_holds(self, adv: AdviceVector) -> bool:
        """Whether sum_j x'_j A_j (the state's S_advice) covers B."""
        return is_psd(self.state.S_advice - self.B,
                      tol_psd=self.state.params.tol_psd)

    def holds(self, x: np.ndarray) -> bool:
        d = self.state.d
        resid = (x @ self.A_flat).reshape(d, d) - self.B
        self.lam, self.v = min_eigpair(resid)
        return self.lam >= self.floor

    def cut(self) -> tuple[np.ndarray, float]:
        st, v = self.state, self.v
        self.vv = np.outer(v, v)
        w = self.A_flat @ self.vv.ravel()
        w = np.where(w > SPAN_TOL * st.traces, w, 0.0)
        self.b = float(v @ self.B @ v)
        if self.b <= 0.0:
            raise NotConverged(
                "separating direction has nonpositive target mass")
        cols = np.nonzero(w > 0)[0]
        r = w[cols] / self.b
        st.col_max[cols] = np.maximum(st.col_max[cols], r)
        st.col_min[cols] = np.minimum(st.col_min[cols], r)
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


def process_matrix(state: SdpSolverState, B) -> SdpStepReport:
    """Feed one target matrix; returns once the residual is PSD within tol.

    Raises MalformedDocument on a non-finite target, NonMonotoneB when the
    stream decreases, NoFeasibleSolution when a residual direction admits
    no growth, and PhaseRestartLimit on runaway budget guesses.
    """
    B = np.asarray(B, dtype=float)
    if B.shape != (state.d, state.d):
        raise DimensionMismatch(
            f"target is {B.shape}, expected {(state.d, state.d)}")
    if not np.isfinite(B).all():
        raise MalformedDocument("target must be finite")
    # make_sdp_instance's monotone test: the floor is relative to the
    # newer target's norm.
    if not is_psd(B - state.last_B, tol_psd=state.params.tol_psd,
                  scale=float(np.linalg.norm(B))):
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
        return SdpStepReport(round_no=state.round_no,
                             stop_reason="already_satisfied", iterations=0,
                             phases_entered=0, residual_eig=0.0, y_round=0.0,
                             tight_added=[])
    sep = _EigenSeparation(state, B)
    rnd, g = grow_round(state, sep)
    reason = "already_satisfied" if g.iterations == 0 and \
        g.phases_entered == 0 else "satisfied"
    return SdpStepReport(round_no=rnd, stop_reason=reason,
                         iterations=g.iterations,
                         phases_entered=g.phases_entered,
                         residual_eig=float(sep.lam), y_round=g.y_round,
                         tight_added=g.tight_added)


def feasibility_gap(state: SdpSolverState, B) -> float:
    """Least eigenvalue of sum_j A_j xhat_j - B at the published solution."""
    sep = _EigenSeparation(state, np.asarray(B, dtype=float))
    sep.holds(state.x_best)
    return float(sep.lam)


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

