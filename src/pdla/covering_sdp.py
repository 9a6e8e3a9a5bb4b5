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
the first budget guess, the residual's least eigenpair, the implicit row and
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
from .instances import (AdviceVector, CoveringSdpInstance, SolverParams,
                        as_numbers)
from .symmetric import is_psd, min_eigpair

# Relative floor on the implicit row: v'A_j v <= SPAN_TOL tr(A_j) counts as
# no weight. Roundoff leaves v'A_j v slightly positive along a null
# direction of A_j, so without it a target outside the span of the A_j
# grows x forever instead of raising NoFeasibleSolution.
SPAN_TOL = 1e-10


@dataclass
class SdpPhase(Phase):
    Y: np.ndarray               # matrix dual, sum of delta * v v'


@dataclass(slots=True)
class SdpStepReport:
    round_no: int = 0
    stop_reason: str = "already_satisfied"   # | "satisfied"
    iterations: int = 0
    phases_entered: int = 0
    residual_eig: float = 0.0   # least eigenvalue at exit (>= -tol)
    tight_added: list[int] = field(default_factory=list)


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
    support: np.ndarray = field(init=False)           # every coordinate

    def __post_init__(self):
        super().__post_init__()
        self.A = A = as_numbers(self.A, "A")
        if A.shape != (self.n, self.d, self.d):
            raise DimensionMismatch(
                f"A is {A.shape}, expected {(self.n, self.d, self.d)}")
        self.traces = np.trace(A, axis1=1, axis2=2)
        self.S_advice = None if self.advice is None else np.tensordot(
            self.advice.x_prime, A, axes=1)
        # The stream starts from zero, as in make_sdp_instance, so the first
        # target passes the same monotone check as every later one.
        self.last_B = np.zeros((self.d, self.d))
        self.support = np.arange(self.n)

    def new_phase(self, **shared) -> SdpPhase:
        return SdpPhase(Y=np.zeros((self.d, self.d)), **shared)


class _EigenSeparation(Separation):
    """The SDP's separation step against one target B: the residual's least
    eigenpair (lam, v) and the implicit row w_j = v' A_j v >= b = v' B v.
    norm is ||B||_F, which sets the floor the least eigenvalue must reach."""

    def __init__(self, state: SdpSolverState, B: np.ndarray, norm: float):
        self.state, self.B = state, B
        self.support = state.support
        self.A_flat = state.A.reshape(state.n, state.d * state.d)
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


def process_matrix(state: SdpSolverState, B) -> SdpStepReport:
    """Feed one target matrix; returns once the residual is PSD within tol.

    Raises MalformedDocument on a non-finite target, NonMonotoneB when the
    stream decreases, NoFeasibleSolution when a residual direction admits
    no growth, and PhaseRestartLimit on runaway budget guesses.
    """
    B, norm = _target(state, B)
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
        return SdpStepReport(round_no=state.round_no, residual_eig=0.0)
    sep = _EigenSeparation(state, B, norm)
    report = SdpStepReport()
    grow_round(state, sep, report)
    # The round's cut arrays are not an instance's: fold rather than hold.
    state.fold_columns()
    if report.iterations or report.phases_entered:
        report.stop_reason = "satisfied"
    report.residual_eig = float(sep.lam)
    return report


def _target(state: SdpSolverState, B) -> tuple[np.ndarray, float]:
    """B as a float array (`instances.as_numbers`) and its Frobenius norm,
    after the checks: DimensionMismatch unless it is d x d,
    MalformedDocument unless it and its norm are finite."""
    B = as_numbers(B, "target")
    if B.shape != (state.d, state.d):
        raise DimensionMismatch(
            f"target is {B.shape}, expected {(state.d, state.d)}")
    if not np.isfinite(B).all():
        raise MalformedDocument("target must be finite")
    norm = float(np.linalg.norm(B))
    if not np.isfinite(norm):
        # A floor of inf would count every residual as PSD.
        raise MalformedDocument("target is too large: its norm overflows")
    return B, norm


def feasibility_gap(state: SdpSolverState, B) -> float:
    """Least eigenvalue of sum_j A_j xhat_j - B at the published solution;
    the target is checked as process_matrix checks it."""
    sep = _EigenSeparation(state, *_target(state, B))
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

