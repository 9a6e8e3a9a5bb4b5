"""Online covering LP solver with untrusted fractional suggestions, and the
growth loop that all four solver variants share.

Rows of A x >= 1 arrive one at a time. The solver keeps a guessed budget
alpha for the optimum, grows coordinates continuously against each violated
row, and restarts with a doubled budget whenever the running objective
catches up with the guess. A fractional suggestion x' steers the growth:
a lam share of every multiplicative step is distributed uniformly and the
rest proportionally to suggestion entries not yet reached. The published
solution is the coordinatewise maximum over all phases, so it only grows.

The boxed variant additionally enforces x <= 1 via a tight set: coordinates
that reach their cap stop moving and instead accrue packing duals z that
discount the dual objective.

The covering SDP solver reduces every violated round to a covering row, so
the primal-dual growth lives here once: phase start (`start_phase`), the
round loop (`grow_round`) with its tight-set snap, budget check and growth
step, and `current_solution`, `kappa_seen` and `beta_seen`. A solver keeps
only its separation step (a `Separation`: is the round's constraint met,
and if not, which covering row is violated) and its dual accumulator (the
fields its phase type adds to `Phase`, filled by `Separation.accumulate`
and at round end). For the LP the streamed row is its own cut and the
accumulator is the folded column load. The growth step calls `find_stop`,
`coefficient_vector` and `advance` through this module's globals.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ExponentOverflow, LengthMismatch, NoFeasibleSolution,
                     NonPositiveCost, NoProgress, NotConverged,
                     PhaseRestartLimit)
from .growth import (EXP_GUARD, StopEvent, advance, coefficient_vector,
                     find_stop)
from .instances import (AdviceVector, ConstraintSource, CoveringLpInstance,
                        SolverParams, row_arrays)
# Only run_source's debug check calls it; kept as a module name because the
# traced benchmark rebinds it here.
from .instances import validate_row

SNAP = 1e-12            # proximity at which a boxed coordinate counts as tight
ADVICE_ROW_TOL = 1e-9   # slack when testing a row against the suggestion
OBJ_ENTRY_TOL = 1e-12   # relative slack for the budget check at iteration entry
MAX_ROUNDS = 1_000_000  # safety stop for oracle-driven runs
MAX_ITER_ROUND = 200_000  # safety stop for the growth steps of one round


@dataclass
class Phase:
    """One guess-and-double phase; each solver's phase type adds its duals."""
    index: int                  # 1-based position in the restart sequence
    alpha: float
    x: np.ndarray
    tight: np.ndarray           # bool mask, x_j == 1
    obj: float                  # c . x, maintained incrementally
    z: np.ndarray               # packing duals of tight coordinates (boxed)
    y: dict[int, float]         # round -> dual it raised in this phase, if any


@dataclass
class LpPhase(Phase):
    load: np.ndarray            # per-column folded dual mass, sum_k a_kj y_k


@dataclass
class StepReport:
    round_no: int
    stop_reason: str            # "already_satisfied" | "satisfied_by_2"
    iterations: int
    phases_entered: int
    row_value: float
    y_round: float
    tight_added: list[int]


@dataclass
class IterationCoeffs:
    """Dense inspection surface for one growth iteration.

    B is the multiplicative form of the curve: x_j(y) = B_j e^{...} - D_j
    matches the incremental form used internally at the current point.
    """
    D: np.ndarray
    B: np.ndarray
    x_bar: np.ndarray
    below_advice: np.ndarray


@dataclass
class DualCertificate:
    y: dict[int, float]
    z: np.ndarray
    scale: float                # divide duals by this to restore feasibility
    objective: float            # sum(y) - sum(z), before scaling


@dataclass
class SolverState:
    """What every solver variant tracks; solver states add their own."""
    n: int
    c: np.ndarray
    boxed: bool
    advice: AdviceVector | None
    params: SolverParams
    phase: Phase | None = None
    alpha_history: list[float] = field(default_factory=list)
    x_best: np.ndarray = field(init=False)
    round_no: int = 0
    violations_seen: int = 0
    iterations: int = 0
    col_max: np.ndarray = field(init=False)
    col_min: np.ndarray = field(init=False)
    sparsity_seen: float = 0.0
    trace: list = field(default_factory=list)

    def __post_init__(self):
        self.x_best = np.zeros(self.n)
        self.col_max = np.zeros(self.n)
        self.col_min = np.full(self.n, np.inf)


@dataclass
class LpSolverState(SolverState):
    def new_phase(self, **shared) -> LpPhase:
        return LpPhase(load=np.zeros(self.n), **shared)


@dataclass
class RoundGrowth:
    """What the shared loop did in one round; both step reports build on it."""
    iterations: int = 0
    phases_entered: int = 0
    y_round: float = 0.0
    tight_added: list[int] = field(default_factory=list)
    last_event: str | None = None


class Separation:
    """A solver's separation step, as the shared growth loop uses it.

    `support` holds the coordinates the round's constraint can involve.
    holds(x) tells whether the constraint is met at x; once it fails and the
    budget check passes, cut() gives the violated covering row as weights
    over `support` and a right side. accumulate(ph, delta) adds one growth
    step's dual mass to the solver's own accumulators.
    """
    support: np.ndarray

    def accumulate(self, ph: Phase, delta: float) -> None:
        pass

    def trace_fields(self) -> dict:
        return {}


class _RowSeparation(Separation):
    """The LP's separation step: a streamed row is its own cut."""

    def __init__(self, idx: np.ndarray, vals: np.ndarray, tol_feas: float):
        self.support, self.vals, self.tol_feas = idx, vals, tol_feas
        self.value = 0.0

    def holds(self, x: np.ndarray) -> bool:
        self.value = float(self.vals @ x[self.support])
        return self.value >= 1.0 - self.tol_feas

    def cut(self) -> tuple[np.ndarray, float]:
        return self.vals, 1.0


def new_lp_solver(n, costs, advice: AdviceVector | None = None,
                  params: SolverParams | None = None,
                  boxed: bool = False) -> LpSolverState:
    params = params if params is not None else SolverParams()
    c = np.asarray(costs, dtype=float)
    if c.shape != (n,) or not np.all(np.isfinite(c)) or np.any(c <= 0):
        raise NonPositiveCost("costs must be finite and strictly positive")
    if advice is not None and advice.x_prime.shape != (n,):
        raise LengthMismatch("advice length does not match n")
    return LpSolverState(n=n, c=c, boxed=boxed, advice=advice, params=params)


def solver_for_instance(inst: CoveringLpInstance,
                        advice: AdviceVector | None = None,
                        params: SolverParams | None = None) -> LpSolverState:
    return new_lp_solver(inst.n, inst.c, advice=advice, params=params,
                         boxed=inst.boxed)


def start_phase(state: SolverState, alpha: float) -> None:
    """Open the next phase with budget alpha; the point starts at
    alpha / (2 n c), capped at the suggestion and, when boxed, at 1."""
    if not (np.isfinite(alpha) and alpha > 0.0):
        # A budget of inf would publish x = inf; one of 0 never grows.
        raise ExponentOverflow(f"budget guess {alpha} is not finite and "
                               "positive")
    if state.phase is not None:
        np.maximum(state.x_best, state.phase.x, out=state.x_best)
    index = len(state.alpha_history) + 1
    if index > state.params.max_phase:
        raise PhaseRestartLimit(
            f"exceeded {state.params.max_phase} phase restarts")
    state.alpha_history.append(alpha)
    x = alpha / (2.0 * state.n * state.c)
    if state.advice is not None:
        x = np.minimum(state.advice.x_prime, x)
    if state.boxed:
        x = np.minimum(x, 1.0)
    tight = (x >= 1.0 - SNAP) if state.boxed else np.zeros(state.n, dtype=bool)
    x = np.where(tight, 1.0, x)
    state.phase = state.new_phase(index=index, alpha=alpha, x=x, tight=tight,
                                  obj=float(state.c @ x),
                                  z=np.zeros(state.n), y={})


def grow_round(state: SolverState, rnd: int, sep: Separation,
               branch_feasible: bool) -> RoundGrowth:
    """Grow the active phase until `sep` finds round `rnd` satisfied.

    branch_feasible says whether the suggestion itself meets the round's
    constraint, which arms suggestion-proportional sharing.
    """
    g = RoundGrowth()
    counted_violation = False
    while True:
        if g.iterations > MAX_ITER_ROUND:
            raise NotConverged(
                f"round {rnd} still violated after {MAX_ITER_ROUND} steps")
        ph = state.phase
        if state.boxed:
            idx = sep.support
            hit = (ph.x[idx] >= 1.0 - SNAP) & ~ph.tight[idx]
            if hit.any():
                cols = idx[hit]
                ph.obj += float(state.c[cols] @ (1.0 - ph.x[cols]))
                ph.x[cols] = 1.0
                ph.tight[cols] = True
                g.tight_added.extend(int(j) for j in cols)
        if sep.holds(ph.x):
            break
        if ph.obj >= ph.alpha * (1.0 - OBJ_ENTRY_TOL):
            start_phase(state, ph.alpha * 2.0)
            g.phases_entered += 1
            g.y_round = 0.0
            continue
        if not counted_violation:
            state.violations_seen += 1
            counted_violation = True
        ev = _grow_step(state, rnd, ph, sep, branch_feasible)
        g.iterations += 1
        g.y_round += ev.delta
        g.last_event = ev.kind
        if ev.kind == "objective":
            # Budget hit: double the guess and reprocess this round, even
            # when the constraint was met at the same instant. Advice and
            # cap events outrank the budget in ties, so trusted snaps never
            # trigger a spurious restart.
            start_phase(state, ph.alpha * 2.0)
            g.phases_entered += 1
            g.y_round = 0.0
    ph = state.phase
    if g.y_round > 0.0:
        ph.y[rnd] = g.y_round
    np.maximum(state.x_best, ph.x, out=state.x_best)
    return g


def _grow_step(state: SolverState, rnd: int, ph: Phase, sep: Separation,
               branch_feasible: bool) -> StopEvent:
    """One growth iteration along the row `sep.cut()` gives, up to the
    first stop event; moves the point and the duals, records the trace."""
    w_row, rhs = sep.cut()
    idx = sep.support
    free = ~ph.tight[idx]
    fidx = idx[free]
    w = w_row[free]
    tight_mass = float(w_row[~free].sum())
    if float(w.sum()) <= 0.0:
        why = ("every coordinate it weighs is at its cap" if tight_mass > 0.0
               else "it has no weight on any coordinate")
        raise NoFeasibleSolution(
            f"round {rnd}: the constraint reaches only {tight_mass:.6g} of "
            f"{rhs:.6g}; {why}")
    capacity = rhs - tight_mass
    if state.boxed:
        state.sparsity_seen = max(state.sparsity_seen,
                                  float(w.sum()) / capacity)

    xb = ph.x[fidx]
    cf = state.c[fidx]
    adv = state.advice
    if adv is not None:
        adv_f = adv.x_prime[fidx]
        below = (xb < adv_f).astype(float)
        lam = adv.lam
    else:
        adv_f = np.zeros(fidx.size)
        below = np.zeros(fidx.size)
        lam = 1.0
    D = coefficient_vector(w, adv_f, below, lam, branch_feasible, capacity)
    if branch_feasible and not (((w > 0) & (xb + D > 0)).any()):
        # Suggestion-proportional sharing can stall when the suggestion has
        # no mass along this row; fall back to uniform.
        D = coefficient_vector(w, adv_f, below, lam, False, capacity)

    ev = find_stop(xb, D, w, cf, 2.0 * capacity, ph.alpha, ph.obj,
                   np.where(below > 0, adv_f, np.inf), state.boxed,
                   state.params.tol_bisect)
    state.iterations += 1
    x_new = advance(xb, D, w, cf, ev.delta)
    if ev.kind == "advice":
        x_new[ev.j] = adv_f[ev.j]
    elif ev.kind == "cap":
        x_new[ev.j] = 1.0
    ph.obj += float(cf @ (x_new - xb))
    ph.x[fidx] = x_new
    if tight_mass > 0.0:
        ph.z[idx[~free]] += w_row[~free] * ev.delta
    sep.accumulate(ph, ev.delta)
    if state.params.trace:
        state.trace.append({
            "round": rnd, "phase": ph.index, "alpha": ph.alpha,
            "event": ev.kind, "j": None if ev.j is None else int(fidx[ev.j]),
            "delta": ev.delta, "obj": ph.obj, **sep.trace_fields(),
        })
    return ev


def _initial_alpha(state: LpSolverState, idx, vals) -> float:
    if state.params.initial_alpha is not None:
        return float(state.params.initial_alpha)
    return float(np.min(state.c[idx] / vals))


def process_row(state: LpSolverState, row) -> StepReport:
    """Feed one covering row; returns once the row is satisfied.

    The row is checked by `instances.row_arrays`; an instance's rows
    (`instances.Row`) were checked when it was built and are not checked
    again.

    Raises NoFeasibleSolution when a boxed row cannot reach 1 even with every
    supported coordinate at its cap, and PhaseRestartLimit / ExponentOverflow
    on runaway guesses.
    """
    idx, vals = row_arrays(row, state.n)
    state.round_no += 1
    # Validated columns are unique, so plain fancy-index updates suffice.
    state.col_max[idx] = np.maximum(state.col_max[idx], vals)
    state.col_min[idx] = np.minimum(state.col_min[idx], vals)
    if state.phase is None:
        start_phase(state, _initial_alpha(state, idx, vals))
    adv = state.advice
    branch_feasible = adv is not None and \
        float(vals @ adv.x_prime[idx]) >= 1.0 - ADVICE_ROW_TOL

    sep = _RowSeparation(idx, vals, state.params.tol_feas)
    g = grow_round(state, state.round_no, sep, branch_feasible)
    state.phase.load[idx] += vals * g.y_round
    reason = "satisfied_by_2" if g.last_event == "target" \
        else "already_satisfied"
    return StepReport(round_no=state.round_no, stop_reason=reason,
                      iterations=g.iterations,
                      phases_entered=g.phases_entered, row_value=sep.value,
                      y_round=g.y_round, tight_added=g.tight_added)


def current_solution(state: SolverState) -> np.ndarray:
    """Published solution: coordinatewise maximum over all phases so far."""
    return state.x_best.copy()


def dual_certificate(state: LpSolverState) -> DualCertificate:
    """Duals of the active phase plus the factor restoring dual feasibility.

    y holds only the rounds that raised dual mass in the active phase, each
    mapped to that mass; every other round's dual is zero. Dividing every y
    (and z) by scale yields A^T y <= c (minus z when boxed); the unscaled
    objective sum(y) - sum(z) is reported alongside.
    """
    if state.phase is None:
        return DualCertificate(y={}, z=np.zeros(state.n), scale=0.0,
                               objective=0.0)
    ph = state.phase
    scale = float(np.max((ph.load - ph.z) / state.c)) if state.n else 0.0
    scale = max(scale, 0.0)
    objective = float(sum(ph.y.values()) - ph.z.sum())
    return DualCertificate(y=dict(ph.y), z=ph.z.copy(), scale=scale,
                           objective=objective)


def compute_coeffs(state: LpSolverState, row, y: float) -> IterationCoeffs:
    """Dense growth coefficients for one iteration against `row`.

    Mirrors the internal support-compressed computation: D comes from the
    same `coefficient_vector`, and B re-expresses the curve multiplicatively
    at the in-row dual y (load folded from earlier rounds plus a_ij * y).
    """
    idx, vals = row_arrays(row, state.n)
    if state.phase is None:
        raise NoProgress("no active phase; feed a row first")
    ph = state.phase
    a_dense = np.zeros(state.n)
    a_dense[idx] = vals
    free = ~ph.tight
    w_dense = np.where(free, a_dense, 0.0)
    adv = state.advice
    if adv is not None:
        below_dense = (ph.x < adv.x_prime).astype(float)
        adv_dense = adv.x_prime
        lam = adv.lam
        branch = float(vals @ adv.x_prime[idx]) >= 1.0 - ADVICE_ROW_TOL
    else:
        below_dense = np.zeros(state.n)
        adv_dense = np.zeros(state.n)
        lam = 1.0
        branch = False
    capacity = 1.0 - float(a_dense[ph.tight].sum()) if state.boxed else 1.0
    D = coefficient_vector(w_dense, adv_dense, below_dense, lam, branch,
                           capacity)
    expo = (ph.load + a_dense * y - ph.z) / state.c
    if np.any(expo > EXP_GUARD):
        raise ExponentOverflow("coefficient exponent exceeds guard")
    # B pins the multiplicative form to the current point: x_bar = B e^expo - D.
    B = (ph.x + D) / np.exp(expo)
    return IterationCoeffs(D=D, B=B, x_bar=ph.x.copy(),
                           below_advice=below_dense.astype(bool))


def find_stop_event(state: LpSolverState, row, coeffs: IterationCoeffs) -> StopEvent:
    """First stop event implied by `coeffs` for this row, from the current point."""
    idx, vals = row_arrays(row, state.n)
    ph = state.phase
    free = ~ph.tight[idx]
    fidx = idx[free]
    w = vals[free]
    capacity = 1.0 - float(vals[~free].sum()) if state.boxed else 1.0
    adv = state.advice
    if adv is not None:
        below = coeffs.below_advice[fidx]
        advice_target = np.where(below, adv.x_prime[fidx], np.inf)
    else:
        advice_target = np.full(fidx.size, np.inf)
    ev = find_stop(coeffs.x_bar[fidx], coeffs.D[fidx], w, state.c[fidx],
                   2.0 * capacity, ph.alpha, ph.obj, advice_target,
                   state.boxed, state.params.tol_bisect)
    if ev.j is not None:
        ev = StopEvent(kind=ev.kind, j=int(fidx[ev.j]), delta=ev.delta)
    return ev


def run_source(state: LpSolverState, source: ConstraintSource) -> list[StepReport]:
    """Drive the solver from a fixed row list or a separation oracle.

    Oracle mode calls source.oracle(published_x) and stops at None. With
    params.debug each produced row is re-checked to be genuinely violated.
    """
    reports = []
    if source.rows is not None:
        for row in source.rows:
            reports.append(process_row(state, row))
        return reports
    for _ in range(MAX_ROUNDS):
        x = current_solution(state)
        row = source.oracle(x)
        if row is None:
            return reports
        if state.params.debug:
            checked = validate_row(row, state.n)
            val = sum(a * x[j] for j, a in checked)
            if val >= 1.0:
                raise NoProgress(
                    f"oracle produced a satisfied row (value {val:.6g})")
        reports.append(process_row(state, row))
    raise NotConverged(f"oracle still separating after {MAX_ROUNDS} rounds")


def run_lp(inst: CoveringLpInstance, advice: AdviceVector | None = None,
           params: SolverParams | None = None):
    """Convenience: run the full row list of an instance, return (state, reports)."""
    state = solver_for_instance(inst, advice=advice, params=params)
    reports = [process_row(state, row) for row in inst.rows]
    return state, reports


def kappa_seen(state: SolverState) -> float:
    """Largest within-column spread max_j a^max_j / a^min_j over revealed rows."""
    seen = state.col_max > 0
    if not seen.any():
        return 1.0
    return float(np.max(state.col_max[seen] / state.col_min[seen]))


def beta_seen(state: SolverState) -> float:
    """Largest entry-to-cost ratio max_j a^max_j / c_j over revealed rows."""
    seen = state.col_max > 0
    if not seen.any():
        return 0.0
    return float(np.max(state.col_max[seen] / state.c[seen]))
