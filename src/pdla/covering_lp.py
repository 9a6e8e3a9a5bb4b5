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
step, and `current_solution`, `kappa_seen` and `beta_seen`. So do the
solver-state checks (`SolverState`), the round entry with the first budget
guess (`open_round`) and the dual certificate (`dual_certificate`). A
solver keeps only its separation step (a `Separation`: is the round's
constraint met, and if not, which covering row is violated), its first
budget estimate and its step report. Every growth step folds its dual into
the column load `Phase.load` (A^T y, or A_j . Y for the SDP) and the dual
objective `Phase.dual_obj` (right side times dual), so only the SDP keeps a
dual accumulator of its own, the matrix dual (`Separation.accumulate`).
The step and the inspection views share one free-support computation
(`_FreeSupport`); the step calls `find_stop`, `coefficient_vector` and
`advance` through this module's globals.
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
    """One guess-and-double phase; the SDP's phase type adds its own duals."""
    index: int                  # 1-based position in the restart sequence
    alpha: float
    x: np.ndarray
    tight: np.ndarray           # bool mask, x_j == 1
    obj: float                  # c . x, maintained incrementally
    z: np.ndarray               # packing duals of tight coordinates (boxed)
    y: dict[int, float]         # round -> dual it raised in this phase, if any
    load: np.ndarray            # column loads: each step's row times its dual
    dual_obj: float             # sum over steps of right side times dual


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
    objective: float            # dual objective - sum(z), before scaling


@dataclass
class SolverState:
    """What every solver variant tracks; solver states add their own.

    Checks the costs (finite and positive, one per coordinate) and the
    suggestion's length; params defaults to `SolverParams()`."""
    n: int
    c: np.ndarray
    boxed: bool
    advice: AdviceVector | None
    params: SolverParams | None = None
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
        self.c = c = np.asarray(self.c, dtype=float)
        if c.shape != (self.n,) or not np.all(np.isfinite(c)) \
                or np.any(c <= 0):
            raise NonPositiveCost("costs must be finite and strictly positive")
        if self.advice is not None and self.advice.x_prime.shape != (self.n,):
            raise LengthMismatch("advice length does not match n")
        if self.params is None:
            self.params = SolverParams()
        self.x_best = np.zeros(self.n)
        self.col_max = np.zeros(self.n)
        self.col_min = np.full(self.n, np.inf)

    def new_phase(self, **shared) -> Phase:
        return Phase(**shared)


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
                  boxed: bool = False) -> SolverState:
    return SolverState(n=n, c=costs, boxed=boxed, advice=advice,
                       params=params)


def solver_for_instance(inst: CoveringLpInstance,
                        advice: AdviceVector | None = None,
                        params: SolverParams | None = None) -> SolverState:
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
                                  z=np.zeros(state.n), y={},
                                  load=np.zeros(state.n), dual_obj=0.0)


def open_round(state: SolverState, estimate) -> int:
    """Count a new round and return its number; before the first phase,
    open phase 1 at params.initial_alpha, or at estimate() when unset."""
    state.round_no += 1
    if state.phase is None:
        alpha = state.params.initial_alpha
        start_phase(state, float(estimate() if alpha is None else alpha))
    return state.round_no


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
        if ph.obj < ph.alpha * (1.0 - OBJ_ENTRY_TOL):
            if not counted_violation:
                state.violations_seen += 1
                counted_violation = True
            ev = _grow_step(state, rnd, ph, sep, branch_feasible)
            g.iterations += 1
            g.y_round += ev.delta
            g.last_event = ev.kind
            if ev.kind != "objective":
                continue
        # The budget is used up, at entry or by the step's objective event:
        # double the guess and reprocess this round, even when the step met
        # the constraint at the same instant. Advice and cap events outrank
        # the budget in ties, so trusted snaps never trigger a spurious
        # restart.
        start_phase(state, ph.alpha * 2.0)
        g.phases_entered += 1
        g.y_round = 0.0
    ph = state.phase
    if g.y_round > 0.0:
        ph.y[rnd] = g.y_round
    np.maximum(state.x_best, ph.x, out=state.x_best)
    return g


class _FreeSupport:
    """The next growth step's view of the row `w_row` over `idx` (right side
    `rhs`): its free coordinates `fidx` with their weights, point and costs,
    the capacity the tight ones leave, the suggestion `adv_f` and the mask
    `below` where the point is under it, and the growth coefficients D."""

    def __init__(self, state: SolverState, rnd: int, idx: np.ndarray,
                 w_row: np.ndarray, rhs: float, branch_feasible: bool):
        self.state, self.idx, self.w_row = state, idx, w_row
        ph = state.phase
        self.free = free = ~ph.tight[idx]
        self.fidx = fidx = idx[free]
        self.w = w = w_row[free]
        self.tight_mass = float(w_row[~free].sum())
        if float(w.sum()) <= 0.0:
            why = ("every coordinate it weighs is at its cap"
                   if self.tight_mass > 0.0
                   else "it has no weight on any coordinate")
            raise NoFeasibleSolution(
                f"round {rnd}: the constraint reaches only "
                f"{self.tight_mass:.6g} of {rhs:.6g}; {why}")
        self.capacity = rhs - self.tight_mass
        self.xb = xb = ph.x[fidx]
        self.cf = state.c[fidx]
        adv = state.advice
        self.adv_f = np.zeros(fidx.size) if adv is None else adv.x_prime[fidx]
        self.below = xb < self.adv_f        # never, without a suggestion
        lam = 1.0 if adv is None else adv.lam
        D = coefficient_vector(w, self.adv_f, self.below, lam,
                               branch_feasible, self.capacity)
        if branch_feasible and not (((w > 0) & (xb + D > 0)).any()):
            # Suggestion-proportional sharing can stall when the suggestion
            # has no mass along this row; fall back to uniform.
            D = coefficient_vector(w, self.adv_f, self.below, lam, False,
                                   self.capacity)
        self.D = D

    def stop(self, xb: np.ndarray, D: np.ndarray,
             below: np.ndarray) -> StopEvent:
        """First stop event from the point xb along D, with advice events
        armed where `below`."""
        state, ph = self.state, self.state.phase
        return find_stop(xb, D, self.w, self.cf, 2.0 * self.capacity,
                         ph.alpha, ph.obj, np.where(below, self.adv_f, np.inf),
                         state.boxed, state.params.tol_bisect)


def _grow_step(state: SolverState, rnd: int, ph: Phase, sep: Separation,
               branch_feasible: bool) -> StopEvent:
    """One growth iteration along the row `sep.cut()` gives, up to the
    first stop event; moves the point and the duals, records the trace."""
    w_row, rhs = sep.cut()
    idx = sep.support
    s = _FreeSupport(state, rnd, idx, w_row, rhs, branch_feasible)
    if state.boxed:
        state.sparsity_seen = max(state.sparsity_seen,
                                  float(s.w.sum()) / s.capacity)
    ev = s.stop(s.xb, s.D, s.below)
    state.iterations += 1
    x_new = advance(s.xb, s.D, s.w, s.cf, ev.delta)
    if ev.kind == "advice":
        x_new[ev.j] = s.adv_f[ev.j]
    elif ev.kind == "cap":
        x_new[ev.j] = 1.0
    ph.obj += float(s.cf @ (x_new - s.xb))
    ph.x[s.fidx] = x_new
    if s.tight_mass > 0.0:
        ph.z[idx[~s.free]] += w_row[~s.free] * ev.delta
    ph.load[idx] += w_row * ev.delta
    ph.dual_obj += rhs * ev.delta
    sep.accumulate(ph, ev.delta)
    if state.params.trace:
        state.trace.append({
            "round": rnd, "phase": ph.index, "alpha": ph.alpha,
            "event": ev.kind, "j": None if ev.j is None else int(s.fidx[ev.j]),
            "delta": ev.delta, "obj": ph.obj, **sep.trace_fields(),
        })
    return ev


def _advice_feasible(state: SolverState, idx: np.ndarray,
                     vals: np.ndarray) -> bool:
    """Whether the suggestion itself satisfies the row (vals over idx)."""
    adv = state.advice
    return adv is not None and \
        float(vals @ adv.x_prime[idx]) >= 1.0 - ADVICE_ROW_TOL


def _initial_alpha(state: SolverState, idx, vals) -> float:
    """First budget guess: the cheapest way to cover the row alone."""
    return float(np.min(state.c[idx] / vals))


def process_row(state: SolverState, row) -> StepReport:
    """Feed one covering row; returns once the row is satisfied.

    The row is checked by `instances.row_arrays`; an instance's rows
    (`instances.Row`) were checked when it was built and are not checked
    again.

    Raises NoFeasibleSolution when a boxed row cannot reach 1 even with every
    supported coordinate at its cap, and PhaseRestartLimit / ExponentOverflow
    on runaway guesses.
    """
    idx, vals = row_arrays(row, state.n)
    # Validated columns are unique, so plain fancy-index updates suffice.
    state.col_max[idx] = np.maximum(state.col_max[idx], vals)
    state.col_min[idx] = np.minimum(state.col_min[idx], vals)
    rnd = open_round(state, lambda: _initial_alpha(state, idx, vals))
    sep = _RowSeparation(idx, vals, state.params.tol_feas)
    g = grow_round(state, rnd, sep, _advice_feasible(state, idx, vals))
    reason = "satisfied_by_2" if g.last_event == "target" \
        else "already_satisfied"
    return StepReport(round_no=rnd, stop_reason=reason,
                      iterations=g.iterations,
                      phases_entered=g.phases_entered, row_value=sep.value,
                      y_round=g.y_round, tight_added=g.tight_added)


def current_solution(state: SolverState) -> np.ndarray:
    """Published solution: coordinatewise maximum over all phases so far."""
    return state.x_best.copy()


def dual_certificate(state: SolverState) -> DualCertificate:
    """Duals of the active phase plus the factor restoring dual feasibility.

    y holds only the rounds that raised dual mass in the active phase, each
    mapped to that mass; every other round's dual is zero. scale is the
    largest column load net of z over the cost (0 without dual mass), so
    dividing every y (and z) by it yields A^T y <= c (minus z when boxed).
    The unscaled objective is the sum over growth steps of right side times
    dual, minus sum(z). Before the first phase everything is zero.
    """
    if state.phase is None:
        return DualCertificate(y={}, z=np.zeros(state.n), scale=0.0,
                               objective=0.0)
    ph = state.phase
    scale = max(float(np.max((ph.load - ph.z) / state.c)), 0.0)
    return DualCertificate(y=dict(ph.y), z=ph.z.copy(), scale=scale,
                           objective=float(ph.dual_obj - ph.z.sum()))


def _next_step(state: SolverState, row) -> _FreeSupport:
    """The step process_row takes next against `row` in the active phase."""
    idx, vals = row_arrays(row, state.n)
    if state.phase is None:
        raise NoProgress("no active phase; feed a row first")
    return _FreeSupport(state, state.round_no + 1, idx, vals, 1.0,
                        _advice_feasible(state, idx, vals))


def compute_coeffs(state: SolverState, row, y: float) -> IterationCoeffs:
    """Dense view of the next growth step against `row`.

    D and below_advice are the step's own, on the row's free support, and
    zero / False elsewhere, where nothing moves in the step. B re-expresses
    the curve multiplicatively at the in-row dual y (column load plus
    a_ij * y).
    """
    s = _next_step(state, row)
    ph = state.phase
    D = np.zeros(state.n)
    D[s.fidx] = s.D
    below = np.zeros(state.n, dtype=bool)
    below[s.fidx] = s.below
    a_dense = np.zeros(state.n)
    a_dense[s.idx] = s.w_row
    expo = (ph.load + a_dense * y - ph.z) / state.c
    if np.any(expo > EXP_GUARD):
        raise ExponentOverflow("coefficient exponent exceeds guard")
    # B pins the multiplicative form to the current point: x_bar = B e^expo - D.
    B = (ph.x + D) / np.exp(expo)
    return IterationCoeffs(D=D, B=B, x_bar=ph.x.copy(), below_advice=below)


def find_stop_event(state: SolverState, row, coeffs: IterationCoeffs) -> StopEvent:
    """First stop event implied by `coeffs` for this row, from the current
    point; `j` is a column index."""
    s = _next_step(state, row)
    ev = s.stop(coeffs.x_bar[s.fidx], coeffs.D[s.fidx],
                coeffs.below_advice[s.fidx])
    if ev.j is not None:
        ev = StopEvent(kind=ev.kind, j=int(s.fidx[ev.j]), delta=ev.delta)
    return ev


def run_source(state: SolverState, source: ConstraintSource) -> list[StepReport]:
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
