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
round (`grow_round`: its count, phase 1, budget check and growth steps,
returned as its step report), the growth step (`_grow_step`, which
snaps to the tight set what it brings to the cap), the solver-state checks
(`SolverState`), the step report (`StepReport`), the dual certificate
(`dual_certificate`), `current_solution`, `kappa_seen` and `beta_seen`. A
solver keeps only its separation step (a `Separation`): the first budget
guess, whether the round's constraint is met, the violated covering row,
and whether the suggestion meets the constraint, asked only at the round's
first growth step. Every growth step folds its dual into the column load
`Phase.load` (A^T y, or A_j . Y for the SDP) and the dual objective
`Phase.dual_obj` (right side times dual), so only the SDP keeps a dual
accumulator of its own, the matrix dual (`Separation.accumulate`). The
growth step (`_grow_step`) calls `find_stop`, `coefficient_vector` and
`advance` through this module's globals.

`process_row` feeds one row. Once a phase is open, a row that holds at its
point by the one row test (`_row_test`: `vals.dot(x[idx]) >= 1 - tol_feas`)
only counts its round; any other gets its separation step
(`_RowSeparation`) and enters `grow_round`. Rows and SDP cuts queue their
entries for the column statistics (`SolverState.col_max` / `col_min`),
which fold on read, every COLUMN_FOLD rows and at the end of an SDP round.
An instance's rows go through `run_lp`, a loop over `process_row`; a
separation oracle goes through `run_source`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ExponentOverflow, NoFeasibleSolution, NoProgress,
                     NotConverged, PhaseRestartLimit)
from .growth import TOL, advance, coefficient_vector, find_stop
from .instances import (BOXED_FLAG, AdviceVector, CoveringLpInstance, Row,
                        SolverParams, as_count, as_flag, cost_vector,
                        row_arrays, validate_advice)
# Not called here; kept because the traced benchmark rebinds this name.
from .instances import validate_row  # noqa: F401

SNAP = 1e-12            # proximity at which a boxed coordinate counts as tight
ADVICE_ROW_TOL = 1e-9   # slack when testing a row against the suggestion
OBJ_ENTRY_TOL = 1e-12   # relative slack for the budget check at iteration entry
MAX_ROUNDS = 1_000_000  # safety stop for oracle-driven runs
MAX_ITER_ROUND = 200_000  # safety stop for the growth steps of one round
COLUMN_FOLD = 64        # queued rows that make the column statistics fold


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


@dataclass(slots=True)
class StepReport:
    round_no: int = 0
    stop_reason: str = "already_satisfied"   # | "satisfied" | "satisfied_by_2"
    iterations: int = 0
    phases_entered: int = 0
    # The LP row's value at the phase point; it stays 0.0 on an SDP round.
    row_value: float = 0.0
    tight_added: list[int] = field(default_factory=list)


@dataclass
class DualCertificate:
    y: dict[int, float]
    z: np.ndarray
    scale: float                # divide duals by this to restore feasibility
    objective: float            # dual objective - sum(z), before scaling


@dataclass
class SolverState:
    """What every solver variant tracks; solver states add their own.

    Checks n (`instances.as_count`), the costs, boxed and the suggestion
    (`validate_advice`: when boxed, AdviceAboveCap above 1 + 1e-12) as
    `make_lp_instance` and `validate_advice` do; params defaults to
    `SolverParams()`."""
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
    sparsity_seen: float = 0.0
    trace: list = field(default_factory=list)

    def __post_init__(self):
        self.n = as_count(self.n, "n must be a positive integer")
        self.c = cost_vector(self.c, self.n)
        self.boxed = as_flag(self.boxed, BOXED_FLAG)
        if self.advice is not None:
            self.advice = validate_advice(self.advice.x_prime,
                                          self.advice.lam, self.n, self.boxed)
        if self.params is None:
            self.params = SolverParams()
        self.x_best = np.zeros(self.n)
        self._col_max = np.zeros(self.n)
        self._col_min = np.full(self.n, np.inf)
        self._pending = []      # (columns, values) pairs not yet folded

    @property
    def col_max(self) -> np.ndarray:
        """Largest entry seen in each column, 0 where none was."""
        self.fold_columns()
        return self._col_max

    @property
    def col_min(self) -> np.ndarray:
        """Least entry seen in each column, inf where none was."""
        self.fold_columns()
        return self._col_min

    def add_columns(self, cols: np.ndarray, vals: np.ndarray) -> None:
        """Queue one row's entries (unique columns) for the statistics."""
        self._pending.append((cols, vals))
        if len(self._pending) >= COLUMN_FOLD:
            self.fold_columns()

    def fold_columns(self) -> None:
        """Fold the queued entries in, in arrival order: rows can share
        columns, so it takes ufunc.at, and max and min are exact."""
        if self._pending:
            cols, vals = (np.concatenate(a) for a in zip(*self._pending))
            np.maximum.at(self._col_max, cols, vals)
            np.minimum.at(self._col_min, cols, vals)
            self._pending.clear()

    def new_phase(self, **shared) -> Phase:
        return Phase(**shared)


class Separation:
    """A solver's separation step, as the shared growth loop uses it.

    `support` holds the coordinates the round's constraint can involve.
    estimate() gives the budget guess that opens phase 1. holds(x) tells
    whether the constraint is met at x; once it fails and the budget check
    passes, cut() gives the violated covering row as weights over `support`
    and a right side, and advice_holds(adv) whether the suggestion meets
    the constraint. accumulate(ph, delta) adds one growth step's dual mass
    to the solver's own accumulators.
    """
    support: np.ndarray

    def accumulate(self, ph: Phase, delta: float) -> None:
        pass

    def trace_fields(self) -> dict:
        return {}


def _row_test(idx: np.ndarray, vals: np.ndarray, x: np.ndarray,
              tol: float) -> tuple[float, bool]:
    """The row's value at x and whether it reaches 1 - tol: every LP row
    test. `ndarray.dot` runs the same BLAS ddot as `@` on these contiguous
    float64 arrays, without matmul's dispatch."""
    value = float(vals.dot(x[idx]))
    return value, value >= 1.0 - tol


class _RowSeparation(Separation):
    """The LP's separation step: a streamed row is its own cut."""

    def __init__(self, state: SolverState, idx, vals):
        self.support, self.vals, self.c = idx, vals, state.c
        self.tol_feas = state.params.tol_feas
        self.value = 0.0

    def estimate(self) -> float:
        """The cheapest way to cover the row alone."""
        return float(np.min(self.c[self.support] / self.vals))

    def advice_holds(self, adv: AdviceVector) -> bool:
        return _row_test(self.support, self.vals, adv.x_prime,
                         ADVICE_ROW_TOL)[1]

    def holds(self, x: np.ndarray) -> bool:
        self.value, held = _row_test(self.support, self.vals, x,
                                     self.tol_feas)
        return held

    def cut(self) -> tuple[np.ndarray, float]:
        return self.vals, 1.0


def new_lp_solver(n, costs, advice: AdviceVector | None = None,
                  params: SolverParams | None = None,
                  boxed: bool = False) -> SolverState:
    return SolverState(n=n, c=costs, boxed=boxed, advice=advice,
                       params=params)


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


def grow_round(state: SolverState,
               sep: Separation) -> tuple[StepReport, str | None]:
    """Count a new round and grow the active phase until `sep` finds it
    satisfied; return the round's step report and the kind of its last
    growth event, or None.

    The report books round_no and phases_entered; the growth steps book
    iterations and tight_added on it, and their duals on the phase
    (`Phase.y`). It reads "satisfied" when the round grew or restarted.
    Before the first phase it opens phase 1 at params.initial_alpha, or at
    sep.estimate() when unset. Its first growth step asks whether the
    suggestion meets the constraint (sep.advice_holds), which arms
    suggestion-proportional sharing; a round that holds never asks.
    """
    state.round_no += 1
    report = StepReport(state.round_no)
    if state.phase is None:
        alpha = state.params.initial_alpha
        start_phase(state, float(sep.estimate() if alpha is None else alpha))
    branch_feasible = last = None
    while True:
        if report.iterations > MAX_ITER_ROUND:
            raise NotConverged(f"round {report.round_no} still violated "
                               f"after {MAX_ITER_ROUND} steps")
        ph = state.phase
        if sep.holds(ph.x):
            break
        if ph.obj < ph.alpha * (1.0 - OBJ_ENTRY_TOL):
            if branch_feasible is None:
                state.violations_seen += 1
                branch_feasible = state.advice is not None and \
                    sep.advice_holds(state.advice)
            last = _grow_step(state, report, ph, sep, branch_feasible)
            if last != "objective":
                continue
        # The budget is used up, at entry or by the step's objective event:
        # double the guess and reprocess this round, even when the step met
        # the constraint at the same instant. Advice and cap events outrank
        # the budget in ties, so trusted snaps never trigger a spurious
        # restart.
        start_phase(state, ph.alpha * 2.0)
        report.phases_entered += 1
    np.maximum(state.x_best, state.phase.x, out=state.x_best)
    if report.iterations or report.phases_entered:
        report.stop_reason = "satisfied"
    return report, last


def _grow_step(state: SolverState, report, ph: Phase, sep: Separation,
               branch_feasible: bool) -> str:
    """One growth iteration along the row `sep.cut()` gives, up to the
    first stop event: moves the point and the duals, books the step on
    `report`, records the trace and returns the event's kind. Only the
    row's free coordinates move: the tight ones take their share of the
    right side as capacity and accrue packing duals instead. When boxed,
    what the step brings within SNAP of the cap joins the tight set at 1,
    unless the objective's event abandons the phase."""
    rnd = report.round_no
    w_row, rhs = sep.cut()
    idx = sep.support
    if state.boxed:
        free = ~ph.tight[idx]
        fidx, w = idx[free], w_row[free]
        tight_mass = float(w_row[~free].sum())
    else:
        # Nothing is tight without a cap: the whole row is free.
        fidx, w, tight_mass = idx, w_row, 0.0
    wsum = float(w.sum())
    if wsum <= 0.0:
        why = ("every coordinate it weighs is at its cap" if tight_mass > 0.0
               else "it has no weight on any coordinate")
        raise NoFeasibleSolution(
            f"round {rnd}: the constraint reaches only {tight_mass:.6g} of "
            f"{rhs:.6g}; {why}")
    capacity = rhs - tight_mass
    xb = ph.x[fidx]
    cf = state.c[fidx]
    adv = state.advice
    if adv is None:
        adv_f = below = None
        lam = 1.0
    else:
        adv_f = adv.x_prime[fidx]
        below = xb < adv_f
        lam = adv.lam
    D = coefficient_vector(w, adv_f, below, lam, branch_feasible, capacity,
                           wsum)
    k = xb + D
    if branch_feasible and not (((w > 0) & (k > 0)).any()):
        # Suggestion-proportional sharing can stall when the suggestion has
        # no mass along this row; fall back to uniform.
        D = coefficient_vector(w, adv_f, below, lam, False, capacity, wsum)
        k = xb + D
    if state.boxed:
        state.sparsity_seen = max(state.sparsity_seen, wsum / capacity)
    ev = find_stop(xb, D, w, cf, 2.0 * capacity, ph.alpha, ph.obj, adv_f,
                   state.boxed, TOL, k)
    state.iterations += 1
    report.iterations += 1
    if ev.delta > 0.0:
        ph.y[rnd] = ph.y.get(rnd, 0.0) + ev.delta
    x_new = advance(xb, D, w, cf, ev.delta, k)
    if ev.kind == "advice":
        x_new[ev.j] = adv_f[ev.j]
    elif ev.kind == "cap":
        x_new[ev.j] = 1.0
    obj = ph.obj + float(cf @ (x_new - xb))
    if not (np.isfinite(x_new).all() and np.isfinite(obj)):
        raise ExponentOverflow(f"round {rnd}: a growth step of {ev.delta:.6g} "
                               "leaves the point or its cost non-finite")
    ph.obj = obj
    ph.x[fidx] = x_new
    if tight_mass > 0.0:
        ph.z[idx[~free]] += w_row[~free] * ev.delta
    ph.load[idx] += w_row * ev.delta
    ph.dual_obj += rhs * ev.delta
    sep.accumulate(ph, ev.delta)
    if state.params.trace:
        state.trace.append({
            "round": rnd, "phase": ph.index, "alpha": ph.alpha,
            "event": ev.kind, "j": None if ev.j is None else int(fidx[ev.j]),
            "delta": ev.delta, "obj": ph.obj, **sep.trace_fields(),
        })
    if state.boxed and ev.kind != "objective":
        cols = fidx[x_new >= 1.0 - SNAP]
        if cols.size:
            ph.obj += float(state.c[cols] @ (1.0 - ph.x[cols]))
            ph.x[cols] = 1.0
            ph.tight[cols] = True
            report.tight_added.extend(int(j) for j in cols)
    return ev.kind


def process_row(state: SolverState, row) -> StepReport:
    """Feed one covering row; returns once the row is satisfied.

    The row is checked by `instances.row_arrays`; an instance's rows
    (`instances.Row`) were checked when it was built and are not checked
    again. Once a phase is open, a row that holds at its point (`_row_test`
    at tol_feas) only counts its round: every round ends with x_best
    covering that point. Only a row that fails it builds its separation
    step and enters `grow_round`.

    Raises NoFeasibleSolution when a boxed row cannot reach 1 even with every
    supported coordinate at its cap, and PhaseRestartLimit / ExponentOverflow
    on runaway guesses.
    """
    idx, vals = row_arrays(row, state.n)
    state.add_columns(idx, vals)
    if state.phase is not None:
        value, held = _row_test(idx, vals, state.phase.x,
                                state.params.tol_feas)
        if held:
            state.round_no += 1
            return StepReport(state.round_no, row_value=value)
    sep = _RowSeparation(state, idx, vals)
    report, last = grow_round(state, sep)
    if last == "target":
        report.stop_reason = "satisfied_by_2"
    report.row_value = sep.value
    return report


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


def run_source(state: SolverState, oracle) -> list[StepReport]:
    """Drive the solver from a separation oracle: x -> violated row or None.

    Calls oracle(published_x) until it returns None. A row that holds at
    the published point by process_row's own test (`_row_test` at
    tol_feas) raises NoProgress, since growing against it cannot change
    the point; more than MAX_ROUNDS rows raise NotConverged.
    """
    reports = []
    for _ in range(MAX_ROUNDS):
        x = current_solution(state)
        row = oracle(x)
        if row is None:
            return reports
        row = Row(*row_arrays(row, state.n), state.n)
        value, held = _row_test(row.idx, row.vals, x, state.params.tol_feas)
        if held:
            raise NoProgress(
                f"oracle produced a satisfied row (value {value:.6g})")
        reports.append(process_row(state, row))
    raise NotConverged(f"oracle still separating after {MAX_ROUNDS} rounds")


def run_lp(inst: CoveringLpInstance, advice: AdviceVector | None = None,
           params: SolverParams | None = None):
    """Feed an instance's rows in order through process_row; return
    (state, reports)."""
    state = new_lp_solver(inst.n, inst.c, advice=advice, params=params,
                          boxed=inst.boxed)
    return state, [process_row(state, row) for row in inst.rows]


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
