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
round (`grow_round`: its count, phase 1, the tight-set snap, budget check
and growth step), the solver-state checks (`SolverState`), the dual
certificate (`dual_certificate`), `current_solution`, `kappa_seen` and
`beta_seen`. A solver keeps only its step report and its separation step
(a `Separation`): the first budget guess, whether the round's constraint
is met, the violated covering row, and whether the suggestion meets the
constraint, asked only at the round's first growth step. Every growth step
folds its dual into the column load `Phase.load` (A^T y, or A_j . Y for
the SDP) and the dual objective `Phase.dual_obj` (right side times dual),
so only the SDP keeps a dual accumulator of its own, the matrix dual
(`Separation.accumulate`). The growth step (`_grow_step`) calls
`find_stop`, `coefficient_vector` and `advance` through this module's
globals.

`process_row` feeds one row and is the only growth path. Instance runs
(`run_lp`, `run_source` over a row list, the experiment runs) go through
`run_rows`, which books the rows that hold on arrival in blocks, found by
segmented sums over doubling windows, and sends only the others to
`process_row`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ExponentOverflow, LengthMismatch, NoFeasibleSolution,
                     NoProgress, NotConverged, PdlaError, PhaseRestartLimit)
from .growth import TOL, StopEvent, advance, coefficient_vector, find_stop
from .instances import (AdviceVector, ConstraintSource, CoveringLpInstance,
                        Row, SolverParams, cost_vector, row_arrays)
# Not called here; kept because the traced benchmark rebinds this name.
from .instances import validate_row  # noqa: F401

SNAP = 1e-12            # proximity at which a boxed coordinate counts as tight
ADVICE_ROW_TOL = 1e-9   # slack when testing a row against the suggestion
OBJ_ENTRY_TOL = 1e-12   # relative slack for the budget check at iteration entry
MAX_ROUNDS = 1_000_000  # safety stop for oracle-driven runs
MAX_ITER_ROUND = 200_000  # safety stop for the growth steps of one round
ROW_WINDOW = 16         # rows summed at once by run_rows after a growing row


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
class DualCertificate:
    y: dict[int, float]
    z: np.ndarray
    scale: float                # divide duals by this to restore feasibility
    objective: float            # dual objective - sum(z), before scaling


@dataclass
class SolverState:
    """What every solver variant tracks; solver states add their own.

    Checks the costs (`instances.cost_vector`) and the suggestion's
    length; params defaults to `SolverParams()`."""
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
        self.c = cost_vector(self.c, self.n)
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
        return float(self.vals @ adv.x_prime[self.support]) >= \
            1.0 - ADVICE_ROW_TOL

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


def grow_round(state: SolverState,
               sep: Separation) -> tuple[int, RoundGrowth]:
    """Count a new round and grow the active phase until `sep` finds it
    satisfied; return the round number and what the loop did.

    Before the first phase it opens phase 1 at params.initial_alpha, or at
    sep.estimate() when unset. Its first growth step asks whether the
    suggestion meets the constraint (sep.advice_holds), which arms
    suggestion-proportional sharing; a round that holds never asks.
    """
    state.round_no += 1
    rnd = state.round_no
    if state.phase is None:
        alpha = state.params.initial_alpha
        start_phase(state, float(sep.estimate() if alpha is None else alpha))
    g = RoundGrowth()
    branch_feasible = None
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
            if branch_feasible is None:
                state.violations_seen += 1
                branch_feasible = state.advice is not None and \
                    sep.advice_holds(state.advice)
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
    return rnd, g


def _grow_step(state: SolverState, rnd: int, ph: Phase, sep: Separation,
               branch_feasible: bool) -> StopEvent:
    """One growth iteration along the row `sep.cut()` gives, up to the
    first stop event; moves the point and the duals, records the trace.
    Only the row's free coordinates move: the tight ones take their share
    of the right side as capacity and accrue packing duals instead."""
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
    return ev


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
    sep = _RowSeparation(state, idx, vals)
    rnd, g = grow_round(state, sep)
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


def run_source(state: SolverState, source: ConstraintSource) -> list[StepReport]:
    """Drive the solver from a fixed row list or a separation oracle.

    Oracle mode calls source.oracle(published_x) and stops at None. A row
    that holds at the published point by process_row's own test (value at
    least 1 - tol_feas) raises NoProgress, since growing against it cannot
    change the point; more than MAX_ROUNDS rows raise NotConverged.
    """
    if source.rows is not None:
        return run_rows(state, source.rows)
    reports = []
    for _ in range(MAX_ROUNDS):
        x = current_solution(state)
        row = source.oracle(x)
        if row is None:
            return reports
        row = Row(*row_arrays(row, state.n), state.n)
        sep = _RowSeparation(state, row.idx, row.vals)
        if sep.holds(x):
            raise NoProgress(
                f"oracle produced a satisfied row (value {sep.value:.6g})")
        reports.append(process_row(state, row))
    raise NotConverged(f"oracle still separating after {MAX_ROUNDS} rounds")


def run_lp(inst: CoveringLpInstance, advice: AdviceVector | None = None,
           params: SolverParams | None = None):
    """Convenience: run the full row list of an instance, return (state, reports)."""
    state = solver_for_instance(inst, advice=advice, params=params)
    return state, run_rows(state, inst.rows)


def run_rows(state: SolverState, rows, reports: bool = True):
    """Feed a row list in order, with the same effect on the state as
    process_row on each row; return every row's report (None when reports
    is false).

    A row that holds on arrival changes only the round counter and the
    column statistics. Segmented sums over a window of the following rows
    give their values at the active phase point; the window starts at
    ROW_WINDOW rows and doubles while its rows hold, so the rows summed
    before the next growing row are at most ROW_WINDOW plus twice the rows
    booked. A sum that could lie within roundoff of 1 is decided by the
    row's own dot product, the test process_row makes. The first row and
    a failing row take process_row; the rows before it are booked at once.
    No boxed coordinate awaits a snap between rounds (grow_round snaps the
    support before each test, start_phase every coordinate). Each row is
    checked once; process_row takes the checked Row as it is.
    """
    rows, error = list(rows), None
    for k, row in enumerate(rows):
        try:
            if not (type(row) is Row and row.n <= state.n):
                rows[k] = Row(*row_arrays(row, state.n), state.n)
        except PdlaError as exc:
            error, rows = exc, rows[:k]   # raised again in the row's turn
            break
    out = [] if reports else None
    m = len(rows)
    if m:
        lens = np.array([row.idx.size for row in rows])
        starts = np.concatenate(([0], np.cumsum(lens)))
        flat_idx = np.concatenate([row.idx for row in rows])
        flat_vals = np.concatenate([row.vals for row in rows])
        # A block sum and the row's own dot product, each over k
        # non-negative products in its own order, differ by less than
        # (k + 1) eps of their size; a sum above this proves the row holds
        # whatever tol_feas is.
        sure = 1.0 + 4.0 * np.finfo(float).eps * lens
    bar = 1.0 - state.params.tol_feas
    i = 0
    while i < m:
        ph = state.phase
        stop = i
        if ph is not None:
            stop = _first_failing(ph.x, rows, i, flat_idx, flat_vals, starts,
                                  sure, bar)
            # A block repeats columns, so its statistics take ufunc.at.
            cols = flat_idx[starts[i]:starts[stop]]
            vals = flat_vals[starts[i]:starts[stop]]
            np.maximum.at(state.col_max, cols, vals)
            np.minimum.at(state.col_min, cols, vals)
            if reports:
                for row in rows[i:stop]:
                    state.round_no += 1
                    out.append(StepReport(
                        round_no=state.round_no,
                        stop_reason="already_satisfied", iterations=0,
                        phases_entered=0,
                        row_value=float(row.vals @ ph.x[row.idx]),
                        y_round=0.0, tight_added=[]))
            else:
                state.round_no += stop - i
        if stop < m:
            rep = process_row(state, rows[stop])
            if reports:
                out.append(rep)
        i = stop + 1
    if error is not None:
        raise error
    return out


def _first_failing(x, rows, i, flat_idx, flat_vals, starts, sure, bar) -> int:
    """Position of the first row from i on that fails at x, or len(rows)."""
    m, width = len(rows), ROW_WINDOW
    while i < m:
        end = min(i + width, m)
        s, e = starts[i], starts[end]
        sums = np.add.reduceat(flat_vals[s:e] * x[flat_idx[s:e]],
                               starts[i:end] - s)
        for k in np.flatnonzero(sums < sure[i:end]).tolist():
            row = rows[i + k]
            if not float(row.vals @ x[row.idx]) >= bar:
                return i + k
        i, width = end, 2 * width
    return m


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
