"""Hand-computed traces and invariants for the unboxed online LP solver.

Every golden number below was derived by hand from the growth curve
x_j(delta) = (xbar_j + D_j) e^{w_j delta / c_j} - D_j before the solver ran,
so these tests are independent of the implementation.
"""
import math

import numpy as np
import pytest

from pdla import covering_lp
from pdla.covering_lp import (current_solution, dual_certificate,
                              kappa_seen, beta_seen, new_lp_solver,
                              process_row, run_lp, run_source,
                              solver_for_instance)
from pdla.errors import (EmptyRow, ExponentOverflow, LengthMismatch,
                         MalformedDocument, NonPositiveCost, NoProgress)
from pdla.instances import (AdviceVector, ConstraintSource,
                            CoveringLpInstance, SolverParams, make_lp_instance,
                            validate_advice)


def test_trace_single_coordinate_budget_ladder():
    # n=1, c=1, row (0,1), no advice. alpha(1)=1, init x=1/2, D=1, so
    # x(d)=1.5 e^d - 1. Objective hits alpha at e^d=4/3 before the row value
    # reaches 2 at e^d=2, so the phase restarts with alpha=2. The re-init
    # x = 2/(2*1*1) = 1 already satisfies the row.
    st = new_lp_solver(1, [1.0])
    rep = process_row(st, [(0, 1.0)])
    assert st.alpha_history == [1.0, 2.0]
    assert rep.phases_entered == 1
    assert rep.stop_reason == "already_satisfied"
    assert current_solution(st)[0] == pytest.approx(1.0, rel=1e-6)
    assert st.violations_seen == 1
    assert st.iterations == 1


def test_trace_advice_hit_beats_objective_tie():
    # Same instance with suggestion x'=1, full proportional sharing (lam=0).
    # Init x = min(1, 1/2) = 1/2; the row is advice-feasible, N2 = 1, D = 1.
    # The advice hit x=1 and the budget hit c.x=1 coincide at d=ln(4/3);
    # the advice event wins the tie, x snaps to exactly 1, and the row is
    # satisfied without opening a second phase.
    adv = validate_advice([1.0], 0.0, 1, boxed=False)
    st = new_lp_solver(1, [1.0], advice=adv)
    rep = process_row(st, [(0, 1.0)])
    assert st.alpha_history == [1.0]
    assert rep.phases_entered == 0
    assert current_solution(st)[0] == 1.0
    cert = dual_certificate(st)
    assert cert.y[1] == pytest.approx(math.log(4.0 / 3.0), abs=1e-8)
    assert cert.scale == pytest.approx(math.log(4.0 / 3.0), abs=1e-8)
    # Scaled dual is feasible and its value matches weak duality: value 1.
    assert cert.objective / cert.scale == pytest.approx(1.0, rel=1e-8)


def test_trace_repeated_row_is_idempotent():
    st = new_lp_solver(1, [1.0])
    process_row(st, [(0, 1.0)])
    rep2 = process_row(st, [(0, 1.0)])
    assert rep2.iterations == 0
    assert rep2.stop_reason == "already_satisfied"
    assert rep2.row_value >= 1.0 - 1e-9
    assert st.violations_seen == 1


def test_trace_fractional_entry_budget_ladder():
    # Row (0, 0.25): alpha(1) = c/a = 4, init x = 2, D = 1/0.25 = 4, curve
    # 6 e^{d/4} - 4. Objective (x=4) fires at e^{d/4}=8/6 before the value
    # target (x=8) at e^{d/4}=2. Restart alpha=8 re-inits x=4: satisfied.
    st = new_lp_solver(1, [1.0])
    rep = process_row(st, [(0, 0.25)])
    assert st.alpha_history == [4.0, 8.0]
    assert current_solution(st)[0] == pytest.approx(4.0, rel=1e-6)
    assert rep.stop_reason == "already_satisfied"
    assert kappa_seen(st) == pytest.approx(1.0)
    assert beta_seen(st) == pytest.approx(0.25)


def test_trace_satisfied_by_two_exit():
    # Tiny suggestion pins the init low while a large imposed budget keeps
    # the objective event away: x' = 0.01, alpha = 4. The row is not
    # advice-feasible so D = 1 and x(d) = 1.01 e^d - 1. The value target
    # x = 2 fires at e^d = 3/1.01, the budget would need e^d = 5/1.01.
    adv = validate_advice([0.01], 1.0, 1, boxed=False)
    st = new_lp_solver(1, [1.0], advice=adv,
                       params=SolverParams(initial_alpha=4.0))
    rep = process_row(st, [(0, 1.0)])
    assert rep.stop_reason == "satisfied_by_2"
    assert current_solution(st)[0] == pytest.approx(2.0, rel=1e-6)
    assert st.alpha_history == [4.0]
    cert = dual_certificate(st)
    assert cert.y[1] == pytest.approx(math.log(3.0 / 1.01), rel=1e-6)
    assert cert.scale == pytest.approx(math.log(3.0 / 1.01), rel=1e-6)


def test_trace_advice_hit_continues_same_row():
    # n=2, c=(1,4), row x0+x1 >= 1, x'=(0.3,0.8), lam=0, alpha(1)=1.
    # Init x = (1/4, 1/16); N2 = 1.1, D = (3/11, 8/11). Coordinate 0 hits
    # its suggestion first at d = ln(126/115) with the row still violated,
    # so the iteration recomputes and keeps growing on the same row.
    adv = validate_advice([0.3, 0.8], 0.0, 2, boxed=False)
    st = new_lp_solver(2, [1.0, 4.0], advice=adv,
                       params=SolverParams(trace=True))
    rep = process_row(st, [(0, 1.0), (1, 1.0)])
    assert rep.iterations >= 2
    first = st.trace[0]
    assert first["event"] == "advice" and first["j"] == 0
    assert first["delta"] == pytest.approx(math.log(126.0 / 115.0), rel=1e-9)
    x = current_solution(st)
    assert x[0] >= 0.3 - 1e-12
    assert x[0] * 1.0 + x[1] * 1.0 >= 1.0 - 1e-7
    assert st.violations_seen == 1


def test_advice_snap_is_exact():
    adv = validate_advice([1.0], 0.0, 1, boxed=False)
    st = new_lp_solver(1, [1.0], advice=adv)
    process_row(st, [(0, 1.0)])
    assert st.phase.x[0] == 1.0  # snapped, not 1 +- bisection fuzz


def test_phase_budget_doubles_and_published_solution_monotone():
    rng = np.random.default_rng(7)
    st = new_lp_solver(6, rng.uniform(0.5, 2.0, size=6))
    prev = current_solution(st)
    for _ in range(12):
        cols = rng.choice(6, size=rng.integers(1, 4), replace=False)
        row = [(int(j), float(rng.uniform(0.2, 1.5))) for j in cols]
        process_row(st, row)
        cur = current_solution(st)
        assert np.all(cur >= prev - 1e-15)
        val = sum(a * cur[j] for j, a in row)
        assert val >= 1.0 - 1e-7
        prev = cur
    a = st.alpha_history
    assert all(b == pytest.approx(2 * x) for x, b in zip(a, a[1:]))
    # Budget invariant: the guesses sum to less than twice the last one.
    assert sum(a) <= 2 * a[-1] + 1e-9


def test_all_rounds_stay_satisfied_under_later_growth():
    # Published solution only grows, so earlier rows stay covered.
    rng = np.random.default_rng(11)
    n = 8
    st = new_lp_solver(n, rng.uniform(0.5, 3.0, size=n))
    rows = []
    for _ in range(20):
        cols = rng.choice(n, size=rng.integers(1, 5), replace=False)
        rows.append([(int(j), float(rng.uniform(0.1, 2.0))) for j in cols])
        process_row(st, rows[-1])
    x = current_solution(st)
    for row in rows:
        assert sum(a * x[j] for j, a in row) >= 1.0 - 1e-7


def test_dual_certificate_feasible_after_scaling():
    rng = np.random.default_rng(3)
    n = 5
    c = rng.uniform(0.5, 2.0, size=n)
    st = new_lp_solver(n, c)
    rows = []
    for _ in range(15):
        cols = rng.choice(n, size=rng.integers(1, 4), replace=False)
        rows.append([(int(j), float(rng.uniform(0.2, 1.2))) for j in cols])
        process_row(st, rows[-1])
    cert = dual_certificate(st)
    assert all(v >= -1e-12 for v in cert.y.values())
    assert cert.scale > 0
    # A^T y / scale <= c columnwise, rebuilt from the raw rows: the map is
    # round -> dual, and only rounds of the active phase carry mass.
    load = np.zeros(n)
    for rnd, yv in cert.y.items():
        for j, a in rows[rnd - 1]:
            load[j] += a * yv
    assert np.all(load / cert.scale <= c + 1e-8)


def test_run_source_oracle_mode_separates_until_covered():
    # Oracle: return the most violated of three fixed rows.
    rows = [[(0, 1.0)], [(1, 0.5)], [(0, 0.25), (1, 0.25)]]

    def oracle(x):
        worst, worst_val = None, 1.0 - 1e-9
        for r in rows:
            val = sum(a * x[j] for j, a in r)
            if val < worst_val:
                worst, worst_val = r, val
        return worst

    st = new_lp_solver(2, [1.0, 1.0])
    reports = run_source(st, ConstraintSource(oracle=oracle))
    x = current_solution(st)
    for r in rows:
        assert sum(a * x[j] for j, a in r) >= 1.0 - 1e-7
    assert len(reports) >= 2


def test_run_source_rejects_a_satisfied_oracle_row():
    # The oracle hands the same row again once x already covers it.
    st = new_lp_solver(1, [1.0])
    rows = iter([[(0, 1.0)], [(0, 1.0)]])
    with pytest.raises(NoProgress, match="satisfied row"):
        run_source(st, ConstraintSource(oracle=lambda x: next(rows)))
    assert st.round_no == 1


def test_run_source_rejects_a_row_that_holds_within_tol_feas(monkeypatch):
    # x = [25, 25] after the first row. The oracle's row has value
    # 1 - 5e-8 there: below 1, but a row process_row books as satisfied, so
    # growing against it could never move the point.
    monkeypatch.setattr(covering_lp, "MAX_ROUNDS", 1000)
    st = new_lp_solver(2, [1.0, 1.0], params=SolverParams(initial_alpha=100.0))
    process_row(st, [(0, 1.0)])
    assert list(current_solution(st)) == [25.0, 25.0]
    calls = []

    def oracle(x):
        calls.append(x)
        return [(0, (1.0 - 5e-8) / 25.0)]

    with pytest.raises(NoProgress, match="satisfied row"):
        run_source(st, ConstraintSource(oracle=oracle))
    assert len(calls) == 1 and st.round_no == 1


def test_run_lp_instance_convenience():
    inst = make_lp_instance(2, [1.0, 1.0], [[(0, 1.0)], [(1, 1.0)]])
    st, reports = run_lp(inst)
    assert len(reports) == 2
    x = current_solution(st)
    assert x[0] >= 1.0 - 1e-7 and x[1] >= 1.0 - 1e-7


def test_empty_row_rejected():
    st = new_lp_solver(2, [1.0, 1.0])
    with pytest.raises(EmptyRow):
        process_row(st, [])
    with pytest.raises(EmptyRow):
        process_row(st, [(0, 0.0)])


def test_overflowing_budget_guess_raises_instead_of_publishing_inf():
    # c / a = 1 / 5e-324 overflows to inf; x = inf must never be published.
    st = new_lp_solver(1, [1.0])
    with np.errstate(over="ignore"), pytest.raises(ExponentOverflow):
        process_row(st, [(0, 5e-324)])
    assert np.all(np.isfinite(current_solution(st)))


def test_zero_advice_matches_pure_online():
    # An all-zero suggestion arms nothing and pins the init at 0 only when
    # the suggestion is below alpha/(2nc); with lam=1 the D split is uniform
    # either way, but init = min(0, .) = 0 changes the curve. The published
    # costs still land within the guarantee of each other on a fixed stream.
    rng = np.random.default_rng(5)
    n = 4
    c = rng.uniform(0.5, 2.0, size=n)
    rows = []
    for _ in range(10):
        cols = rng.choice(n, size=rng.integers(1, 3), replace=False)
        rows.append([(int(j), float(rng.uniform(0.3, 1.0))) for j in cols])
    st_plain = new_lp_solver(n, c)
    for r in rows:
        process_row(st_plain, r)
    adv = validate_advice(np.zeros(n), 1.0, n, boxed=False)
    st_adv = new_lp_solver(n, c, advice=adv)
    for r in rows:
        process_row(st_adv, r)
    x_p, x_a = current_solution(st_plain), current_solution(st_adv)
    for r in rows:
        assert sum(a * x_a[j] for j, a in r) >= 1.0 - 1e-7
    assert float(c @ x_a) > 0 and float(c @ x_p) > 0


def _random_rows(rng, n, count):
    """Rows of 1 to 30 entries (both sides of the array check's length
    floor), each reaching 1 with every coordinate at 1."""
    rows = []
    while len(rows) < count:
        cols = rng.choice(n, size=rng.integers(1, 31), replace=False)
        row = [(int(j), float(rng.uniform(0.1, 1.2))) for j in cols]
        if sum(a for _, a in row) >= 1.0:
            rows.append(row)
    return rows


def _advice_cases(rng, n, boxed):
    xp = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7)
    return [None] + [validate_advice(xp, lam, n, boxed=boxed)
                     for lam in (0.0, 0.4)]


@pytest.mark.parametrize("boxed", [False, True])
def test_instance_rows_match_lists_in_process_row(boxed):
    # An instance's rows are checked once, when it is built, and every run
    # feeds them to process_row as Rows; that must be the same run as
    # feeding the row lists.
    rng = np.random.default_rng(41)
    n = 40
    c = rng.uniform(0.5, 3.0, n)
    rows = _random_rows(rng, n, 60)
    checked = make_lp_instance(n, c, rows).rows
    for adv in _advice_cases(rng, n, boxed):
        states = [new_lp_solver(n, c, advice=adv, boxed=boxed,
                                params=SolverParams(trace=True))
                  for _ in range(2)]
        by_row = [process_row(states[0], r) for r in rows]
        by_instance = [process_row(states[1], r) for r in checked]
        assert by_row == by_instance
        a, b = states
        assert np.array_equal(a.x_best, b.x_best)
        assert (a.alpha_history, a.round_no, a.violations_seen,
                a.iterations, a.sparsity_seen, a.trace) == \
            (b.alpha_history, b.round_no, b.violations_seen, b.iterations,
             b.sparsity_seen, b.trace)
        assert np.array_equal(a.col_max, b.col_max)
        assert np.array_equal(a.col_min, b.col_min)
        ca, cb = dual_certificate(a), dual_certificate(b)
        assert (ca.y, ca.scale, ca.objective) == (cb.y, cb.scale, cb.objective)
        assert np.array_equal(ca.z, cb.z)


@pytest.mark.parametrize("boxed", [False, True])
def test_certificate_holds_exactly_the_rounds_that_raised_dual(boxed):
    # Within the active phase a round's dual is the sum of its growth steps'
    # deltas there, so the certificate's keys are the rounds with a positive
    # step in that phase; satisfied rows add no entry.
    rng = np.random.default_rng(43)
    n = 40
    c = rng.uniform(0.5, 3.0, n)
    rows = _random_rows(rng, n, 80)
    for adv in _advice_cases(rng, n, boxed):
        st = new_lp_solver(n, c, advice=adv, boxed=boxed,
                           params=SolverParams(trace=True))
        for row in rows:
            process_row(st, row)
        active = len(st.alpha_history)
        raised = {}
        for ev in st.trace:
            if ev["phase"] == active and ev["delta"] > 0.0:
                rnd = ev["round"]
                raised[rnd] = raised.get(rnd, 0.0) + ev["delta"]
        cert = dual_certificate(st)
        assert 0 < len(cert.y) < len(rows)
        assert set(cert.y) == set(raised)
        for rnd, yv in cert.y.items():
            assert yv == pytest.approx(raised[rnd], rel=1e-12)


@pytest.mark.parametrize("boxed", [False, True])
@pytest.mark.parametrize("lam", [None, 0.0, 0.5])
def test_each_step_moves_only_the_free_coordinates_of_its_row(boxed, lam,
                                                              monkeypatch):
    # A growth step hands find_stop the point on the row's free (not tight)
    # coordinates, and moves nothing else: every tight and off-row
    # coordinate of the phase is bit-identical after the step. Each step is
    # checked at the next find_stop call or at the end of its row, so a
    # snap to the cap after a step, which moves a free coordinate, counts
    # with it.
    rng = np.random.default_rng(47)
    n = 200
    c = rng.uniform(0.5, 3.0, n)
    adv = None if lam is None else validate_advice(
        rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7), lam, n, boxed)
    st = new_lp_solver(n, c, advice=adv, boxed=boxed,
                       params=SolverParams(trace=True))
    real_find_stop = covering_lp.find_stop
    row_cols = np.zeros(0, dtype=int)
    pending = []                # (phase, point before the step, free mask)
    counts = {"steps": 0, "moved": 0, "touched_tight": 0}

    def settle():
        for ph, before, free in pending:
            assert np.array_equal(ph.x[~free], before[~free])
            counts["moved"] += bool((ph.x[free] != before[free]).any())
        pending.clear()

    def spy(xbar, *args):
        settle()
        ph = st.phase
        fidx = row_cols[~ph.tight[row_cols]]
        assert np.array_equal(xbar, ph.x[fidx])
        free = np.zeros(n, dtype=bool)
        free[fidx] = True
        pending.append((ph, ph.x.copy(), free))
        counts["steps"] += 1
        counts["touched_tight"] += bool(ph.tight[row_cols].any())
        return real_find_stop(xbar, *args)

    monkeypatch.setattr(covering_lp, "find_stop", spy)
    for _ in range(200):
        ph = st.phase
        cols = rng.choice(n, size=rng.integers(4, 16), replace=False)
        if ph is not None and ph.tight.any():
            # Put a tight coordinate in the row, where it takes capacity.
            extra = rng.choice(np.flatnonzero(ph.tight))
            cols = np.append(cols[cols != extra], extra)
        vals = rng.uniform(0.1, 0.4, cols.size)
        if vals.sum() < 1.0:
            continue
        row_cols = cols
        process_row(st, [(int(j), float(a)) for j, a in zip(cols, vals)])
        settle()
    kinds = {ev["event"] for ev in st.trace}
    assert counts["steps"] >= 30 and counts["moved"] >= 30
    assert {"objective", "target"} <= kinds
    if lam is not None:
        assert "advice" in kinds
    if boxed:
        assert "cap" in kinds and counts["touched_tight"] >= 10


def test_zero_weight_overflow_publishes_a_finite_point():
    # Coordinate 0 gets no growth (its suggestion is 0 and lam is 0) but a
    # fast rate (1e4); its exponential overflows long before the row is
    # met, and 0 * inf published NaN.
    adv = validate_advice([0.0, 1.0], 0.0, 2, boxed=False)
    st = new_lp_solver(2, [1.0, 1.0], advice=adv)
    process_row(st, [(0, 1e4), (1, 1.0)])
    assert np.array_equal(current_solution(st), [0.0, 1.0])


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
def test_a_non_finite_step_raises_instead_of_publishing(monkeypatch, bad):
    # No input is known to drive a step non-finite since the event search
    # runs in the exponent; a step that does anyway must raise, leaving the
    # published point as it was. 1e308 is finite, but its cost is not.
    st = new_lp_solver(2, [2.0, 1.0])
    before = current_solution(st)
    real = covering_lp.advance

    def broken(*args):
        x = real(*args)
        x[0] = bad
        return x

    monkeypatch.setattr(covering_lp, "advance", broken)
    with pytest.raises(ExponentOverflow):
        process_row(st, [(0, 1.0), (1, 1.0)])
    assert np.array_equal(current_solution(st), before)


@pytest.mark.parametrize("costs, error", [
    ([1.0, 1.0, 1.0], LengthMismatch),          # three costs for n = 2
    ([1.0, math.nan], MalformedDocument),
    ([1.0, 0.0], NonPositiveCost),
])
def test_solver_checks_costs_as_instances_do(costs, error):
    # The exact class: all three are MalformedDocuments.
    for build in (lambda: make_lp_instance(2, costs, []),
                  lambda: new_lp_solver(2, costs)):
        with pytest.raises(error) as exc:
            build()
        assert exc.type is error
