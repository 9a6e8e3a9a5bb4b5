"""`covering_lp.run_lp` against the per-row loop, and process_row's
held-row path.

process_row only counts the round of a row that holds on arrival, without
entering `grow_round`, and queues every row's entries for the column
statistics. Whatever the instance, run_lp must leave the solver state, the
trace, the dual certificate and the step reports exactly as feeding every
row to `process_row` does, and raise the same error at the same row. Rows
are drawn with repeats and shrunken copies of earlier rows, so that many
arrive satisfied, and a probe row can sit exactly on the feasibility bar
`1 - tol_feas` or one ulp either side of it. They are fed as checked Rows,
as lists of pairs and as one-shot iterators of pairs, at the default
tol_feas and at 1e-16, where the bar is the float below 1.
"""
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from pdla import covering_lp
from pdla.errors import PdlaError
from pdla.instances import (Row, SolverParams, make_lp_instance, row_arrays,
                            validate_advice)


def _rows(rng, n, m):
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.5:
            # A repeat of an earlier row, shrunk or not: it often holds.
            idx, vals = rows[int(rng.integers(len(rows)))]
            rows.append((idx, vals * rng.choice([1.0, rng.uniform(0.1, 1.0)])))
            continue
        idx = np.sort(rng.choice(n, int(rng.integers(1, n + 1)),
                                 replace=False))
        rows.append((idx, 10.0 ** rng.uniform(-0.7, 1.0, idx.size)))
    return [list(zip(idx.tolist(), vals.tolist())) for idx, vals in rows]


def _per_row(n, c, advice, params, boxed, rows):
    st = covering_lp.new_lp_solver(n, c, advice=advice, params=params,
                                   boxed=boxed)
    reports, error = [], None
    try:
        for row in rows:
            reports.append(covering_lp.process_row(st, row))
    except PdlaError as exc:
        error = (type(exc), str(exc))
    return st, reports, error


def _probe(st, bar, side):
    """A one-entry row whose own dot at the active point is the bar, or
    the float just below or above it; None when no column reaches it."""
    want = bar if side == 0 else np.nextafter(bar, 2.0 * side)
    x = st.phase.x
    for j in np.flatnonzero(x > 0.0).tolist():
        v = want / x[j]
        for _ in range(8):
            got = float(np.array([v]) @ x[[j]])
            if got == want:
                return [(j, v)]
            v = np.nextafter(v, np.inf if got < want else 0.0)
    return None


def _state(st):
    cert = covering_lp.dual_certificate(st)
    ph = st.phase
    return {
        "x_best": st.x_best.tolist(), "round_no": st.round_no,
        "violations": st.violations_seen, "iterations": st.iterations,
        "alphas": list(st.alpha_history), "col_max": st.col_max.tolist(),
        "col_min": st.col_min.tolist(), "sparsity": st.sparsity_seen,
        "trace": list(st.trace),
        "cert": (cert.y, cert.z.tolist(), cert.scale, cert.objective),
        "phase": None if ph is None else (
            ph.index, ph.alpha, ph.x.tolist(), ph.tight.tolist(), ph.obj,
            ph.z.tolist(), ph.y, ph.load.tolist(), ph.dual_obj),
    }


@st.composite
def runs(draw):
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    boxed = draw(st.booleans())
    c = 10.0 ** rng.uniform(-6.0, 6.0, n)
    lam = draw(st.sampled_from([None, 0.0, 0.3, 1.0]))
    advice = None
    if lam is not None:
        x = np.where(rng.random(n) < 0.3, 0.0, 10.0 ** rng.uniform(-3, 1, n))
        advice = validate_advice(np.minimum(x, 1.0) if boxed else x, lam, n,
                                 boxed=boxed)
    # 1e-16 puts the bar one ulp below 1, far inside the roundoff of a sum.
    params = SolverParams(trace=draw(st.booleans()),
                          tol_feas=draw(st.sampled_from([1e-7, 1e-16])))
    rows = _rows(rng, n, draw(st.integers(1, 30)))
    # Insert a row on the feasibility bar, at the point its turn sees.
    side = draw(st.sampled_from([None, -1, 0, 1]))
    at = draw(st.integers(1, len(rows)))
    if side is not None:
        st_, _, error = _per_row(n, c, advice, params, boxed, rows[:at])
        probe = None if error else _probe(st_, 1.0 - params.tol_feas, side)
        if probe is not None:
            rows.insert(at, probe)
    return n, c, advice, params, boxed, rows


@settings(max_examples=300, deadline=None)
@given(runs())
def test_run_lp_matches_the_per_row_loop(run):
    n, c, advice, params, boxed, rows = run
    want, want_reports, want_error = _per_row(*run)
    inst = make_lp_instance(n, c, rows, boxed=boxed)
    # Rows as the instance's Rows and as one-shot iterators of pairs, which
    # can be read only once.
    for feed in (inst.rows, [iter(r) for r in rows],
                 [zip([j for j, _ in r], [v for _, v in r]) for r in rows]):
        st, reports, error = _per_row(n, c, advice, params, boxed, feed)
        assert error == want_error
        assert _state(st) == _state(want)
        assert reports == want_reports
    if want_error is None:
        st, reports = covering_lp.run_lp(inst, advice=advice, params=params)
        assert reports == want_reports and _state(st) == _state(want)
    else:
        with pytest.raises(want_error[0], match=re.escape(want_error[1])):
            covering_lp.run_lp(inst, advice=advice, params=params)


_MALFORMED = ([(0, -1.0)], [(0, 0.0)], [(0, 1.0), (0, 2.0)],
              [(0, float("nan"))])


@st.composite
def mixed_runs(draw):
    """A run of `runs()` fed as a mix of checked Rows and lists of pairs,
    now and then a malformed row, with the column statistics folding every
    1, 2 or 3 rows or every COLUMN_FOLD."""
    n, c, advice, params, boxed, rows = draw(runs())
    feed = []
    for row in rows:
        if draw(st.integers(0, 14)) == 0:
            feed.append(draw(st.sampled_from(_MALFORMED + ([(n, 1.0)],))))
        feed.append(Row(*row_arrays(row, n), n) if draw(st.booleans())
                    else row)
    fold = draw(st.sampled_from([1, 2, 3, covering_lp.COLUMN_FOLD]))
    return n, c, advice, params, boxed, feed, fold


@settings(max_examples=300, deadline=None)
@given(mixed_runs())
def test_held_rows_take_one_path_and_fold_their_columns(run):
    n, c, advice, params, boxed, feed, fold = run
    states, outcomes, grown = [], [], []
    real = covering_lp.grow_round

    def spy(state, sep, report):
        # Only the row that opens phase 1 and rows that fail the test at
        # the phase point grow.
        assert state.phase is None or not sep.holds(state.phase.x)
        grown.append(state.round_no + 1)
        return real(state, sep, report)

    # The spied loop folds every `fold` rows; the plain loop at the default
    # COLUMN_FOLD.
    for spied in (True, False):
        st_ = covering_lp.new_lp_solver(n, c, advice=advice, params=params,
                                        boxed=boxed)
        reports, error = [], None
        try:
            if spied:
                with mock.patch.object(covering_lp, "COLUMN_FOLD", fold), \
                        mock.patch.object(covering_lp, "grow_round", spy):
                    for row in feed:
                        reports.append(covering_lp.process_row(st_, row))
                        assert len(st_._pending) < fold
            else:
                reports = [covering_lp.process_row(st_, row) for row in feed]
        except PdlaError as exc:
            error = (type(exc), str(exc))
        states.append(st_)
        outcomes.append((reports, error))
    (per_row, error), (looped, looped_error) = outcomes
    assert error == looped_error
    if error is None:
        assert looped == per_row
    assert _state(states[0]) == _state(states[1])
    for gauge in (covering_lp.kappa_seen, covering_lp.beta_seen):
        assert gauge(states[0]) == gauge(states[1])
    # The statistics equal an eager max / min over the rows that were fed:
    # every row up to the one that raised, which counts once its check
    # passed.
    col_max, col_min = np.zeros(n), np.full(n, np.inf)
    for row in feed[:len(per_row) + 1]:
        try:
            idx, vals = row_arrays(row, n)
        except PdlaError:
            break
        col_max[idx] = np.maximum(col_max[idx], vals)
        col_min[idx] = np.minimum(col_min[idx], vals)
    for st_ in states:
        assert st_.col_max.tolist() == col_max.tolist()
        assert st_.col_min.tolist() == col_min.tolist()
    # A row that holds on arrival only counts its round.
    for rep in per_row:
        if rep.round_no not in grown:
            assert rep == covering_lp.StepReport(round_no=rep.round_no,
                                                 row_value=rep.row_value)
            assert rep.row_value >= 1.0 - params.tol_feas


def test_held_rows_never_reach_grow_round(monkeypatch):
    # The first row opens phase 1 and ends at x = (1/2, 1/2) in phase 2;
    # the other two hold there on arrival, so process_row only counts their
    # rounds and grow_round sees the first row alone.
    rows = [Row(np.array([0, 1]), np.array([1.0, 1.0]), 2),
            Row(np.array([0]), np.array([2.0]), 2),
            Row(np.array([1]), np.array([3.0]), 2)]
    grown = []
    real = covering_lp.grow_round

    def spy(state, sep, report):
        grown.append((sep.support.tolist(), sep.vals.tolist()))
        return real(state, sep, report)

    monkeypatch.setattr(covering_lp, "grow_round", spy)
    st, reports = covering_lp.run_lp(make_lp_instance(2, [1.0, 1.0], rows))
    assert grown == [([0, 1], [1.0, 1.0])]
    assert [r.round_no for r in reports] == [1, 2, 3]
    assert st.x_best.tolist() == [0.5, 0.5]
    assert st.col_max.tolist() == [2.0, 3.0]
    assert st.col_min.tolist() == [1.0, 1.0]
    for row, rep in zip(rows[1:], reports[1:]):
        assert rep.stop_reason == "already_satisfied"
        assert rep.row_value == float(row.vals @ st.x_best[row.idx])


def test_process_row_decides_rows_near_one_by_their_own_dot():
    # With tol_feas = 1e-16 the bar is the float just below 1. A block sum
    # adds the products in another order than the row's own dot product, so
    # it can round to 1 where the dot stays below the bar: such a row fails
    # process_row's test and must grow, whether it comes as a Row or as a
    # list of pairs.
    n = 30
    params = SolverParams(tol_feas=1e-16)
    rng = default_rng(0)
    x = rng.uniform(0.1, 1.0, n)
    rows = []
    for _ in range(2000):
        vals = rng.uniform(0.0, 1.0, n)
        vals /= vals @ x
        if np.add.reduceat(vals * x, [0])[0] >= 1.0 \
                and not float(vals @ x) >= 1.0 - params.tol_feas:
            rows.append(Row(np.arange(n), vals, n))
    assert rows
    states = []
    for feed in (rows[:3], [list(r) for r in rows[:3]]):
        st = covering_lp.new_lp_solver(n, np.ones(n), params=params)
        covering_lp.process_row(st, Row(np.arange(n), np.ones(n), n))
        st.phase.x[:] = x
        st.phase.obj = float(st.c @ x)
        reports = [covering_lp.process_row(st, r) for r in feed]
        assert reports[0].iterations > 0
        states.append(_state(st))
    assert states[0] == states[1]
