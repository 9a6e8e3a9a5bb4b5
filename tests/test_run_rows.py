"""`covering_lp.run_rows` against the per-row loop it replaces.

run_rows books the rows that hold on arrival in blocks and sends only the
others through `process_row`. Whatever the instance, it must leave the
solver state, the trace, the dual certificate and the step reports exactly
as feeding every row to `process_row` does, and raise the same error at the
same row. Rows are drawn with repeats and shrunken copies of earlier rows,
so that many arrive satisfied, and a probe row can sit exactly on the
feasibility bar `1 - tol_feas` or one ulp either side of it. They are fed
as checked Rows, as lists of pairs and as one-shot iterators of pairs, at
the default tol_feas and at 1e-16, where the bar is the float below 1.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from pdla import covering_lp
from pdla.errors import MalformedDocument, PdlaError
from pdla.instances import (ConstraintSource, Row, SolverParams,
                            make_lp_instance, validate_advice)


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
def test_run_rows_matches_the_per_row_loop(run):
    n, c, advice, params, boxed, rows = run
    want, want_reports, want_error = _per_row(*run)
    inst = make_lp_instance(n, c, rows, boxed=boxed)
    # Rows as the instance's Rows, as lists of pairs, and as one-shot
    # iterators of pairs, which can be read only once.
    for feed, reports in ((lambda: inst.rows, True),
                          (lambda: inst.rows, False), (lambda: rows, True),
                          (lambda: (iter(r) for r in rows), True)):
        st = covering_lp.new_lp_solver(n, c, advice=advice, params=params,
                                       boxed=boxed)
        got, error = None, None
        try:
            got = covering_lp.run_rows(st, feed(), reports=reports)
        except PdlaError as exc:
            error = (type(exc), str(exc))
        assert error == want_error
        assert _state(st) == _state(want)
        if error is None:
            assert got == (want_reports if reports else None)
    if want_error is None:
        st, reports = covering_lp.run_lp(inst, advice=advice, params=params)
        assert reports == want_reports and _state(st) == _state(want)
        st = covering_lp.new_lp_solver(n, c, advice=advice, params=params,
                                       boxed=boxed)
        assert covering_lp.run_source(st, ConstraintSource(rows=rows)) == \
            want_reports
        st = covering_lp.new_lp_solver(n, c, advice=advice, params=params,
                                       boxed=boxed)
        one_shot = [zip([j for j, _ in r], [v for _, v in r]) for r in rows]
        assert covering_lp.run_source(
            st, ConstraintSource(rows=one_shot)) == want_reports


def test_run_rows_books_satisfied_rows_without_process_row(monkeypatch):
    # The first row opens phase 1 and ends at x = (1/2, 1/2) in phase 2;
    # the other two hold there on arrival and are booked in one block.
    rows = [Row(np.array([0, 1]), np.array([1.0, 1.0]), 2),
            Row(np.array([0]), np.array([2.0]), 2),
            Row(np.array([1]), np.array([3.0]), 2)]
    fed = []
    real = covering_lp.process_row

    def spy(state, row):
        fed.append(row)
        return real(state, row)

    monkeypatch.setattr(covering_lp, "process_row", spy)
    st = covering_lp.new_lp_solver(2, [1.0, 1.0])
    reports = covering_lp.run_rows(st, rows)
    assert fed == rows[:1]
    assert [r.round_no for r in reports] == [1, 2, 3]
    assert st.x_best.tolist() == [0.5, 0.5]
    assert st.col_max.tolist() == [2.0, 3.0]
    assert st.col_min.tolist() == [1.0, 1.0]
    for row, rep in zip(rows[1:], reports[1:]):
        assert rep.stop_reason == "already_satisfied"
        assert rep.row_value == float(row.vals @ st.x_best[row.idx])


def test_run_rows_feeds_the_rows_before_a_malformed_one():
    # As with process_row on each row, the rows before the bad one are fed
    # and the bad one raises in its turn.
    st = covering_lp.new_lp_solver(2, [1.0, 1.0])
    with pytest.raises(MalformedDocument, match="out of range"):
        covering_lp.run_rows(st, [[(0, 1.0)], [(0, 2.0)], [(2, 1.0)],
                                  [(1, 1.0)]])
    assert st.round_no == 2
    assert st.col_max.tolist() == [2.0, 0.0]


def test_run_rows_leaves_a_pending_snap_to_process_row():
    # A boxed round ends with every coordinate at its cap in the tight set,
    # so plant one that is not: x_2 within SNAP of 1. The per-row loop
    # snaps it on the next row that touches it; run_rows must send rows to
    # process_row until then instead of booking them.
    rows = make_lp_instance(3, [1.0, 1.0, 1.0], [[(0, 1.0), (1, 1.0)],
                                                  [(2, 1.0)], [(0, 2.0)]],
                            boxed=True).rows
    states = []
    for feed in (lambda st: [covering_lp.process_row(st, r) for r in rows[1:]],
                 lambda st: covering_lp.run_rows(st, rows[1:])):
        st = covering_lp.new_lp_solver(3, [1.0, 1.0, 1.0], boxed=True)
        covering_lp.process_row(st, rows[0])
        st.phase.x[2] = 1.0 - 1e-13
        feed(st)
        states.append(_state(st))
    assert states[0] == states[1]
    assert states[0]["phase"][3] == [False, False, True]


def test_run_rows_decides_rows_near_one_by_their_own_dot():
    # With tol_feas = 1e-16 the bar is the float just below 1. A block sum
    # adds the products in another order than the row's own dot product, so
    # it can round to 1 where the dot stays below the bar: such a row fails
    # process_row's test and must grow, not be booked.
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
    states = []
    for feed in (lambda st: [covering_lp.process_row(st, r) for r in rows[:3]],
                 lambda st: covering_lp.run_rows(st, rows[:3])):
        st = covering_lp.new_lp_solver(n, np.ones(n), params=params)
        covering_lp.process_row(st, Row(np.arange(n), np.ones(n), n))
        st.phase.x[:] = x
        st.phase.obj = float(st.c @ x)
        feed(st)
        states.append(_state(st))
    assert states[0] == states[1]
