"""The one LP row test (`covering_lp._row_test`) and the held-row path.

process_row decides a row at the phase point by the row's own dot product
against 1 - tol_feas, the same test `_RowSeparation.holds` makes inside
`grow_round`. A row that passes is held: it gets an `already_satisfied`
report carrying that dot product and builds no separation step. A row that
fails builds one and grows.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from pdla import covering_lp
from pdla.errors import NoFeasibleSolution
from pdla.instances import Row, SolverParams, validate_advice


@st.composite
def probes(draw):
    """A solver with an open phase and a row of 1 to 200 entries whose
    value at the phase point is near a drawn target, often the bar."""
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 200))
    n = k + draw(st.integers(0, 20))
    boxed = draw(st.booleans())
    c = 10.0 ** rng.uniform(-3.0, 3.0, n)
    advice = None
    lam = draw(st.sampled_from([None, 0.0, 0.5, 1.0]))
    if lam is not None:
        x = np.where(rng.random(n) < 0.3, 0.0, 10.0 ** rng.uniform(-3, 0, n))
        advice = validate_advice(x, lam, n, boxed=boxed)
    tol = draw(st.sampled_from([1e-7, 1e-16]))
    state = covering_lp.new_lp_solver(n, c, advice=advice,
                                      params=SolverParams(tol_feas=tol),
                                      boxed=boxed)
    covering_lp.process_row(state, [(j, 1.0) for j in range(n)])
    # The row weighs the point's largest coordinate, so its value is not 0.
    top = int(np.argmax(state.phase.x))
    others = rng.choice(np.delete(np.arange(n), top), k - 1, replace=False)
    idx = np.sort(np.append(others, top))
    vals = 10.0 ** rng.uniform(-2.0, 2.0, k)
    target = draw(st.one_of(
        st.sampled_from([1.0 - tol, 1.0, 0.5, 2.0]), st.floats(0.5, 1.5)))
    vals *= target / float(vals @ state.phase.x[idx])
    pairs = list(zip(idx.tolist(), vals.tolist()))
    row = Row(idx, vals, n) if draw(st.booleans()) else pairs
    return state, idx, vals, row


@settings(max_examples=300, deadline=None)
@given(probes())
def test_a_row_is_held_exactly_when_its_separation_holds(case):
    state, idx, vals, row = case
    x = state.phase.x.copy()
    sep = covering_lp._RowSeparation(state, idx, vals)
    held = sep.holds(x)
    # The one test keeps the bits of the row's own `@` product.
    assert sep.value == float(vals @ x[idx])
    grown = []
    real = covering_lp.grow_round

    def spy(st_, sep_, report):
        grown.append(report)
        return real(st_, sep_, report)

    covering_lp.grow_round = spy
    try:
        rep = covering_lp.process_row(state, row)
    except NoFeasibleSolution:
        # A boxed row below 1 with its coordinates at the cap: it grew.
        rep = None
    finally:
        covering_lp.grow_round = real
    assert held == (not grown)
    if rep is None:
        return
    if held:
        assert rep == covering_lp.StepReport(rep.round_no,
                                             row_value=sep.value)
        assert rep.row_value == sep.value
    else:
        assert rep.row_value >= 1.0 - state.params.tol_feas


def test_only_a_row_that_grows_builds_its_separation(monkeypatch):
    built = []

    class Spy(covering_lp._RowSeparation):
        def __init__(self, state, idx, vals):
            built.append(idx.tolist())
            super().__init__(state, idx, vals)

    monkeypatch.setattr(covering_lp, "_RowSeparation", Spy)
    st_ = covering_lp.new_lp_solver(2, [1.0, 1.0])
    # The first row opens phase 1 and ends at x = (1/2, 1/2).
    covering_lp.process_row(st_, [(0, 1.0), (1, 1.0)])
    assert built == [[0, 1]]
    held = covering_lp.process_row(st_, [(0, 2.0)])
    assert held.stop_reason == "already_satisfied" and held.row_value == 1.0
    assert built == [[0, 1]]
    grown = covering_lp.process_row(st_, [(1, 0.5)])
    assert grown.iterations > 0
    assert built == [[0, 1], [1]]


def test_step_reports_have_slots():
    assert not hasattr(covering_lp.StepReport(), "__dict__")
