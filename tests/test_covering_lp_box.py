"""Hand traces and invariants for the boxed (x <= 1) online LP solver."""
import math

import numpy as np
import pytest

from pdla.covering_lp import current_solution, dual_certificate
from pdla.covering_lp_box import (dual_certificate_box, new_lp_box_solver,
                                  process_row_box, sparsity_estimate)
from pdla.errors import NoFeasibleSolution
from pdla.instances import SolverParams, validate_advice


def test_trace_cap_event_and_tight_promotion():
    # x' = 0.01 pins the init, alpha = 4 keeps the budget away, D = 1, so
    # x(d) = 1.01 e^d - 1 runs into the cap x = 1 at d = ln(2/1.01); the
    # value target x = 2 is unreachable inside the box.
    adv = validate_advice([0.01], 1.0, 1, boxed=True)
    st = new_lp_box_solver(1, [1.0], advice=adv,
                           params=SolverParams(initial_alpha=4.0))
    rep = process_row_box(st, [(0, 1.0)])
    assert rep.tight_added == [0]
    assert rep.stop_reason == "satisfied"
    assert current_solution(st)[0] == 1.0
    assert st.alpha_history == [4.0]
    cert = dual_certificate_box(st)
    assert cert.y[1] == pytest.approx(math.log(2.0 / 1.01), rel=1e-6)
    assert cert.z[0] == 0.0  # nothing was tight while the dual rose


def test_trace_tight_coordinate_accrues_packing_dual():
    # Round 1 caps x0; round 2 (0.5 x0 + x1 >= 1) then grows x1 with
    # capacity 1 - 0.5 = 0.5, D = 0.5, curve 0.51 e^d - 0.5. The cap x1 = 1
    # and the value target (free mass = 2 * capacity) coincide at
    # d = ln(50/17); the cap wins the tie. x0 is tight throughout round 2
    # and accrues z0 = 0.5 d.
    adv = validate_advice([0.01, 0.01], 1.0, 2, boxed=True)
    st = new_lp_box_solver(2, [1.0, 1.0], advice=adv,
                           params=SolverParams(initial_alpha=8.0))
    process_row_box(st, [(0, 1.0)])
    rep2 = process_row_box(st, [(0, 0.5), (1, 1.0)])
    d2 = math.log(50.0 / 17.0)
    assert rep2.tight_added == [1]
    assert np.allclose(current_solution(st), [1.0, 1.0])
    cert = dual_certificate_box(st)
    assert cert.y[2] == pytest.approx(d2, rel=1e-6)
    assert cert.z[0] == pytest.approx(0.5 * d2, rel=1e-6)
    assert cert.z[1] == 0.0
    assert cert.scale == pytest.approx(d2, rel=1e-6)
    assert cert.objective == pytest.approx(
        math.log(2.0 / 1.01) + 0.5 * d2, rel=1e-6)
    # Weak duality against the true optimum (x = (1, 0.5), cost 1.5).
    assert cert.objective / cert.scale <= 1.5 + 1e-6
    assert sparsity_estimate(st) == pytest.approx(2.0)


def test_trace_uncoverable_row_is_certified():
    # The row 0.4 x0 >= 1 cannot be met even at the cap.
    st = new_lp_box_solver(1, [1.0])
    with pytest.raises(NoFeasibleSolution, match="0.4"):
        process_row_box(st, [(0, 0.4)])


def test_cap_beats_advice_and_budget_in_three_way_tie():
    # x' = 1 with lam = 0 gives D = 1 and init 1/2: the cap (x=1), the
    # suggestion (x'=1), and the budget (c.x = alpha = 1) all fire at
    # d = ln(4/3). Cap priority keeps the phase alive and caps the
    # coordinate; no restart may happen here.
    adv = validate_advice([1.0], 0.0, 1, boxed=True)
    st = new_lp_box_solver(1, [1.0], advice=adv)
    rep = process_row_box(st, [(0, 1.0)])
    assert rep.tight_added == [0]
    assert st.alpha_history == [1.0]
    assert current_solution(st)[0] == 1.0


def test_published_solution_never_exceeds_box():
    rng = np.random.default_rng(19)
    n = 7
    st = new_lp_box_solver(n, rng.uniform(0.5, 2.0, size=n))
    rows = []
    for _ in range(25):
        cols = rng.choice(n, size=rng.integers(2, 5), replace=False)
        row = [(int(j), float(rng.uniform(0.3, 1.0))) for j in cols]
        if sum(a for _, a in row) < 1.0:
            continue  # keep the stream feasible inside the box
        rows.append(row)
        process_row_box(st, row)
    x = current_solution(st)
    assert np.all(x <= 1.0 + 1e-12)
    assert np.all(x >= 0.0)
    for row in rows:
        assert sum(a * x[j] for j, a in row) >= 1.0 - 1e-7


def test_boxed_duals_stay_nonnegative_and_scaled_feasible():
    rng = np.random.default_rng(23)
    n = 5
    c = rng.uniform(0.5, 2.0, size=n)
    st = new_lp_box_solver(n, c)
    rows = []
    for _ in range(20):
        cols = rng.choice(n, size=rng.integers(2, 5), replace=False)
        row = [(int(j), float(rng.uniform(0.4, 1.2))) for j in cols]
        if sum(a for _, a in row) < 1.0:
            continue
        rows.append(row)
        process_row_box(st, row)
    cert = dual_certificate_box(st)
    assert all(v >= -1e-12 for v in cert.y.values())
    assert np.all(cert.z >= -1e-12)
    if cert.scale > 0:
        load = np.zeros(n)
        for rnd, yv in cert.y.items():
            for j, a in rows[rnd - 1]:
                load[j] += a * yv
        assert np.all((load - cert.z) / cert.scale <= c + 1e-8)
        assert cert.objective >= -1e-9
