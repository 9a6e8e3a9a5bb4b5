"""Switching wrapper, advice scaling, and offline solver baselines."""
import numpy as np
import pytest

from pdla.baselines import (OfflineCertificate, advice_scaling,
                            exact_lp_optimum, offline_solve, simple_switch)
from pdla.errors import Infeasible, MalformedDocument, UnscalableRow
from pdla.instances import make_lp_instance, validate_advice


def _random_stream(rng, n, m, lo=0.2, hi=1.5):
    rows = []
    for _ in range(m):
        cols = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)),
                          replace=False)
        rows.append([(int(j), float(rng.uniform(lo, hi))) for j in cols])
    return rows


def test_switch_tracks_cheaper_feasible_advice():
    # The suggestion (1, 0) costs 1 and satisfies both rows; the online
    # solver pays more, so the switch must land within 2 * cost(advice).
    rows = [[(0, 1.0)], [(0, 2.0)]]
    adv = validate_advice([1.0, 0.0], 0.5, 2, boxed=False)
    x, records = simple_switch(2, [1.0, 5.0], rows, adv)
    for row in rows:
        assert sum(a * x[j] for j, a in row) >= 1.0 - 1e-7
    assert float(np.array([1.0, 5.0]) @ x) <= 2 * 1.0 + 1e-6
    assert all(r.advice_feasible for r in records)
    assert any(r.switched for r in records)


def test_switch_abandons_infeasible_advice():
    # The suggestion covers row 1 but misses row 2 entirely.
    rows = [[(0, 1.0)], [(1, 1.0)]]
    adv = validate_advice([1.0, 0.0], 0.5, 2, boxed=False)
    x, records = simple_switch(2, [1.0, 1.0], rows, adv)
    for row in rows:
        assert sum(a * x[j] for j, a in row) >= 1.0 - 1e-7
    assert records[0].advice_feasible
    assert not records[1].advice_feasible


def test_switch_published_is_always_feasible_prefixwise():
    rng = np.random.default_rng(41)
    n, m = 5, 12
    c = rng.uniform(0.5, 2.0, size=n)
    rows = _random_stream(rng, n, m)
    adv = validate_advice(rng.uniform(0.0, 1.2, size=n), 0.5, n, boxed=False)
    # Replay the stream and check every prefix against its record.
    for upto in (3, 7, m):
        x, records = simple_switch(n, c, rows[:upto], adv)
        for row in rows[:upto]:
            assert sum(a * x[j] for j, a in row) >= 1.0 - 1e-7
        assert records[-1].cost_published == pytest.approx(float(c @ x))


def test_advice_scaling_covers_each_row():
    rows = [[(0, 0.5)], [(0, 0.2), (1, 0.4)]]
    x = advice_scaling(2, rows, [1.0, 1.0])
    for row in rows:
        assert sum(a * x[j] for j, a in row) >= 1.0 - 1e-9
    # First row needs x0 = 2; it already covers the second (0.4 + 0.4 < 1
    # though: 0.2*2 + 0.4*2 = 1.2 >= 1 after the max fold).
    assert x[0] == pytest.approx(2.0)


def test_advice_scaling_rejects_disjoint_row():
    with pytest.raises(UnscalableRow):
        advice_scaling(2, [[(1, 1.0)]], [1.0, 0.0])


def test_advice_scaling_near_optimal_with_perfect_advice():
    rng = np.random.default_rng(43)
    n, m = 4, 10
    rows = _random_stream(rng, n, m)
    inst = make_lp_instance(n, np.ones(n), rows)
    opt = offline_solve(inst)
    x = advice_scaling(n, rows, opt.x)
    # Exactly feasible advice never triggers a scale factor above 1 + eps.
    assert float(np.ones(n) @ x) <= opt.objective * (1.0 + 1e-5)


def test_offline_certificate_sandwich():
    rng = np.random.default_rng(47)
    n, m = 6, 14
    c = rng.uniform(0.5, 3.0, size=n)
    rows = _random_stream(rng, n, m)
    inst = make_lp_instance(n, c, rows)
    cert = offline_solve(inst, eps=1e-6)
    vals = [sum(a * cert.x[j] for j, a in row) for row in rows]
    assert min(vals) >= 1.0 - 1e-9
    assert cert.gap <= 1e-6 * max(1.0, cert.objective)
    assert cert.dual_objective <= cert.objective + 1e-9
    assert np.all(cert.y >= 0)
    doc = cert.to_doc()
    assert set(doc) == {"x", "y", "z", "objective", "dual_objective", "gap"}


def test_offline_boxed_duals():
    # Box binds: single row 0.5 x0 + x1 >= 1 with c = (1, 10) wants x0 big,
    # but x0 <= 1 forces x1 = 0.5.
    inst = make_lp_instance(2, [1.0, 10.0], [[(0, 0.5), (1, 1.0)]],
                            boxed=True)
    cert = offline_solve(inst)
    assert cert.x[0] == pytest.approx(1.0, abs=1e-6)
    assert cert.x[1] == pytest.approx(0.5, abs=1e-6)
    assert cert.objective == pytest.approx(6.0, rel=1e-6)
    assert cert.gap <= 1e-6 * cert.objective


def test_offline_infeasible_boxed():
    inst = make_lp_instance(1, [1.0], [[(0, 0.4)]], boxed=True)
    with pytest.raises(Infeasible):
        offline_solve(inst)


def test_offline_eps_validation():
    inst = make_lp_instance(1, [1.0], [[(0, 1.0)]])
    with pytest.raises(MalformedDocument):
        offline_solve(inst, eps=0.0)
    with pytest.raises(MalformedDocument):
        offline_solve(inst, eps=0.9)


def test_exact_enumeration_agrees_with_highs():
    rng = np.random.default_rng(53)
    for boxed in (False, True):
        for _ in range(6):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            rows = _random_stream(rng, n, m, lo=0.4, hi=1.5)
            c = rng.uniform(0.5, 2.0, size=n)
            if boxed:
                # ensure coverable inside the box
                rows = [r if sum(a for _, a in r) >= 1.0
                        else [(j, a + 1.0) for j, a in r] for r in rows]
            inst = make_lp_instance(n, c, rows, boxed=boxed)
            cert = offline_solve(inst)
            ref = exact_lp_optimum(inst)
            assert cert.objective == pytest.approx(ref, rel=1e-5, abs=1e-7)


def test_exact_enumeration_hand_case():
    # min x0 + x1 s.t. x0 + x1 >= 1, x0 >= 0, x1 >= 0 has optimum 1.
    inst = make_lp_instance(2, [1.0, 1.0], [[(0, 1.0), (1, 1.0)]])
    assert exact_lp_optimum(inst) == pytest.approx(1.0)
    # Costs (1, 3) pick the cheap coordinate.
    inst2 = make_lp_instance(2, [1.0, 3.0], [[(0, 1.0), (1, 2.0)]])
    assert exact_lp_optimum(inst2) == pytest.approx(1.0)


_SDP_WITHOUT_LP_SOLVER = """
import sys
import numpy as np
import pdla.cli, pdla.covering_sdp, pdla.experiments
from pdla.instances import make_lp_instance, make_sdp_instance
g = np.array([[1.0, 0.5], [0.5, 2.0]])
inst = make_sdp_instance(2, 2, [1.0, 2.0], [g, np.diag([1.0, 0.0])],
                         [0.5 * np.eye(2), np.eye(2)])
state, _ = pdla.covering_sdp.run_sdp(inst)
assert state.iterations > 0
assert "scipy.optimize" not in sys.modules, "SDP run loaded scipy.optimize"
cert = pdla.experiments.offline_solve(
    make_lp_instance(2, [1.0, 3.0], [[(0, 1.0), (1, 1.0)]]))
print(cert.objective)
"""


def test_sdp_run_does_not_import_the_lp_solver(fresh_python):
    out = fresh_python("-c", _SDP_WITHOUT_LP_SOLVER)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) == pytest.approx(1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, rows, advice_x", [
    (1, [[(0, 1.0)]], [1e-320]),                # 1 / 1e-320 overflows
    (2, [[(0, 1e-300)]], [1e-10, 0.0]),         # inf, and 0 * inf = nan
])
def test_advice_scaling_refuses_a_scale_that_overflows(n, rows, advice_x):
    # The scaled suggestion would be non-finite: an error naming the row,
    # not a published inf or nan, and no numpy warning.
    with pytest.raises(UnscalableRow, match="row 1 .*overflows"):
        advice_scaling(n, rows, advice_x)


@pytest.mark.filterwarnings("error")
def test_advice_scaling_keeps_a_huge_row_value_finite():
    # The row value at x' overflows to inf: x' covers the row unscaled.
    x = advice_scaling(1, [[(0, 1e200)]], [1e200])
    assert x.tolist() == [1e200]


@pytest.mark.parametrize("n, rows, advice_x", [
    (True, [[(0, 1.0)]], [0.5]),            # a bool is not the count 1
    (0, [], []),
    (2.0, [[(0, 1.0)]], [0.5, 0.5]),        # a float is not a count
])
def test_advice_scaling_checks_n_as_make_lp_instance_does(n, rows, advice_x):
    message = "n must be a positive integer"
    with pytest.raises(MalformedDocument, match=message):
        make_lp_instance(n, advice_x, rows)
    with pytest.raises(MalformedDocument, match=message):
        advice_scaling(n, rows, advice_x)
