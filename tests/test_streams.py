"""Seeded random streams over a wide dynamic range, and metamorphic checks.

The streams feed small LP and SDP instances whose costs and coefficients
spread over 1e-8 to 1e8, half of them boxed and 60% with advice at lambda in
{0, 0.3, 1}. After every round the published point must be finite, must not
decrease, and must cover everything fed so far. A stream may end early only
with `NoFeasibleSolution`, and an LP stream only on a boxed row that cannot
reach 1 even at the all-ones point; any other exception fails the test.

The metamorphic tests rescale an instance: its normalized cost and its
iteration and phase counts must not depend on the units of the costs or of
the coefficients.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence, default_rng

from pdla import covering_lp, covering_sdp
from pdla.errors import NoFeasibleSolution
from pdla.experiments import gen_synthetic
from pdla.instances import (SolverParams, make_lp_instance, make_sdp_instance,
                            validate_advice)

PARAMS = SolverParams()
LP_STREAMS, SDP_STREAMS = 300, 100
REL = 1e-9


def _spread(rng, size):
    return 10.0 ** rng.uniform(-8.0, 8.0, size)


def _advice(rng, n, boxed):
    if rng.random() >= 0.6:
        return None
    x = np.where(rng.random(n) < 0.3, 0.0, _spread(rng, n))
    if boxed:
        x = np.minimum(x, 1.0)
    return validate_advice(x, rng.choice([0.0, 0.3, 1.0]), n, boxed=boxed)


def _lp_stream(seed):
    """Feed one random LP stream; returns how it ended."""
    rng = default_rng([11, seed])
    n = int(rng.integers(1, 8))
    boxed = bool(rng.random() < 0.5)
    st = covering_lp.new_lp_solver(n, _spread(rng, n),
                                   advice=_advice(rng, n, boxed), boxed=boxed)
    fed, prev = [], np.zeros(n)
    for _ in range(int(rng.integers(1, 15))):
        idx = np.sort(rng.choice(n, int(rng.integers(1, n + 1)),
                                 replace=False))
        vals = _spread(rng, idx.size)
        try:
            covering_lp.process_row(st, list(zip(idx.tolist(), vals.tolist())))
        except NoFeasibleSolution:
            assert boxed and vals.sum() < 1.0
            return "infeasible"
        fed.append((idx, vals))
        x = covering_lp.current_solution(st)
        assert np.all(np.isfinite(x)) and np.all(x >= prev), seed
        assert all(float(v @ x[i]) >= 1.0 - PARAMS.tol_feas
                   for i, v in fed), seed
        prev = x
    return "ok"


def _sdp_stream(seed):
    """Feed one random SDP stream (n <= 5, d <= 4); returns how it ended."""
    rng = default_rng([12, seed])
    n, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    boxed = bool(rng.random() < 0.5)
    A = []
    for _ in range(n):
        U = rng.standard_normal((d, int(rng.integers(1, d + 1))))
        A.append(10.0 ** rng.uniform(-4, 4) * (U @ U.T))
    B, cur = [], np.zeros((d, d))
    for _ in range(int(rng.integers(1, 6))):
        G = rng.standard_normal((d, int(rng.integers(1, d + 1))))
        cur = cur + 10.0 ** rng.uniform(-4, 4) * (G @ G.T)
        B.append(cur.copy())
    inst = make_sdp_instance(n, d, _spread(rng, n), A, B, boxed=boxed)
    st = covering_sdp.new_sdp_solver(inst, advice=_advice(rng, n, boxed))
    prev = np.zeros(n)
    for target in inst.B_stream:
        try:
            covering_sdp.process_matrix(st, target)
        except NoFeasibleSolution:
            return "infeasible"
        x = covering_sdp.current_solution(st)
        assert np.all(np.isfinite(x)) and np.all(x >= prev), seed
        # The targets grow, so covering the last one covers them all.
        floor = -PARAMS.tol_psd * max(1.0, float(np.linalg.norm(target)))
        assert covering_sdp.feasibility_gap(st, target) >= floor, seed
        prev = x
    return "ok"


def test_random_lp_streams_publish_finite_covering_points():
    ends = [_lp_stream(seed) for seed in range(LP_STREAMS)]
    assert ends.count("ok") > LP_STREAMS // 2


def test_random_sdp_streams_publish_finite_covering_points():
    ends = [_sdp_stream(seed) for seed in range(SDP_STREAMS)]
    assert ends.count("ok") > SDP_STREAMS // 2


def _summary(st):
    return (float(st.c @ st.x_best), st.iterations, len(st.alpha_history))


def _lp_run(inst, advice=None):
    """Cost, iterations and phases of a run, or None when a boxed row is
    infeasible."""
    try:
        return _summary(covering_lp.run_lp(inst, advice=advice)[0])
    except NoFeasibleSolution:
        return None


def _same_run(scaled, base, factor):
    """The scaled run costs factor times the base run, with the same counts."""
    if base is None or scaled is None:
        assert base is scaled
        return
    assert scaled[0] / factor == pytest.approx(base[0], rel=REL, abs=0.0)
    assert scaled[1:] == base[1:]


def _scaled_lp(inst, cost=1.0, coef=1.0):
    rows = [[(j, a * coef) for j, a in row] for row in inst.rows]
    return make_lp_instance(inst.n, inst.c * cost, rows, boxed=inst.boxed)


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6, 1e-9, 1e-12])
def test_lp_normalized_cost_ignores_the_cost_unit(scale):
    # Absolute floors in the event search once gave 7.33e303 at 1e-12.
    inst = gen_synthetic(30, SeedSequence(3), density=0.2)
    base = _lp_run(inst)
    assert base[0] == pytest.approx(38.1228, rel=1e-5)
    _same_run(_lp_run(_scaled_lp(inst, cost=scale)), base, scale)


@st.composite
def lp_cases(draw, boxed):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = default_rng(seed)
    n = int(rng.integers(2, 9))
    rows = []
    for _ in range(int(rng.integers(1, 9))):
        idx = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        rows.append([(int(j), float(10.0 ** rng.uniform(-2, 2)))
                     for j in idx])
    inst = make_lp_instance(n, 10.0 ** rng.uniform(-2, 2, n), rows,
                            boxed=draw(boxed))
    lam = draw(st.sampled_from([None, 0.0, 0.3, 1.0]))
    x = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7)
    advice = None if lam is None else validate_advice(x, lam, n,
                                                      boxed=inst.boxed)
    return inst, advice, 10.0 ** draw(st.integers(-12, 12))


@settings(max_examples=80, deadline=None)
@given(lp_cases(st.booleans()))
def test_lp_cost_scaling_is_metamorphic(case):
    inst, advice, s = case
    _same_run(_lp_run(_scaled_lp(inst, cost=s), advice), _lp_run(inst, advice),
              s)


@settings(max_examples=80, deadline=None)
@given(lp_cases(st.just(False)))
def test_lp_coefficient_scaling_is_metamorphic(case):
    # Rows times s and advice over s describe the same instance in x / s.
    inst, advice, s = case
    scaled_advice = None if advice is None else validate_advice(
        advice.x_prime / s, advice.lam, inst.n, boxed=False)
    _same_run(_lp_run(_scaled_lp(inst, coef=s), scaled_advice),
              _lp_run(inst, advice), 1.0 / s)


def _sdp_run(inst, advice=None):
    try:
        return _summary(covering_sdp.run_sdp(inst, advice=advice)[0])
    except NoFeasibleSolution:
        return None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-12, 12),
       st.sampled_from([None, 0.0, 0.3, 1.0]), st.booleans())
def test_sdp_cost_scaling_is_metamorphic(seed, k, lam, boxed):
    rng = default_rng(seed)
    n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    A = []
    for _ in range(n):
        U = rng.standard_normal((d, 2))
        A.append(U @ U.T)
    B, cur = [], np.zeros((d, d))
    for _ in range(3):
        G = rng.standard_normal((d, 2))
        cur = cur + 0.1 * (G @ G.T)
        B.append(cur.copy())
    c = 10.0 ** rng.uniform(-1, 1, n)
    advice = None if lam is None else validate_advice(
        rng.uniform(0.0, 1.0, n), lam, n, boxed=boxed)
    s = 10.0 ** k
    _same_run(_sdp_run(make_sdp_instance(n, d, c * s, A, B, boxed=boxed),
                       advice),
              _sdp_run(make_sdp_instance(n, d, c, A, B, boxed=boxed), advice),
              s)
