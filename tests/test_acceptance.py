"""Acceptance suite: ten end-to-end criteria over the whole toolkit.

Every test prints one `criterion N: PASS/FAIL` line with its headline
numbers (run pytest with -s to watch them scroll by). Populations are
frozen behind explicit seeds. The heavy populations are built once per
session and shared: the feasibility, robustness, and consistency runs
(criteria 1-3) feed the counter audit (criterion 4), and the diagonal
matrix/vector twin runs (criterion 6) feed its matrix-side audit.
"""
import itertools
import math
import time

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng
from scipy.stats import spearmanr

from pdla.applications import (FlowNetwork, RootedTree, gst_oracle, max_flow,
                               solve_gst_online)
from pdla.baselines import advice_scaling, offline_solve, simple_switch
from pdla.covering_lp import (beta_seen, current_solution, dual_certificate,
                              kappa_seen, new_lp_solver, process_row)
from pdla.covering_lp_box import new_lp_box_solver, process_row_box
from pdla.covering_sdp import (dual_certificate as sdp_dual_certificate,
                               feasibility_gap, new_sdp_solver,
                               process_matrix)
from pdla.covering_sdp import beta_seen as sdp_beta_seen
from pdla.covering_sdp import kappa_seen as sdp_kappa_seen
from pdla.errors import PhaseRestartLimit, UnscalableRow
from pdla.experiments import (ExperimentConfig, corrupt_advice, gen_synthetic,
                              run_experiment)
from pdla.growth import TOL, advance, coefficient_vector, find_stop
from pdla.instances import (SolverParams, make_lp_instance, make_sdp_instance,
                            validate_advice)
from pdla.metrics import consistency_budget, robustness_budget

TOL_FEAS = 1e-7
SLACK = 8.0
CONSISTENCY_K = consistency_budget(0.1)

# Matches the solvers' exact-snap threshold so the twin reproduces the
# tight-set bookkeeping bit for bit.
SNAP = 1e-12
OBJ_ENTRY_TOL = 1e-12


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ------------------------------------------------------------ lp populations

def gen_lp(rng, force_boxed=None):
    """Random covering instance, n <= 50, m <= 100, short mixed-weight rows.

    Boxed rows are rescaled so the all-ones point covers them, keeping the
    box variant feasible by construction.
    """
    n = int(rng.integers(2, 51))
    m = int(rng.integers(1, 101))
    boxed = (rng.random() < 0.5) if force_boxed is None else force_boxed
    rows = []
    for _ in range(m):
        k = int(rng.integers(1, min(n, 8) + 1))
        support = rng.choice(n, size=k, replace=False)
        vals = 0.2 + 1.8 * rng.random(k)
        if boxed and vals.sum() < 1.05:
            vals = vals * (1.05 / vals.sum())
        rows.append([(int(j), float(v)) for j, v in zip(support, vals)])
    c = 0.1 + 0.9 * rng.random(n)
    return make_lp_instance(n, c, rows, boxed=boxed)


def run_lp(inst, advice):
    if inst.boxed:
        st = new_lp_box_solver(inst.n, inst.c, advice=advice)
        step = process_row_box
    else:
        st = new_lp_solver(inst.n, inst.c, advice=advice)
        step = process_row
    prev = current_solution(st).copy()
    monotone = True
    row_ok = True
    for row in inst.rows:
        rep = step(st, row)
        if rep.row_value < 1.0 - TOL_FEAS:
            row_ok = False
        x = current_solution(st)
        if np.any(x < prev - 1e-12):
            monotone = False
        prev = x.copy()
    feasible = row_ok
    for row in inst.rows:
        if sum(a * prev[j] for j, a in row) < 1.0 - TOL_FEAS:
            feasible = False
    return {
        "n": inst.n, "boxed": inst.boxed,
        "cost": float(inst.c @ prev),
        "alpha1": st.alpha_history[0] if st.alpha_history else None,
        "violations": st.violations_seen, "iterations": st.iterations,
        "beta": beta_seen(st), "kappa": kappa_seen(st),
        "sparsity": st.sparsity_seen if inst.boxed else None,
        "scale": dual_certificate(st).scale,
        "feasible": feasible, "monotone": monotone,
    }


@pytest.fixture(scope="session")
def lp_population():
    """Criteria 1-3 run records, also audited by criterion 4."""
    lams = (0.0, 0.1, 0.5, 0.9, 1.0)
    kinds = ("feasible", "random", "zero", "over")
    c1 = []
    t0 = time.perf_counter()
    for i in range(1000):
        rng = default_rng(SeedSequence([101, i]))
        inst = gen_lp(rng)
        lam = lams[i % 5]
        kind = kinds[(i // 5) % 4]
        if kind == "feasible":
            xp = offline_solve(inst).x
        elif kind == "random":
            xp = rng.random(inst.n) * 0.5
        elif kind == "zero":
            xp = np.zeros(inst.n)
        else:
            xp = np.ones(inst.n) if inst.boxed else np.full(inst.n, 3.0)
        adv = validate_advice(xp, lam, inst.n, boxed=inst.boxed)
        c1.append(run_lp(inst, adv))
    c1_seconds = time.perf_counter() - t0

    c2 = []
    for i in range(200):
        rng = default_rng(SeedSequence([102, i]))
        inst = gen_lp(rng)
        lam = (0.1, 0.5, 1.0)[i % 3]
        adv = validate_advice(np.zeros(inst.n), lam, inst.n, boxed=inst.boxed)
        rec = run_lp(inst, adv)
        rec["lam"] = lam
        rec["cost_offline"] = offline_solve(inst).objective
        c2.append(rec)

    c3 = []
    for i in range(200):
        rng = default_rng(SeedSequence([103, i]))
        inst = gen_lp(rng)
        off = offline_solve(inst)
        adv = validate_advice(off.x, 0.1, inst.n, boxed=inst.boxed)
        rec = run_lp(inst, adv)
        rec["cost_advice"] = float(inst.c @ off.x)
        c3.append(rec)

    return {"c1": c1, "c1_seconds": c1_seconds, "c2": c2, "c3": c3}


# --------------------------------------------- diagonal matrix/vector twins

def gen_diag_sdp(rng, boxed):
    """Random diagonal matrix instance, d <= 10, n <= 8, monotone targets.

    Targets stay coverable per direction: below 0.8x the column mass when
    boxed (so the all-ones point covers them), below 2x otherwise.
    """
    d = int(rng.integers(2, 11))
    n = int(rng.integers(2, 9))
    rounds = int(rng.integers(1, 4))
    diagA = np.zeros((n, d))
    for j in range(n):
        if rng.random() < 0.5:
            mask = rng.random(d) < 0.6
            diagA[j] = mask.astype(float)
        else:
            diagA[j] = rng.random(d) * (rng.random(d) < 0.7)
    for k in range(d):
        if diagA[:, k].sum() <= 0:
            diagA[int(rng.integers(0, n)), k] = 1.0
    for j in range(n):
        if diagA[j].sum() <= 0:
            diagA[j, int(rng.integers(0, d))] = 1.0
    colsum = diagA.sum(axis=0)
    cap = 0.8 * colsum if boxed else 2.0 * colsum
    levels = np.sort(rng.random((rounds, d)), axis=0) * cap
    for i in range(rounds):
        levels[i] *= rng.random(d) < 0.8
    levels = np.maximum.accumulate(levels, axis=0)
    c = 0.1 + 0.9 * rng.random(n)
    A = [np.diag(diagA[j]) for j in range(n)]
    B_stream = [np.diag(levels[i]) for i in range(rounds)]
    return make_sdp_instance(n, d, c, A, B_stream, boxed=boxed)


def natural_alpha(inst):
    """First-round guess the matrix solver derives on its own; handing the
    same value to the vector twin aligns the phase schedules."""
    traces = np.array([float(np.trace(Aj)) for Aj in inst.A])
    for B in inst.B_stream:
        tb = float(np.trace(B))
        if tb > 0:
            ok = traces > 0
            return float(np.min(inst.c[ok] * tb / traces[ok]))
    return None


def lp_twin_nobox(inst, alpha1):
    """Feed the matrix stream's residual directions to the row solver.

    The matrix solver re-chooses its direction after every growth event,
    while the row solver pins a fed row until it is satisfied. Giving the
    row solver one phase per solver instance closes that gap: a budget
    restart aborts the pinned row exactly where the matrix solver abandons
    its direction, and the next solver restarts the phase from the same
    re-initialized point. Objective and advice-free target events are then
    the only exits, and both leave identical states on both sides.
    """
    assert not inst.boxed
    n = inst.n
    A = np.asarray(inst.A)
    tol_psd = SolverParams().tol_psd
    alpha = alpha1
    st = None
    started = False
    pending_init = None
    folds = []
    iters = 0
    guard = 200
    for B in inst.B_stream:
        if not started and float(np.trace(B)) <= 0.0:
            continue
        bnorm = float(np.linalg.norm(B))
        while True:
            if st is not None and st.phase is not None:
                x = st.phase.x
            else:
                x = alpha / (2.0 * n * inst.c)
            resid = np.tensordot(x, A, axes=1) - B
            rd = np.diag(resid)
            k = int(np.argmin(rd))
            if rd[k] >= -tol_psd * max(1.0, bnorm):
                if st is None or st.phase is None:
                    # the matrix side folds its restarted phase into the
                    # published max at round end even when no growth follows
                    pending_init = x.copy()
                break
            pending_init = None
            if st is None:
                st = new_lp_solver(n, inst.c, advice=None,
                                   params=SolverParams(initial_alpha=alpha,
                                                       max_phase=1))
                started = True
            w = A[:, k, k]
            b = float(B[k, k])
            row = [(j, float(w[j] / b)) for j in range(n) if w[j] > 0.0]
            try:
                process_row(st, row)
            except PhaseRestartLimit:
                alpha *= 2.0
                iters += st.iterations
                folds.append(st.x_best.copy())
                st = None
                guard -= 1
                assert guard > 0, "twin runaway phase doubling"
    if st is not None:
        iters += st.iterations
        folds.append(st.x_best.copy())
    if pending_init is not None:
        folds.append(pending_init)
    if not folds:
        folds.append(np.zeros(n))
    x_pub = np.maximum.reduce(folds)
    return float(inst.c @ x_pub), iters


def diagonal_reference(inst, alpha1):
    """Drive the row solver's growth kernel in the matrix solver's event
    order: re-separate on the diagonal after every event, restart the phase
    on objective exits, snap box caps at the loop head. Coordinate k of the
    diagonal is the implicit row, so both sides see identical numbers."""
    n, d = inst.n, inst.d
    A = np.asarray(inst.A)
    diagA = A[:, np.arange(d), np.arange(d)].astype(float)
    c = inst.c
    boxed = inst.boxed
    params = SolverParams()
    alpha = None
    x = None
    tight = np.zeros(n, dtype=bool)
    obj = 0.0
    x_best = np.zeros(n)
    iters = 0
    guard = 200

    def start_phase(a):
        nonlocal alpha, x, tight, obj, guard
        nonlocal x_best
        if x is not None:
            np.maximum(x_best, x, out=x_best)
        guard -= 1
        assert guard > 0, "reference runaway phase doubling"
        alpha = a
        x = a / (2.0 * n * c)
        if boxed:
            x = np.minimum(x, 1.0)
        tight = (x >= 1.0 - SNAP) if boxed else np.zeros(n, dtype=bool)
        x = np.where(tight, 1.0, x)
        obj = float(c @ x)

    for B in inst.B_stream:
        bdiag = np.diag(B).astype(float).copy()
        bnorm = float(np.linalg.norm(B))
        if alpha is None:
            if float(bdiag.sum()) <= 0.0:
                continue
            start_phase(alpha1)
        while True:
            if boxed:
                hit = (x >= 1.0 - SNAP) & ~tight
                if hit.any():
                    obj += float(c[hit] @ (1.0 - x[hit]))
                    x[hit] = 1.0
                    tight[hit] = True
            rd = diagA.T @ x - bdiag
            k = int(np.argmin(rd))
            if rd[k] >= -params.tol_psd * max(1.0, bnorm):
                break
            if obj >= alpha * (1.0 - OBJ_ENTRY_TOL):
                start_phase(alpha * 2.0)
                continue
            w_full = diagA[:, k]
            b = float(bdiag[k])
            free = ~tight
            w = w_full[free]
            tight_mass = float(w_full[~free].sum())
            assert float(w.sum()) > 0.0, "separated a fully capped direction"
            capacity = b - tight_mass if boxed else b
            fidx = np.nonzero(free)[0]
            xb = x[fidx]
            cf = c[fidx]
            zeros = np.zeros(fidx.size)
            D = coefficient_vector(w, zeros, zeros, 1.0, False, capacity)
            ev = find_stop(xb, D, w, cf, 2.0 * capacity, alpha, obj,
                           np.full(fidx.size, np.inf), boxed, TOL)
            iters += 1
            x_new = advance(xb, D, w, cf, ev.delta)
            if ev.kind == "cap":
                x_new[ev.j] = 1.0
            obj += float(cf @ (x_new - xb))
            x[fidx] = x_new
            if ev.kind == "objective":
                start_phase(alpha * 2.0)
        np.maximum(x_best, x, out=x_best)
    return float(c @ x_best), iters


@pytest.fixture(scope="session")
def sdp_population():
    """Criterion 6 twin records, also audited by criterion 4."""
    records = []
    for boxed in (False, True):
        for seed in range(50):
            rng = default_rng([600 + int(boxed), seed])
            inst = gen_diag_sdp(rng, boxed)
            a1 = natural_alpha(inst)
            if a1 is None:
                continue
            st = new_sdp_solver(inst)
            for B in inst.B_stream:
                process_matrix(st, B)
            rec = {
                "boxed": boxed, "n": inst.n,
                "cost": float(inst.c @ st.x_best),
                "iterations": st.iterations,
                "alpha1": st.alpha_history[0] if st.alpha_history else None,
                "beta": sdp_beta_seen(st), "kappa": sdp_kappa_seen(st),
                "sparsity": max(st.sparsity_seen, 1.0),
                "scale": sdp_dual_certificate(st).scale,
            }
            rec["cost_ref"], rec["iters_ref"] = diagonal_reference(inst, a1)
            if not boxed:
                rec["cost_twin"], rec["iters_twin"] = lp_twin_nobox(inst, a1)
            records.append(rec)
    return records


# ------------------------------------------------------- corruption records

@pytest.fixture(scope="session")
def corruption_records():
    """One corruption sweep plus a no-suggestion baseline and the scaling
    baseline on the identical corrupted vectors."""
    grid = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
    cfg = ExperimentConfig(kind="CorruptionSweep", n=100, trials=20,
                           seed=108, lambdas=(0.1,), corruption_rates=grid)
    rows = run_experiment(cfg)
    means = [float(np.mean([m.ratio for m in rows if m.step == ip]))
             for ip in range(len(grid))]
    base_ratios = []
    scaling = {p: [] for p in grid}
    for trial in range(cfg.trials):
        ss = SeedSequence([cfg.seed, trial])
        inst = gen_synthetic(cfg.n, ss, cfg.density, cfg.cost_scale)
        off = offline_solve(inst, cfg.eps_offline)
        st = new_lp_solver(inst.n, inst.c, advice=None)
        for row in inst.rows:
            process_row(st, row)
        base_ratios.append(float(inst.c @ current_solution(st))
                           / off.objective)
        children = ss.spawn(len(grid))
        for ip, p in enumerate(grid):
            xp = corrupt_advice(off.x, p, children[ip])
            adv = validate_advice(xp, 0.1, inst.n, boxed=inst.boxed)
            run = new_lp_solver(inst.n, inst.c, advice=adv)
            for row in inst.rows:
                process_row(run, row)
            cost_pdla = float(inst.c @ current_solution(run))
            try:
                xs = advice_scaling(inst.n, inst.rows, xp)
                scaling[p].append(float(inst.c @ xs) / cost_pdla)
            except UnscalableRow:
                pass
    return {"grid": grid, "means": means, "trials": cfg.trials,
            "base_mean": float(np.mean(base_ratios)), "scaling": scaling}


# ------------------------------------------------------------- the criteria

def test_criterion_1_feasibility_monotonicity(lp_population):
    recs = lp_population["c1"]
    secs = lp_population["c1_seconds"]
    bad_feas = sum(not r["feasible"] for r in recs)
    bad_mono = sum(not r["monotone"] for r in recs)
    ok = bad_feas == 0 and bad_mono == 0 and secs < 60.0
    _report(1, ok, f"{len(recs)} runs, {bad_feas} feasibility and "
                   f"{bad_mono} monotonicity violations, {secs:.1f}s")
    assert bad_feas == 0 and bad_mono == 0
    assert secs < 60.0


def test_criterion_2_robustness(lp_population):
    worst = 0.0
    violations = 0
    for r in lp_population["c2"]:
        bound = robustness_budget(r["kappa"], r["n"], r["lam"]) \
            * r["cost_offline"] / (1.0 - 1e-6)
        frac = r["cost"] / bound
        worst = max(worst, frac)
        violations += frac > 1.0
    ok = violations == 0
    _report(2, ok, f"200 adversarial-advice runs, worst cost/bound "
                   f"{worst:.3f}, {violations} violations")
    assert violations == 0


def test_criterion_3_consistency(lp_population):
    # small-instance sweep backing the chosen K, then the main population
    sweep_max = 0.0
    for i in range(2000):
        rng = default_rng(SeedSequence([1031, i]))
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        boxed = rng.random() < 0.5
        rows = []
        for _ in range(m):
            k = int(rng.integers(1, n + 1))
            support = rng.choice(n, size=k, replace=False)
            vals = 0.2 + 1.8 * rng.random(k)
            if boxed and vals.sum() < 1.05:
                vals = vals * (1.05 / vals.sum())
            rows.append([(int(j), float(v)) for j, v in zip(support, vals)])
        c = 0.1 + 0.9 * rng.random(n)
        inst = make_lp_instance(n, c, rows, boxed=boxed)
        off = offline_solve(inst)
        adv = validate_advice(off.x, 0.1, inst.n, boxed=inst.boxed)
        rec = run_lp(inst, adv)
        sweep_max = max(sweep_max, rec["cost"] / float(inst.c @ off.x))
    worst = 0.0
    violations = 0
    for r in lp_population["c3"]:
        ratio = r["cost"] / r["cost_advice"]
        worst = max(worst, ratio)
        violations += ratio > CONSISTENCY_K
    ok = violations == 0 and sweep_max <= CONSISTENCY_K
    _report(3, ok, f"K={CONSISTENCY_K:.3f}; small-sweep max ratio "
                   f"{sweep_max:.3f} (2000 runs), population max "
                   f"{worst:.3f} (200 runs), {violations} violations")
    assert sweep_max <= CONSISTENCY_K
    assert violations == 0


def _log2(v):
    return math.log2(v) if v > 0 else float("-inf")


def counter_ceiling(rec):
    """Criterion 4's ceiling on a run's counter, the same for the vector
    and the matrix solvers: SLACK n (max(log2(2 sparsity), 1) phases + 1)
    when boxed, else SLACK n phases (log2 n + log2 cost + log2 beta + 3),
    with phases = max(log2(cost / alpha1), 1)."""
    phases = max(_log2(rec["cost"] / rec["alpha1"]), 1.0)
    if rec["boxed"]:
        return SLACK * rec["n"] * max(_log2(2.0 * rec["sparsity"]), 1.0) \
            * phases + SLACK * rec["n"]
    inner = max(math.log2(rec["n"]) + _log2(rec["cost"]) + _log2(rec["beta"])
                + 3.0, 1.0)
    return SLACK * rec["n"] * phases * inner


def lp_counter_fraction(rec):
    """Counter over its ceiling: retrieved violations for the plain
    variant, growth iterations for the boxed one."""
    counter = rec["iterations"] if rec["boxed"] else rec["violations"]
    return counter / counter_ceiling(rec)


def test_criterion_4_counters(lp_population, sdp_population):
    worst_lp = 0.0
    total = 0
    for key in ("c1", "c2", "c3"):
        for rec in lp_population[key]:
            if rec["alpha1"] is None:
                continue
            worst_lp = max(worst_lp, lp_counter_fraction(rec))
            total += 1
    worst_sdp = 0.0
    worst_scale = 0.0
    for rec in sdp_population:
        worst_sdp = max(worst_sdp, rec["iterations"] / counter_ceiling(rec))
        # advice-free runs are audited at full distrust
        scale_bound = SLACK * math.log(1.0 + 2.0 * max(rec["kappa"], 1.0)
                                       * rec["n"])
        worst_scale = max(worst_scale, rec["scale"] / scale_bound)
    ok = worst_lp <= 1.0 and worst_sdp <= 1.0 and worst_scale <= 1.0
    _report(4, ok, f"{total} vector runs worst counter/budget {worst_lp:.3f}"
                   f"; {len(sdp_population)} matrix runs worst "
                   f"{worst_sdp:.3f}, worst dual-scale/budget "
                   f"{worst_scale:.3f}")
    assert worst_lp <= 1.0
    assert worst_sdp <= 1.0
    assert worst_scale <= 1.0


def test_criterion_5_hand_traces():
    errs = []

    st = new_lp_solver(1, [1.0],
                       advice=validate_advice([0.0], 0.5, 1, boxed=False))
    rep = process_row(st, [(0, 1.0)])
    errs.append(abs(st.x_best[0] - 2.0))
    errs.append(abs(rep.row_value - 2.0))
    assert st.alpha_history == [1.0, 2.0, 4.0]
    errs.append(abs(dual_certificate(st).scale - math.log(3.0)))

    st = new_lp_solver(1, [1.0],
                       advice=validate_advice([1.0], 0.0, 1, boxed=False))
    process_row(st, [(0, 1.0)])
    errs.append(abs(st.x_best[0] - 1.0))

    inst = make_sdp_instance(1, 2, [1.0], [np.eye(2)], [np.eye(2)],
                             boxed=False)
    st = new_sdp_solver(inst,
                        advice=validate_advice([0.0], 0.5, 1, boxed=False))
    process_matrix(st, inst.B_stream[0])
    errs.append(abs(st.x_best[0] - 2.0))
    assert st.alpha_history == [1.0, 2.0, 4.0]
    errs.append(abs(feasibility_gap(st, inst.B_stream[0]) - 1.0))

    worst = max(errs)
    ok = worst <= 1e-6
    _report(5, ok, f"three hand traces, max deviation {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_6_diagonal_equivalence(sdp_population):
    worst_rel = 0.0
    iter_mismatches = 0
    n_twin = 0
    for rec in sdp_population:
        pairs = [(rec["cost_ref"], rec["iters_ref"])]
        if not rec["boxed"]:
            pairs.append((rec["cost_twin"], rec["iters_twin"]))
            n_twin += 1
        for cost, iters in pairs:
            worst_rel = max(worst_rel,
                            abs(rec["cost"] - cost)
                            / max(1.0, abs(rec["cost"])))
            iter_mismatches += iters != rec["iterations"]
    ok = worst_rel <= 1e-4 and iter_mismatches == 0
    _report(6, ok, f"{len(sdp_population)} diagonal instances "
                   f"({n_twin} with a public row-solver twin), max relative "
                   f"cost gap {worst_rel:.2e}, {iter_mismatches} iteration "
                   f"mismatches")
    assert worst_rel <= 1e-4
    assert iter_mismatches == 0


def test_criterion_7_trust_dial():
    t0 = time.perf_counter()
    rows = run_experiment(ExperimentConfig(kind="LambdaSweep", n=100,
                                           trials=20, seed=107,
                                           lambdas=(0.0, 1.0)))
    secs = time.perf_counter() - t0
    m0 = float(np.mean([m.ratio for m in rows if m.lam == 0.0]))
    m1 = float(np.mean([m.ratio for m in rows if m.lam == 1.0]))
    ok = m0 <= 0.7 * m1 and secs < 300.0
    _report(7, ok, f"mean ratio {m0:.3f} trusted vs {m1:.3f} distrusted, "
                   f"factor {m0 / m1:.3f} (need <= 0.7), {secs:.1f}s")
    assert m0 <= 0.7 * m1
    assert secs < 300.0


def test_criterion_8_corruption_sweep(corruption_records):
    rec = corruption_records
    rho = float(spearmanr(rec["grid"], rec["means"]).statistic)
    factor = rec["means"][-1] / rec["base_mean"]
    napp = {p: len(v) for p, v in rec["scaling"].items()}
    evidence = ", ".join(
        f"p={p:g}: {napp[p]}/{rec['trials']} scalable"
        + (f" (cost {min(v):.2f}-{max(v):.2f}x ours)" if v else "")
        for p, v in rec["scaling"].items())
    ok = rho >= 0.8 and factor <= 1.5
    _report(8, ok, f"mean ratios {['%.2f' % m for m in rec['means']]} over "
                   f"p={list(rec['grid'])}, spearman {rho:.3f}, fully "
                   f"corrupted vs no-suggestion factor {factor:.3f}; "
                   f"scaling baseline: {evidence}")
    assert rho >= 0.8
    assert factor <= 1.5


@pytest.mark.xfail(strict=True,
                   reason="uncorrupted feasible advice needs no scaling, so "
                          "the scaled baseline costs about the advice itself "
                          "and can never reach 10x the solver's cost; kept "
                          "as stated and expected to fail")
def test_criterion_8_scaling_blowup_at_zero_corruption(corruption_records):
    ratios = corruption_records["scaling"][0.0]
    assert ratios, "scaling baseline inapplicable on every instance"
    ok = min(ratios) >= 10.0
    _report("8 (scaling clause)", ok,
            f"p=0 scaled-advice cost is {min(ratios):.2f}-{max(ratios):.2f}x "
            f"the solver's on {len(ratios)} applicable instances "
            f"(need >= 10x)")
    assert ok


def test_criterion_9_switch_bound():
    worst = 0.0
    violations = 0
    for i in range(100):
        rng = default_rng(SeedSequence([109, i]))
        inst = gen_lp(rng, force_boxed=False)
        off = offline_solve(inst)
        adv = validate_advice(off.x, 0.0, inst.n, boxed=False)
        x, _ = simple_switch(inst.n, inst.c, inst.rows, adv)
        ratio = float(inst.c @ x) / float(inst.c @ off.x)
        worst = max(worst, ratio)
        violations += ratio > 2.0 + 1e-9
    ok = violations == 0
    _report(9, ok, f"100 feasible-advice switch runs, worst "
                   f"cost/advice {worst:.3f} (bound 2), "
                   f"{violations} violations")
    assert violations == 0


# --------------------------------------------------- criterion 10 machinery

def prufer_edges(seq, num_nodes):
    degree = [1] * num_nodes
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(u for u in range(num_nodes) if degree[u] == 1)
    for v in seq:
        u = leaves.pop(0)
        edges.append((u, v))
        degree[v] -= 1
        if degree[v] == 1:
            import bisect
            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return edges


def orient_from_root(num_nodes, edges):
    adj = [[] for _ in range(num_nodes)]
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * num_nodes
    seen = [False] * num_nodes
    seen[0] = True
    stack = [0]
    oriented = []
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                oriented.append((u, v))
                stack.append(v)
    return oriented


def reachable_set(num_nodes, arcs, s, skip):
    adj = [[] for _ in range(num_nodes)]
    for idx, (u, v, cap) in enumerate(arcs):
        if cap > 0 and idx not in skip:
            adj[u].append(v)
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def brute_min_cut(num_nodes, arcs, s, t, cuttable):
    best = math.inf
    live = [k for k in cuttable if arcs[k][2] > 0]
    for mask in range(1 << len(live)):
        skip = {live[i] for i in range(len(live)) if mask >> i & 1}
        if t not in reachable_set(num_nodes, arcs, s, skip):
            best = min(best, sum(arcs[k][2] for k in skip))
    return best


def check_tree_flow(num_nodes, oriented, caps, targets, big):
    """Max flow against subset enumeration on one rooted tree; the sink is
    either a tree node or a fresh super sink behind uncuttable arcs."""
    net = FlowNetwork(num_nodes=num_nodes + 1)
    for (u, v), cap in zip(oriented, caps):
        net.add_arc(u, v, float(cap))
    if len(targets) == 1:
        t = targets[0]
    else:
        t = num_nodes
        for v in targets:
            net.add_arc(v, t, big)
    cuttable = range(len(oriented))
    value, cut = max_flow(net, 0, t)
    best = brute_min_cut(net.num_nodes, net.arcs, 0, t, cuttable)
    if best is math.inf:
        best = 0.0
    assert value == best, (value, best, oriented, caps, targets)
    assert sum(net.arcs[k][2] for k in cut) == value
    assert t not in reachable_set(net.num_nodes, net.arcs, 0, set(cut))


def test_criterion_10_flow_oracle_and_gst():
    # every labeled tree on up to 6 nodes, then random larger trees
    count = 0
    rng = default_rng(SeedSequence([110]))
    for num_nodes in range(2, 7):
        seqs = (itertools.product(range(num_nodes), repeat=num_nodes - 2)
                if num_nodes > 2 else [()])
        for seq in seqs:
            oriented = orient_from_root(num_nodes,
                                        prufer_edges(list(seq), num_nodes))
            caps = rng.integers(0, 17, size=len(oriented))
            t = int(rng.integers(1, num_nodes))
            check_tree_flow(num_nodes, oriented, caps, [t], 200.0)
            gsize = int(rng.integers(1, min(3, num_nodes - 1) + 1))
            group = rng.choice(np.arange(1, num_nodes), size=gsize,
                               replace=False)
            check_tree_flow(num_nodes, oriented, caps,
                            [int(v) for v in group], 200.0)
            count += 1
    for k in range(300):
        rng_k = default_rng(SeedSequence([1101, k]))
        num_nodes = int(rng_k.integers(7, 12))
        seq = rng_k.integers(0, num_nodes, size=num_nodes - 2)
        oriented = orient_from_root(num_nodes,
                                    prufer_edges(list(seq), num_nodes))
        caps = rng_k.integers(0, 17, size=len(oriented))
        t = int(rng_k.integers(1, num_nodes))
        check_tree_flow(num_nodes, oriented, caps, [t], 300.0)
        gsize = int(rng_k.integers(1, 4))
        group = rng_k.choice(np.arange(1, num_nodes), size=gsize,
                             replace=False)
        check_tree_flow(num_nodes, oriented, caps, [int(v) for v in group],
                        300.0)
        count += 1

    # group Steiner end to end: online cut rows, monotone published point,
    # every group reaches unit flow at the end
    gst_count = 0
    for k in range(30):
        rng_k = default_rng(SeedSequence([1102, k]))
        num_nodes = int(rng_k.integers(6, 52))
        seq = rng_k.integers(0, num_nodes, size=num_nodes - 2)
        edges = prufer_edges(list(seq), num_nodes)
        costs = 0.2 + 1.8 * rng_k.random(len(edges))
        tree = RootedTree.from_edge_list(
            num_nodes, 0, [(u, v, float(c)) for (u, v), c in zip(edges,
                                                                 costs)])
        n_groups = int(rng_k.integers(1, 11))
        groups = []
        for _ in range(n_groups):
            gsize = int(rng_k.integers(1, 5))
            groups.append([int(v) for v in
                           rng_k.choice(num_nodes, size=gsize,
                                        replace=False)])
        advice = None
        if k % 2:
            advice = validate_advice(rng_k.random(len(edges)) * 0.8, 0.3,
                                     len(edges), boxed=True)
        st = new_lp_box_solver(len(edges), costs, advice=advice)
        prev = current_solution(st).copy()
        for group in groups:
            while True:
                row = gst_oracle(tree, group, current_solution(st))
                if row is None:
                    break
                process_row_box(st, row)
                x = current_solution(st)
                assert np.all(x >= prev - 1e-12)
                prev = x.copy()
        x_final = current_solution(st)
        for group in groups:
            assert gst_oracle(tree, group, x_final) is None
        x_wrapper, _ = solve_gst_online(tree, groups, advice=advice)
        assert np.array_equal(x_wrapper, x_final)
        gst_count += 1

    _report(10, True, f"{count} trees match subset-enumeration min cuts "
                      f"exactly; {gst_count} group Steiner runs feasible "
                      f"and monotone")
