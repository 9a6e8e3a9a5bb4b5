"""Baselines: a switching wrapper, naive advice scaling, and offline solves.

The switching baseline runs a pure online solver alongside the suggestion
and commits to whichever is currently cheaper, paying at most twice the
suggestion while it stays feasible and at most twice the online solver
otherwise. Advice scaling blows the suggestion up just enough to cover each
violated row. The offline solver wraps linprog (HiGHS) and returns a primal
and dual pair whose gap certifies near-optimality; tiny instances can be
cross-checked by enumerating basic solutions.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .covering_lp import current_solution, new_lp_solver, process_row
from .errors import (Infeasible, MalformedDocument, NotConverged,
                     UnscalableRow)
from .instances import (AdviceVector, CoveringLpInstance, SolverParams,
                        validate_row)

ROW_TOL = 1e-9


@dataclass
class SwitchRecord:
    round_no: int
    advice_feasible: bool     # suggestion satisfied every row so far
    cost_online: float
    cost_published: float
    switched: bool            # this round crossed to the suggestion side


@dataclass
class OfflineCertificate:
    x: np.ndarray
    y: np.ndarray             # covering row duals, >= 0
    z: np.ndarray             # box duals (zero when unboxed)
    objective: float
    dual_objective: float
    gap: float

    def to_doc(self) -> dict:
        return {"x": self.x.tolist(), "y": self.y.tolist(),
                "z": self.z.tolist(), "objective": self.objective,
                "dual_objective": self.dual_objective, "gap": self.gap}


def simple_switch(n, costs, rows, advice: AdviceVector,
                  params: SolverParams | None = None):
    """Run the two-candidate switch over a fixed row stream.

    Keeps a pure online solver (no suggestion) in the background. While the
    suggestion is feasible-so-far and cheaper than the online solution, the
    suggestion side is published, taking over from the online iterate by a
    coordinatewise max the round the costs cross. Once the suggestion breaks
    a row, the published point follows max(x', online) from the crossing
    round on, or plain online if no crossing happened yet.

    Returns (x_published, records).
    """
    params = params if params is not None else SolverParams()
    c = np.asarray(costs, dtype=float)
    xp = advice.x_prime
    cost_advice = float(c @ xp)
    online = new_lp_solver(n, c, advice=None, params=params)
    advice_ok = True
    crossed = False            # cost of advice dipped below the online run
    base = np.zeros(n)         # frozen online iterate at the crossing round
    records: list[SwitchRecord] = []
    published = np.zeros(n)
    for i, row in enumerate(rows, start=1):
        row = validate_row(row, n)
        process_row(online, row)
        x_on = current_solution(online)
        if advice_ok and sum(a * xp[j] for j, a in row) < 1.0 - ROW_TOL:
            advice_ok = False
        cost_on = float(c @ x_on)
        switched = False
        if advice_ok:
            if not crossed and cost_advice < cost_on:
                crossed = True
                switched = True
                base = published.copy()   # online iterate before this round
            published = np.maximum(xp, base) if crossed else x_on
        else:
            published = np.maximum(xp, x_on) if crossed else x_on
        records.append(SwitchRecord(round_no=i, advice_feasible=advice_ok,
                                    cost_online=cost_on,
                                    cost_published=float(c @ published),
                                    switched=switched))
    return published, records


def advice_scaling(n, rows, advice_x) -> np.ndarray:
    """Scale the suggestion up until every row is covered.

    Each violated row multiplies the suggestion by 1/(row value at x') and
    folds the result in with a coordinatewise max. A row the suggestion
    misses entirely cannot be fixed by scaling: UnscalableRow.
    """
    xp = np.asarray(advice_x, dtype=float)
    x = np.zeros(n)
    for i, row in enumerate(rows, start=1):
        row = validate_row(row, n)
        val = sum(a * x[j] for j, a in row)
        if val >= 1.0 - ROW_TOL:
            continue
        aval = sum(a * xp[j] for j, a in row)
        if aval <= 0.0:
            raise UnscalableRow(
                f"row {i} has no overlap with the suggestion")
        x = np.maximum(x, xp * max(1.0, 1.0 / aval))
    return x


def offline_solve(inst: CoveringLpInstance, eps: float = 1e-6) -> OfflineCertificate:
    """Near-optimal offline primal and dual for a covering instance.

    Solves min c x, A x >= 1, 0 <= x (<= 1 when boxed) with HiGHS and
    rescales the primal to exact row feasibility. The returned gap satisfies
    gap <= eps * objective, sandwiching the true optimum in
    [dual_objective / (1 + eps), objective].
    """
    # Imported here: scipy.optimize costs every process that never solves
    # offline (an SDP run, say) tens of MB and a few tenths of a second.
    import scipy.sparse as sp
    from scipy.optimize import linprog

    if not (0 < eps <= 0.5):
        raise MalformedDocument(f"eps must lie in (0, 0.5], got {eps}")
    n, m = inst.n, len(inst.rows)
    if m == 0:
        zero = np.zeros(0)
        return OfflineCertificate(x=np.zeros(n), y=zero, z=np.zeros(n),
                                  objective=0.0, dual_objective=0.0, gap=0.0)
    data, ri, ci = [], [], []
    for i, row in enumerate(inst.rows):
        for j, a in row:
            ri.append(i)
            ci.append(j)
            data.append(a)
    A = sp.csr_matrix((data, (ri, ci)), shape=(m, n))
    bounds = (0.0, 1.0) if inst.boxed else (0.0, None)
    res = linprog(inst.c, A_ub=-A, b_ub=-np.ones(m), bounds=bounds,
                  method="highs")
    if res.status == 2:
        raise Infeasible("offline covering LP is infeasible")
    if res.status != 0:
        raise NotConverged(f"linprog failed with status {res.status}")
    # HiGHS can leave bound violations at roundoff scale; clamp into the box
    x = np.maximum(np.asarray(res.x, dtype=float), 0.0)
    if inst.boxed:
        x = np.minimum(x, 1.0)
    vals = A @ x
    worst = float(vals.min())
    if worst < 1.0:
        x = x / worst
        if inst.boxed:
            x = np.minimum(x, 1.0)
    y = np.maximum(-np.asarray(res.ineqlin.marginals, dtype=float), 0.0)
    if inst.boxed:
        z = np.maximum(-np.asarray(res.upper.marginals, dtype=float), 0.0)
    else:
        z = np.zeros(n)
    objective = float(inst.c @ x)
    dual_objective = float(y.sum() - z.sum())
    gap = objective - dual_objective
    return OfflineCertificate(x=x, y=y, z=z, objective=objective,
                              dual_objective=dual_objective, gap=gap)


def exact_lp_optimum(inst: CoveringLpInstance, max_bases: int = 200_000) -> float:
    """Exact optimum by enumerating basic solutions; for small instances.

    A vertex of {A x >= 1, 0 <= x (<= 1)} is cut out by n tight constraints
    drawn from the rows and the bounds. Enumerates all such square systems,
    keeps the feasible solutions, and returns the cheapest cost. Guards
    against combinatorial blowup via max_bases.
    """
    n, m = inst.n, len(inst.rows)
    if m == 0:
        return 0.0
    rows_dense = []
    for row in inst.rows:
        r = np.zeros(n)
        for j, a in row:
            r[j] = a
        rows_dense.append(r)
    pool: list[tuple[np.ndarray, float]] = [(r, 1.0) for r in rows_dense]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        pool.append((e, 0.0))
        if inst.boxed:
            pool.append((e, 1.0))
    total = len(pool)
    from math import comb
    if comb(total, n) > max_bases:
        raise NotConverged(
            f"{comb(total, n)} candidate bases exceed the {max_bases} guard")
    best = np.inf
    for combo in combinations(range(total), n):
        M = np.stack([pool[k][0] for k in combo])
        rhs = np.array([pool[k][1] for k in combo])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, rhs)
        if np.any(x < -1e-9):
            continue
        if inst.boxed and np.any(x > 1.0 + 1e-9):
            continue
        if any(r @ x < 1.0 - 1e-9 for r in rows_dense):
            continue
        best = min(best, float(inst.c @ np.maximum(x, 0.0)))
    if not np.isfinite(best):
        raise Infeasible("no feasible basic solution")
    return best
