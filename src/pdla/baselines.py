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

from .covering_lp import (ADVICE_ROW_TOL, _row_test, current_solution,
                          new_lp_solver, process_row)
from .errors import (Infeasible, MalformedDocument, NotConverged,
                     UnscalableRow)
from .instances import (AdviceVector, CoveringLpInstance, Row, SolverParams,
                        as_number, as_vector, row_arrays)


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
    online = new_lp_solver(n, costs, advice=None, params=params)
    c, xp = online.c, as_vector(advice.x_prime, online.n, "advice x")
    cost_advice = float(c @ xp)
    advice_ok = True
    crossed = False            # cost of advice dipped below the online run
    base = np.zeros(n)         # frozen online iterate at the crossing round
    records: list[SwitchRecord] = []
    published = np.zeros(n)
    for i, row in enumerate(rows, start=1):
        row = Row(*row_arrays(row, n), n)
        process_row(online, row)
        x_on = current_solution(online)
        advice_ok = advice_ok and _row_test(row.idx, row.vals, xp,
                                            ADVICE_ROW_TOL)[1]
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
    misses entirely, or one whose scaled suggestion overflows, cannot be
    fixed by scaling: UnscalableRow. The suggestion must hold n numbers
    (`instances.as_vector`).
    """
    xp = as_vector(advice_x, n, "advice")
    x = np.zeros_like(xp)
    # Overflow shows as a non-finite point, which raises below.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in enumerate(rows, start=1):
            idx, vals = row_arrays(row, n)
            if _row_test(idx, vals, x, ADVICE_ROW_TOL)[1]:
                continue
            aval = vals @ xp[idx]
            if aval <= 0.0:
                raise UnscalableRow(
                    f"row {i} has no overlap with the suggestion")
            scaled = xp * max(1.0, 1.0 / aval)
            if not np.isfinite(scaled).all():
                raise UnscalableRow(f"row {i} scales the suggestion by "
                                    f"1 / {aval:.6g}, which overflows")
            x = np.maximum(x, scaled)
    return x


def offline_solve(inst: CoveringLpInstance, eps: float = 1e-6) -> OfflineCertificate:
    """Near-optimal offline primal and dual for a covering instance.

    Solves min c x, A x >= 1, 0 <= x (<= 1 when boxed) with HiGHS, without
    presolve, and rescales the primal to exact row feasibility. The dual is
    built from HiGHS's row duals y alone, so it is feasible by construction:
    unboxed, y is divided by max(1, max_j (A'y)_j / c_j); boxed, the box
    duals are z = max(A'y - c, 0). Then dual_objective = sum(y) - sum(z) is
    a lower bound on the optimum, and gap = objective - dual_objective.

    That answer is kept when HiGHS reports success and gap <= eps *
    objective. Otherwise HiGHS runs once more with presolve, its answer gets
    a certificate formed the same way, and of the solves that succeeded the
    cheapest primal is returned with the largest dual objective, whose gap
    may then exceed eps; either way the true optimum lies in
    [dual_objective, objective] up to roundoff. Raises only when neither
    solve succeeds: Infeasible when the instance has no feasible point,
    NotConverged on any other HiGHS failure.
    """
    # Imported here: scipy.optimize costs every process that never solves
    # offline (an SDP run, say) tens of MB and a few tenths of a second.
    import scipy.sparse as sp
    from scipy.optimize import linprog

    eps = as_number(eps, "eps")
    if not (0 < eps <= 0.5):
        raise MalformedDocument(f"eps must lie in (0, 0.5], got {eps}")
    n, m = inst.n, len(inst.rows)
    if m == 0:
        zero = np.zeros(0)
        return OfflineCertificate(x=np.zeros(n), y=zero, z=np.zeros(n),
                                  objective=0.0, dual_objective=0.0, gap=0.0)
    idx, vals = zip(*(row_arrays(row, n) for row in inst.rows))
    indptr = np.concatenate(([0], np.cumsum([i.size for i in idx])))
    A = sp.csr_matrix((np.concatenate(vals), np.concatenate(idx), indptr),
                      shape=(m, n))
    A.sort_indices()
    A_ub, b_ub = -A, -np.ones(m)
    bounds = (0.0, 1.0) if inst.boxed else (0.0, None)

    def solve(**options):
        return linprog(inst.c, A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                       method="highs", options=options)

    # Presolve removes nothing from these LPs and costs more than half of
    # the solve; it runs only when the answer without it does not certify.
    res = solve(presolve=False)
    certs = [_certificate(inst, A, res)] if res.status == 0 else []
    if certs and certs[0].gap <= eps * certs[0].objective:
        return certs[0]
    res = solve()
    if res.status == 0:
        certs.append(_certificate(inst, A, res))
    elif not certs:
        if res.status == 2:
            raise Infeasible("offline covering LP is infeasible")
        raise NotConverged(f"linprog failed with status {res.status}")
    # Every primal covers and every dual is feasible, so the cheapest
    # primal and the largest dual objective bracket the optimum tightest.
    primal = min(certs, key=lambda cert: cert.objective)
    dual = max(certs, key=lambda cert: cert.dual_objective)
    return OfflineCertificate(x=primal.x, y=dual.y, z=dual.z,
                              objective=primal.objective,
                              dual_objective=dual.dual_objective,
                              gap=primal.objective - dual.dual_objective)


def _certificate(inst: CoveringLpInstance, A, res) -> OfflineCertificate:
    """The primal of a successful linprog result, rescaled to cover every
    row, and a dual built from its row duals alone so that it is feasible."""
    # HiGHS can leave bound violations at roundoff scale; clamp into the box
    x = np.maximum(np.asarray(res.x, dtype=float), 0.0)
    if inst.boxed:
        x = np.minimum(x, 1.0)
    worst = float((A @ x).min())
    if worst < 1.0:
        x = x / worst
        if inst.boxed:
            x = np.minimum(x, 1.0)
    y = np.maximum(-np.asarray(res.ineqlin.marginals, dtype=float), 0.0)
    load = A.T @ y
    if inst.boxed:
        z = np.maximum(load - inst.c, 0.0)
    else:
        y = y / max(1.0, float(np.max(load / inst.c)))
        z = np.zeros(inst.n)
    objective = float(inst.c @ x)
    dual_objective = float(y.sum() - z.sum())
    return OfflineCertificate(x=x, y=y, z=z, objective=objective,
                              dual_objective=dual_objective,
                              gap=objective - dual_objective)


def exact_lp_optimum(inst: CoveringLpInstance, max_bases: int = 200_000) -> float:
    """Exact optimum by enumerating basic solutions; for small instances.

    A vertex of {A x >= 1, 0 <= x (<= 1)} is cut out by n tight constraints
    drawn from the rows and the bounds. Enumerates all such square systems,
    keeps the feasible solutions, and returns the cheapest cost. Guards
    against combinatorial blowup via max_bases.

    Each column is measured in its own units, u_j = s_j x_j with s_j the
    column's largest coefficient, and each square system's rows are scaled
    to unit size before its conditioning is tested. So which bases count as
    singular, and which solutions as feasible, does not depend on the units
    of a row or a column.
    """
    n, m = inst.n, len(inst.rows)
    if m == 0:
        return 0.0
    A = np.zeros((m, n))
    for i, row in enumerate(inst.rows):
        idx, vals = row_arrays(row, n)
        A[i, idx] = vals
    s = A.max(axis=0)
    s[s <= 0.0] = 1.0
    As = A / s
    eye = np.eye(n)
    # (row, right side, the column a bound row pins or -1)
    pool = [(r, 1.0, -1) for r in As] + [(eye[j], 0.0, j) for j in range(n)]
    if inst.boxed:
        pool += [(eye[j], s[j], j) for j in range(n)]
    total = len(pool)
    from math import comb
    if comb(total, n) > max_bases:
        raise NotConverged(
            f"{comb(total, n)} candidate bases exceed the {max_bases} guard")
    best = np.inf
    for combo in combinations(range(total), n):
        M, rhs, pin = (np.array(v) for v in zip(*(pool[k] for k in combo)))
        # Conditioned worse than this, the solve carries no correct digits.
        if np.linalg.cond(M / np.abs(M).max(axis=1, keepdims=True)) > 1e12:
            continue
        u = np.linalg.solve(M, rhs)
        # A pinned coordinate takes its bound exactly, not the solve's
        # roundoff, which a large cost would turn into a real cost.
        on_bound = pin >= 0
        u[pin[on_bound]] = rhs[on_bound]
        if np.any(u < -1e-9):
            continue
        x = np.maximum(u, 0.0) / s
        if inst.boxed and np.any(x > 1.0 + 1e-9):
            continue
        if np.any(As @ u < 1.0 - 1e-9):
            continue
        best = min(best, float(inst.c @ x))
    if not np.isfinite(best):
        raise Infeasible("no feasible basic solution")
    return best
