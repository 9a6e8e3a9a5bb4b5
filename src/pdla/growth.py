"""Exponential growth curves and the stop-event search.

All four online solvers grow coordinates along

    x_j(delta) = (xbar_j + D_j) * exp(w_j * delta / c_j) - D_j

for a dual increment delta >= 0, where w_j is the coordinate's weight in the
active constraint (a row entry, or A_j applied to the separating direction).
An iteration ends at the first of a handful of monotone events: a coordinate
reaching its cap or its suggested value (closed form), or the constraint
value / objective crossing a threshold. A crossing is found by Newton's
method from above in the dimensionless exponent delta * max(w / c), so the
events do not depend on the units of costs or coefficients. Events that
coincide within a relative tolerance are resolved by a fixed priority.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExponentOverflow, NoProgress

EXP_GUARD = 700.0    # largest delta * max(w / c) a crossing search reaches
TOL = 1e-9           # relative tolerance of the event search

# Resolution order for coinciding events. Cap beats advice because it changes
# the tight set; the objective check precedes the satisfied-by-two exit.
PRIORITY = ("cap", "advice", "objective", "target")


@dataclass
class StopEvent:
    kind: str            # "cap" | "advice" | "objective" | "target"
    j: int | None        # position in the support arrays (None for scalars)
    delta: float         # dual increment at which the event fires


def coefficient_vector(w, advice_vals, below, lam, advice_feasible,
                       capacity, n1=None) -> np.ndarray:
    """Additive coefficients D_j over the free support of one constraint.

    With trusted-and-feasible advice the coordinate shares lam of the growth
    uniformly and (1 - lam) proportionally to the advice entries still above
    the current point; otherwise growth is uniform, and advice_vals and
    below are not read. Terms with a zero indicator are zero even when their
    normalizer vanishes. n1 is sum(w) when the caller has it.
    """
    w = np.asarray(w, dtype=float)
    if n1 is None:
        n1 = float(w.sum())
    if n1 <= 0:
        raise NoProgress("constraint has no positive weight on free coordinates")
    if not advice_feasible:
        return np.full(w.shape, capacity / n1)
    d = np.full(w.shape, lam / n1)
    n2 = float(np.sum(w * advice_vals * below))
    if n2 > 0 and lam < 1.0:
        d = d + (1.0 - lam) * advice_vals * below / n2
    return d * capacity


def first_crossing(u, g, rhs, hi_bound, tol) -> float:
    """Least delta in [0, hi_bound] with sum(u * exp(g delta)) >= rhs, up to
    a relative tol from above; inf when the crossing lies past hi_bound or
    past the exponent guard delta * max g = EXP_GUARD. Needs u >= 0, g >= 0;
    terms with u = 0 are dropped, so max g runs over the others.

    Newton's method on phi(t) = log sum(v exp(r t)) in the dimensionless
    exponent t = delta * max g, with r = g / max g <= 1 and v = u / rhs, so
    the search reads the same at every scale of u, g and rhs. phi is convex
    and increasing, so every Newton point lies at or past the crossing; the
    first, from t = 0, is the Jensen bound. As phi'' <= phi' (every r is in
    [0, 1]), a Newton step s <= 1/2 leaves the new point at most 2 s^2 past
    the crossing, from either side; the point is returned once that is at
    most tol * t, which for tol <= 1e-4 also keeps s below 1/2. An iterate
    that reads below the crossing after the first step is roundoff, and is
    returned as it is; an iterate clamped at the upper end that reads below
    it means the crossing lies past it.
    """
    su = float(u.sum())
    if su >= rhs:
        return 0.0
    live = u > 0
    u, g = u[live], g[live]
    gmax = float(g.max(initial=0.0))
    t_hi = min(hi_bound * gmax, EXP_GUARD)
    # phi' <= 1, so the crossing lies at or past t = -phi(0) = log(rhs / su).
    if not (gmax > 0.0 and math.log(rhs / su) <= t_hi):
        return np.inf
    r = g / gmax
    v = u / rhs
    vr = v * r
    t, s, sr = 0.0, su / rhs, float(vr.sum())
    while True:
        step = math.log(s) * s / sr
        t_next = max(t - step, 0.0)
        if t_next > t_hi:
            t_next = t_hi
        elif t_next == t or 2.0 * step * step <= tol * t_next:
            return t_next / gmax
        t = t_next
        e = np.exp(r * t)
        s, sr = float(v @ e), float(vr @ e)
        if s < 1.0:
            return np.inf if t == t_hi else t / gmax


def find_stop(xbar, D, w, c, theta, alpha, obj_now, advice_target,
              capped: bool, tol: float, k=None) -> StopEvent:
    """First stop event for one growth iteration over the free support.

    xbar, D, w, c, advice_target are aligned arrays over the free support of
    the active constraint; every cost in c is positive. An advice event is
    armed where xbar < advice_target, and a target of +inf never fires;
    advice_target is None without a suggestion. theta is the satisfied-by-two threshold for
    sum(w x), alpha the phase budget for the full objective, obj_now its
    current value, and capped arms x_j = 1 events. Events within a relative
    8 tol of the earliest coincide with it, and the first of them in
    PRIORITY is taken. k is xbar + D when the caller has it.
    """
    xbar = np.asarray(xbar, dtype=float)
    D = np.asarray(D, dtype=float)
    w = np.asarray(w, dtype=float)
    c = np.asarray(c, dtype=float)
    if k is None:
        k = xbar + D
    growing = (w > 0) & (k > 0)
    if not growing.any():
        raise NoProgress("all growth rates vanished on a violated constraint")
    g = w / c

    def closed_form(targets, armed):
        """Earliest time and position at which an armed coordinate reaches
        its target (an array over the support, or one number for all)."""
        armed = np.flatnonzero(armed)
        if not armed.size:
            return np.inf, None
        t = targets if np.ndim(targets) == 0 else targets[armed]
        deltas = np.maximum((c[armed] / w[armed]) * np.log(
            (t + D[armed]) / k[armed]), 0.0)
        i = int(np.argmin(deltas))
        return float(deltas[i]), int(armed[i])

    if advice_target is None:
        d_adv, j_adv = np.inf, None
    else:
        advice_target = np.asarray(advice_target, dtype=float)
        d_adv, j_adv = closed_form(advice_target,
                                   growing & (xbar < advice_target))
    if capped:
        d_cap, j_cap = closed_form(1.0, growing & (xbar < 1.0))
    else:
        d_cap, j_cap = np.inf, None

    bound = min(d_adv, d_cap)
    # Constraint value: sum(w x(delta)) = theta.
    d_tgt = first_crossing(w * k, g, theta + float(np.dot(w, D)), bound, tol)
    # Objective: obj_now + sum(c (x(delta) - xbar)) = alpha. It is selected
    # only within the tie window of the earliest other event, so it is
    # searched no further.
    b0 = min(bound, d_tgt)
    tie = 1.0 + 8.0 * tol
    rhs_o = alpha - obj_now + float(np.dot(c, xbar)) + float(np.dot(c, D))
    d_obj = first_crossing(c * k, g, rhs_o, min(b0 * tie, bound), tol)
    candidates = {
        "cap": (d_cap, j_cap),
        "advice": (d_adv, j_adv),
        "objective": (d_obj, None),
        "target": (d_tgt, None),
    }
    best = min(b0, d_obj)
    if not np.isfinite(best):
        raise ExponentOverflow("no stop event within the exponent guard")
    for kind in PRIORITY:
        delta, j = candidates[kind]
        if delta <= best * tie:
            return StopEvent(kind=kind, j=j, delta=float(delta))
    raise AssertionError("unreachable")


def advance(xbar, D, w, c, delta, k=None) -> np.ndarray:
    """Move every free coordinate along its growth curve by delta; one that
    does not grow (k = xbar + D = 0) stays put even where its exponential
    overflows."""
    if k is None:
        k = xbar + D
    with np.errstate(over="ignore", invalid="ignore"):
        out = k * np.exp(w * delta / c) - D
    return np.fmax(out, xbar)
