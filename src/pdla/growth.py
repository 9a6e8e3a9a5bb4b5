"""Exponential growth curves and the stop-event search.

All four online solvers grow coordinates along

    x_j(delta) = (xbar_j + D_j) * exp(w_j * delta / c_j) - D_j

for a dual increment delta >= 0, where w_j is the coordinate's weight in the
active constraint (a row entry, or A_j applied to the separating direction).
An iteration ends at the first of a handful of monotone events: a coordinate
reaching its cap or its suggested value (closed form), or the constraint
value / objective crossing a threshold. A crossing is found by doubling and
bisection, which evaluate the function only inside a bracket that Newton
steps place first; the objective crossing is searched only when it can be
the event selected. Events are resolved by a fixed priority when they
coincide.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExponentOverflow, NoProgress

EXP_GUARD = 700.0
NEWTON_STEPS = 8     # cap on the Newton steps that place a crossing's bracket
CERTIFY = 1e-12      # relative half-width of the bracket the Newton point gets

# Resolution order for coinciding events. Cap beats advice because it changes
# the tight set; the objective check precedes the satisfied-by-two exit.
PRIORITY = ("cap", "advice", "objective", "target")


@dataclass
class StopEvent:
    kind: str            # "cap" | "advice" | "objective" | "target"
    j: int | None        # position in the support arrays (None for scalars)
    delta: float         # dual increment at which the event fires


def coefficient_vector(w, advice_vals, below, lam, advice_feasible,
                       capacity) -> np.ndarray:
    """Additive coefficients D_j over the free support of one constraint.

    With trusted-and-feasible advice the coordinate shares lam of the growth
    uniformly and (1 - lam) proportionally to the advice entries still above
    the current point; otherwise growth is uniform. Terms with a zero
    indicator are zero even when their normalizer vanishes.
    """
    w = np.asarray(w, dtype=float)
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


def _excess(u, g, rhs, delta) -> tuple[float, np.ndarray]:
    """sum(u * exp(g delta)) - rhs, the function every crossing search
    signs, and the exponentials exp(g delta) it summed.

    A zero-weight term counts as zero even where its exponential overflows
    (0 * inf is NaN); the sum is redone without those terms only then."""
    e = np.exp(g * delta)
    total = float(np.dot(u, e))
    if math.isnan(total):
        e = np.where(u > 0, e, 0.0)
        total = float(np.dot(u, e))
    return total - rhs, e


def _tie(best, tol) -> float:
    """Width of the window in which events coincide with the earliest one."""
    return max(8.0 * tol * max(1.0, best), 1e-15)


def first_crossing(u, g, rhs, hi_bound, tol) -> float | None:
    """Least delta in [0, hi_bound] with sum(u * exp(g delta)) >= rhs.

    u >= 0 and g >= 0 make the left side nondecreasing; brackets by doubling,
    then bisects until the interval is at most tol * max(1, hi) wide. That
    width is absolute below 1, so the search is not scale-free (ROADMAP
    item 3). Returns None when the crossing lies beyond hi_bound.

    The bisection defines the answer, but it evaluates the function only at
    points inside a bracket a < crossing <= b that Newton steps place first
    (see _newton_bracket); the sign anywhere else follows from monotonicity.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if _excess(u, g, rhs, 0.0)[0] >= 0.0:
            return 0.0
        if not np.isfinite(hi_bound) or _excess(u, g, rhs, hi_bound)[0] < 0.0:
            return None
        a, b = 0.0, hi_bound

        def evaluate(delta):
            nonlocal a, b
            value, e = _excess(u, g, rhs, delta)
            if value < 0.0:
                a = delta
            elif value >= 0.0:
                b = delta
            return value, e

        def f(delta):
            if delta <= a:
                return -1.0
            if delta >= b:
                return 1.0
            return evaluate(delta)[0]

        _newton_bracket(u, g, rhs, hi_bound, evaluate, f)
        lo, hi = 0.0, min(1.0, hi_bound)
        while f(hi) < 0.0:
            lo, hi = hi, min(2.0 * hi, hi_bound)
        while hi - lo > tol * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if f(mid) >= 0.0:
                hi = mid
            else:
                lo = mid
    return hi


def _newton_bracket(u, g, rhs, hi_bound, evaluate, f) -> None:
    """Narrow first_crossing's bracket to about 2 * CERTIFY * max(1, x).

    Newton on log sum(u exp(g delta)) - log rhs, which is convex and
    increasing, so from above the crossing every iterate stays above it. It
    starts at the Jensen bound log(rhs / sum u) / gbar, gbar = sum(u g) / sum
    u, or at hi_bound if that is smaller. Each evaluation narrows the bracket,
    and two more at x - r and x + r, r = CERTIFY * max(1, x), certify the
    last iterate x. A failed step (a non-finite value, a zero slope, a step
    past zero, the step cap) only leaves the bracket wider.
    """
    ug = u * g
    su, sug = float(u.sum()), float(ug.sum())
    x = hi_bound
    if sug > 0.0 and rhs > su:
        x = min(x, math.log(rhs / su) * su / sug)
    gmax = float(g.max())
    for _ in range(NEWTON_STEPS):
        value, e = evaluate(x)
        slope = float(np.dot(ug, e))
        if not (0.0 < value < np.inf and slope > 0.0):
            break
        step = math.log1p(value / rhs) * (value + rhs) / slope
        x -= step
        # The next iterate lies at most gmax * step**2 / 2 above the crossing.
        if not x > 0.0 or gmax * step * step <= CERTIFY * max(1.0, x):
            break
    width = CERTIFY * max(1.0, x)
    f(x - width)
    f(x + width)


def find_stop(xbar, D, w, c, theta, alpha, obj_now, advice_target,
              capped: bool, tol: float) -> StopEvent:
    """First stop event for one growth iteration over the free support.

    xbar, D, w, c, advice_target are aligned arrays over the free support of
    the active constraint (advice_target is +inf where no advice event is
    armed). theta is the satisfied-by-two threshold for sum(w x), alpha the
    phase budget for the full objective, obj_now its current value, and
    capped arms x_j = 1 events.
    """
    xbar = np.asarray(xbar, dtype=float)
    D = np.asarray(D, dtype=float)
    w = np.asarray(w, dtype=float)
    c = np.asarray(c, dtype=float)
    k = xbar + D
    growing = (w > 0) & (k > 0)
    if not growing.any():
        raise NoProgress("all growth rates vanished on a violated constraint")
    g = np.where(c > 0, w / c, 0.0)
    exp_limit = EXP_GUARD / float(np.max(g[growing]))

    def closed_form(targets):
        armed = growing & np.isfinite(targets) & (xbar < targets)
        if not armed.any():
            return np.inf, None
        deltas = np.full(xbar.shape, np.inf)
        deltas[armed] = (c[armed] / w[armed]) * np.log(
            (targets[armed] + D[armed]) / k[armed])
        deltas = np.maximum(deltas, 0.0)
        jmin = int(np.argmin(deltas))
        return float(deltas[jmin]), jmin

    d_adv, j_adv = closed_form(np.asarray(advice_target, dtype=float))
    if capped:
        d_cap, j_cap = closed_form(np.full(xbar.shape, 1.0))
    else:
        d_cap, j_cap = np.inf, None

    bound = min(d_adv, d_cap, exp_limit)
    # Constraint value: sum(w x(delta)) = theta.
    d_tgt = first_crossing(w * k, g, theta + float(np.dot(w, D)), bound, tol)
    d_tgt = np.inf if d_tgt is None else d_tgt
    # Objective: obj_now + sum(c (x(delta) - xbar)) = alpha. It is selected
    # only if it fires within the tie window of the earliest other event;
    # not crossed there, it changes nothing and is not searched.
    u_obj = c * k
    rhs_o = alpha - obj_now + float(np.dot(c, xbar)) + float(np.dot(c, D))
    b0 = min(d_cap, d_adv, d_tgt)
    with np.errstate(over="ignore", invalid="ignore"):
        skip = np.isfinite(b0) and _excess(
            u_obj, g, rhs_o, min(b0 + _tie(b0, tol), bound))[0] < 0.0
    d_obj = None if skip else first_crossing(u_obj, g, rhs_o, bound, tol)

    candidates = {
        "cap": (d_cap, j_cap),
        "advice": (d_adv, j_adv),
        "objective": (np.inf if d_obj is None else d_obj, None),
        "target": (d_tgt, None),
    }
    best = min(delta for delta, _ in candidates.values())
    if not np.isfinite(best):
        raise ExponentOverflow("no stop event within the exponent guard")
    tie = _tie(best, tol)
    for kind in PRIORITY:
        delta, j = candidates[kind]
        if delta <= best + tie:
            return StopEvent(kind=kind, j=j, delta=float(delta))
    raise AssertionError("unreachable")


def advance(xbar, D, w, c, delta) -> np.ndarray:
    """Move every free coordinate along its growth curve by delta; one that
    does not grow (xbar + D = 0) stays put even where its exponential
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = (xbar + D) * np.exp(w * delta / c) - D
    return np.fmax(out, xbar)
