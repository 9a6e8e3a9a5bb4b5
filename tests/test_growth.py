"""The stop-event search against an ulp-level bisection reference.

`first_crossing` runs Newton's method from above and stops at a relative
tol; it must return a point at or past the crossing the reference finds, by
at most a relative tol, and inf exactly when that crossing lies past the
upper end or the exponent guard. `find_stop` must pick the event the
reference crossings pick, except where a crossing lies so close to the edge
of the 8 tol tie window that a relative tol, or roundoff, decides it.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pdla import growth
from pdla.errors import ExponentOverflow, NoProgress, PdlaError
from pdla.growth import EXP_GUARD, PRIORITY, StopEvent

REF_TOL = 4e-16                  # relative width where the reference stops
ULPS = 16 * np.finfo(float).eps  # relative roundoff of a sum of exps


def reference_first_crossing(u, g, rhs, hi_bound):
    """Least delta in [0, min(hi_bound, EXP_GUARD / max g)] with
    sum(u exp(g delta)) >= rhs, by plain bisection to a relative REF_TOL
    with every point evaluated, or inf when there is none; max g runs over
    the terms with u > 0, and the others count as zero."""
    live = u > 0
    u, g = u[live], g[live]

    def f(delta):
        with np.errstate(over="ignore"):
            return float(np.dot(u, np.exp(g * delta))) - rhs

    if f(0.0) >= 0.0:
        return 0.0
    if not g.size or g.max() <= 0:
        return np.inf
    lo, hi = 0.0, min(hi_bound, EXP_GUARD / float(g.max()))
    if not f(hi) >= 0.0:        # also when rhs is NaN: nothing reaches it
        return np.inf
    while hi - lo > REF_TOL * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def reference_band(u, g, rhs, hi_bound):
    """The reference crossings for rhs moved down and up by a relative
    ULPS. Roundoff in the sum leaves the crossing undetermined between
    them, so a search may return any point from the first to a relative tol
    past the second. A positive rhs is divided out first, as first_crossing
    does, so that tiny (even subnormal) u and rhs are compared, and rhs
    moved, at full precision."""
    if rhs > 0:
        with np.errstate(over="ignore"):  # u / rhs = inf: crossed at 0
            u, rhs = u / rhs, 1.0
    return (reference_first_crossing(u, g, rhs * (1.0 - ULPS), hi_bound),
            reference_first_crossing(u, g, rhs * (1.0 + ULPS), hi_bound))


def assert_within(got, band, tol):
    lo, hi = band
    assert lo * (1.0 - ULPS) <= got <= hi * (1.0 + tol + ULPS)


def reference_find_stop(xbar, D, w, c, theta, alpha, obj_now, advice_target,
                        capped, tol):
    """find_stop on reference crossings, each searched up to the earliest
    closed-form event. Returns the event, the band its delta must lie in,
    and whether some candidate's band comes within 2 tol of the edge of
    the 8 tol tie window, where the search's tolerance decides the pick."""
    xbar, D, w, c = (np.asarray(a, dtype=float) for a in (xbar, D, w, c))
    k = xbar + D
    growing = (w > 0) & (k > 0)
    if not growing.any():
        raise NoProgress("all growth rates vanished")
    g = np.where(c > 0, w / c, 0.0)

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
    bound = min(d_adv, d_cap)
    rhs_o = alpha - obj_now + float(np.dot(c, xbar)) + float(np.dot(c, D))
    bands = {
        "cap": (d_cap, d_cap),
        "advice": (d_adv, d_adv),
        "objective": reference_band(c * k, g, rhs_o, bound),
        "target": reference_band(w * k, g, theta + float(np.dot(w, D)), bound),
    }
    best_lo = min(lo for lo, _ in bands.values())
    best_hi = min(hi for _, hi in bands.values())
    if best_lo == np.inf:
        raise ExponentOverflow("no stop event within the exponent guard")
    near = (best_lo * (1.0 + 6.0 * tol), best_hi * (1.0 + 10.0 * tol))
    if any(lo <= near[1] and hi >= near[0] for lo, hi in bands.values()):
        return None, None, True
    j = {"cap": j_cap, "advice": j_adv, "objective": None, "target": None}
    for kind in PRIORITY:
        if bands[kind][1] < near[0]:
            return (StopEvent(kind=kind, j=j[kind], delta=bands[kind][1]),
                    bands[kind], False)
    raise AssertionError("unreachable")


# Rates spread over 1e-6 to 1e6, weights over 1e-3 to 1e3, both with zeros.
_RATES = st.one_of(st.just(0.0), st.floats(-6, 6).map(lambda e: 10.0 ** e))
_WEIGHTS = st.one_of(st.just(0.0), st.floats(-3, 3).map(lambda e: 10.0 ** e))


@st.composite
def crossings(draw):
    n = draw(st.integers(1, 8))
    u = np.array(draw(st.lists(_WEIGHTS, min_size=n, max_size=n)))
    g = np.array(draw(st.lists(_RATES, min_size=n, max_size=n)))
    total = float(np.dot(u, np.ones(n)))
    scale = total if total > 0 else 1.0
    rhs = scale * draw(st.one_of(
        st.just(1.0),                                         # at sum(u)
        st.floats(0.0, 1.0),                                  # crossing at 0
        st.floats(-12, 1).map(lambda e: 1.0 + 10.0 ** e),     # just above
        st.floats(1, 300).map(lambda e: 10.0 ** e)))          # far above
    live = g[u > 0]
    gmax = float(live.max()) if live.size and live.max() > 0 else 1.0
    hi_bound = draw(st.one_of(
        st.just(np.inf),
        st.just(EXP_GUARD / gmax),          # exp of zero-weight terms may overflow
        st.just(EXP_GUARD / float(max(g.max(), 1e-300))),
        st.floats(1.0, 1.2).map(lambda s: s * 709.8 / gmax),  # past the guard
        st.floats(1e-9, 1e3)))              # often before the crossing
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-12]))
    return u, g, rhs, hi_bound, tol


@pytest.mark.filterwarnings("ignore:invalid value encountered in dot")
@settings(max_examples=400, deadline=None)
@given(crossings())
# Zero weight on a fast rate: its exponential overflows to inf past
# delta = 70.98, where 0 * inf would be NaN; the term counts as zero, and the
# crossing lies past that point (at 100), and just before it (at 70).
@example((np.array([1.0, 0.0]), np.array([1.0, 10.0]), math.exp(100.0), 700.0,
          1e-9))
@example((np.array([1.0, 0.0]), np.array([1.0, 10.0]), math.exp(70.0), 700.0,
          1e-9))
@example((np.array([2.0, 3.0]), np.array([0.0, 0.0]), 5.0, np.inf, 1e-9))
@example((np.array([1e-3, 1e3]), np.array([1e6, 1e-6]), 1e300, 7e-4, 1e-9))
def test_first_crossing_matches_plain_bisection(args):
    u, g, rhs, hi_bound, tol = args
    assert_within(growth.first_crossing(*args),
                  reference_band(u, g, rhs, hi_bound), tol)


def _at(k, D, g, delta):
    with np.errstate(over="ignore", invalid="ignore"):
        return k * np.exp(g * delta) - D


# Offsets of an event from the chosen time, in units of tol: coincident,
# inside and at the edge of find_stop's 8 tol tie window, and well apart.
_OFFSETS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 4.0, -4.0, 7.9, 8.0,
                                      8.1, -8.0, 30.0, -30.0, 1e6]),
                     st.floats(-20.0, 20.0))


@st.composite
def stops(draw):
    n = draw(st.integers(1, 6))
    arrays = st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)
    c = np.array(draw(arrays))
    w = np.array(draw(st.lists(_WEIGHTS, min_size=n, max_size=n)))
    xbar = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
                                  min_size=n, max_size=n)))
    D = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
                               min_size=n, max_size=n)))
    capped = draw(st.booleans())
    tol = draw(st.sampled_from([1e-9, 1e-6]))
    k, g = xbar + D, w / c
    growing = (w > 0) & (k > 0)
    # Events cluster around t0: the first cap when armed, else a free time.
    t0 = draw(st.floats(1e-4, 20.0))
    if capped and (growing & (xbar < 1)).any():
        m = growing & (xbar < 1)
        t0 = float(np.min((c[m] / w[m]) * np.log((1.0 + D[m]) / k[m])))

    def when():
        return t0 * (1.0 + draw(_OFFSETS) * tol)

    advice = np.full(n, np.inf)
    for j in range(n):
        if draw(st.booleans()):
            advice[j] = _at(k[j], D[j], g[j], when())
    theta = float(np.dot(w, _at(k, D, g, when())))
    obj_now = draw(st.floats(0.0, 10.0))
    alpha = obj_now + float(np.dot(c, _at(k, D, g, when()) - xbar))
    return xbar, D, w, c, theta, alpha, obj_now, advice, capped, tol


@pytest.mark.filterwarnings("ignore:invalid value encountered in dot")
@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
@settings(max_examples=400, deadline=None)
@given(stops())
@example((np.array([0.0]), np.array([0.0]), np.array([1.0]), np.array([1.0]),
          1.0, 1.0, 0.0, np.array([np.inf]), False, 1e-9))
# Subnormal xbar, theta and alpha: the reference once evaluated its sums on
# the subnormal grid and placed the objective crossing 1.4e-9 too early.
@example((np.array([2.225e-313, 0.0]), np.array([0.0, 0.0]),
          np.array([1.0, 0.0]), np.array([1.0, 1.0]), 2.2425e-313, 1.745e-315,
          0.0, np.array([np.inf, np.inf]), False, 1e-9))
def test_find_stop_matches_the_reference(args):
    try:
        want, band, near_edge = reference_find_stop(*args)
    except PdlaError as exc:
        with pytest.raises(type(exc)):
            growth.find_stop(*args)
        return
    assume(not near_edge)
    got = growth.find_stop(*args)
    assert (got.kind, got.j) == (want.kind, want.j)
    if got.kind in ("cap", "advice"):
        assert got.delta == want.delta
    else:
        assert_within(got.delta, band, args[-1])


def test_first_crossing_evaluates_a_handful_of_points(monkeypatch):
    calls = []
    real_exp = np.exp

    def counted(x, *a, **kw):
        calls.append(1)
        return real_exp(x, *a, **kw)

    u = np.linspace(0.5, 2.0, 40)
    g = np.linspace(0.1, 3.0, 40)
    args = (u, g, 50.0 * u.sum(), EXP_GUARD / g.max(), 1e-9)
    want = reference_band(*args[:4])
    monkeypatch.setattr(growth.np, "exp", counted)
    assert_within(growth.first_crossing(*args), want, 1e-9)
    # Bisection to a relative 1e-9 evaluates 34 points here; Newton, 3.
    assert len(calls) <= 4


def test_first_crossing_within_roundoff_of_zero_stays_at_or_past_zero():
    # sum(u) is within an ulp of rhs, so the log of the normalised sum is
    # pure roundoff and a Newton step from above can overshoot below zero;
    # the iterate is clamped there.
    assert growth.first_crossing(
        np.array([2.4410212496099132e-06, 3.2052975648879369e+03,
                  3.8781542005140187e+02, 2.9329274514143874e-12]),
        np.array([1.6541693565295468e+01, 3.8454412289168270e-07,
                  2.5752638772162978e-03, 2.5820113502915160e+02]),
        3593.112987380363, 0.027670980954302767, 1e-9) >= 0.0


def test_zero_weight_overflow_does_not_hide_the_crossing():
    # The zero-weight term's exponential overflows past delta = 70.98; read
    # as NaN it pushed the crossing at 70 out to 128.
    u, g = np.array([1.0, 0.0]), np.array([1.0, 10.0])
    assert growth.first_crossing(u, g, math.exp(70.0), 700.0, 1e-9) == \
        pytest.approx(70.0, abs=1e-9 * 70.0)


def test_zero_weight_overflow_does_not_fire_the_objective():
    # Same curve as a growth step: the row value reaches its target at 70;
    # the objective's budget lies far beyond. A NaN read as crossed fired
    # the objective at 128 instead.
    ev = growth.find_stop(
        xbar=[0.0, 0.0], D=[1.0, 0.0], w=[1.0, 10.0], c=[1.0, 1.0],
        theta=math.exp(70.0) - 1.0, alpha=1e300, obj_now=0.0,
        advice_target=np.array([np.inf, np.inf]), capped=False, tol=1e-9)
    assert ev.kind == "target"
    assert ev.delta == pytest.approx(70.0, abs=1e-9 * 70.0)


def test_coefficient_vector_shares_the_capacity():
    w = np.array([0.5, 1.0, 0.25, 2.0])
    adv = np.array([0.6, 0.0, 0.3, 0.9])
    below = np.array([True, True, False, True])
    capacity, lam = 0.8, 0.25
    # Infeasible advice: uniform at capacity / sum(w), whatever lam is.
    D = growth.coefficient_vector(w, adv, below, lam, False, capacity)
    assert np.array_equal(D, np.full(4, capacity / w.sum()))
    # Feasible advice: lam shared uniformly, 1 - lam in proportion to the
    # advice entries still above the point; together they fill the capacity.
    D = growth.coefficient_vector(w, adv, below, lam, True, capacity)
    above = adv * below
    want = capacity * (lam / w.sum() + (1.0 - lam) * above / (w @ above))
    assert np.allclose(D, want, rtol=1e-14, atol=0.0)
    assert D[2] == D[1] == pytest.approx(capacity * lam / w.sum())
    assert w @ D == pytest.approx(capacity)
    # No advice entry above the point: only the uniform lam share.
    D = growth.coefficient_vector(w, adv, np.zeros(4, dtype=bool), lam, True,
                                  capacity)
    assert np.allclose(D, capacity * lam / w.sum(), rtol=1e-14, atol=0.0)
