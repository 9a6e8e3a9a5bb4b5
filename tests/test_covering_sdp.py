"""Hand traces and invariants for the online covering SDP solvers."""
import math

import numpy as np
import pytest

from pdla import covering_lp, covering_sdp, symmetric
from pdla.covering_sdp import (SdpSolverState, beta_seen, current_solution,
                               dual_certificate, feasibility_gap, kappa_seen,
                               new_sdp_solver, process_matrix, run_sdp)
from pdla.errors import (AdviceAboveCap, DimensionMismatch, ExponentOverflow,
                         LengthMismatch, MalformedDocument,
                         NoFeasibleSolution, NonMonotoneB, NonPositiveCost)
from pdla.instances import (AdviceVector, CoveringSdpInstance, SolverParams,
                            make_sdp_instance, validate_advice)
from pdla.symmetric import min_eigpair


def I2(s=1.0):
    return np.eye(2) * s


def _exit_eig(st, B):
    """Least eigenvalue of the residual at the active phase's point, through
    covering_sdp's min_eigpair."""
    resid = np.tensordot(st.phase.x, st.A, axes=1) - B
    return covering_sdp.min_eigpair(resid)[0]


def test_trace_identity_ladder_with_pinned_zero_start():
    # n=1, A=I, B=I, c=1, suggestion 0 pins every phase start at x=0.
    # Each violated direction gives w=1, b=1, D=1, x(d) = e^d - 1.
    # Phase 1 (alpha=1): budget (x=1) at ln 2 before target (x=2) at ln 3.
    # Phase 2 (alpha=2): budget and target coincide at x=2; the budget
    # outranks the target, so restart again. Phase 3 (alpha=4): target x=2
    # fires first and the residual 2I - I is PSD.
    inst = make_sdp_instance(1, 2, [1.0], [I2()], [I2()])
    adv = validate_advice([0.0], 1.0, 1, boxed=False)
    st = new_sdp_solver(inst, advice=adv, params=SolverParams(trace=True))
    rep = process_matrix(st, inst.B_stream[0])
    assert st.alpha_history == [1.0, 2.0, 4.0]
    assert current_solution(st)[0] == pytest.approx(2.0, rel=1e-6)
    assert rep.phases_entered == 2
    assert st.trace[0]["event"] == "objective"
    assert st.trace[0]["delta"] == pytest.approx(math.log(2.0), rel=1e-6)
    assert st.trace[-1]["event"] == "target"
    cert = dual_certificate(st)
    assert cert.scale == pytest.approx(math.log(3.0), rel=1e-6)
    assert feasibility_gap(st, inst.B_stream[0]) >= -1e-9


def test_trace_boxed_restart_lands_exactly_feasible():
    # n=1, A=2I, B=I, boxed, suggestion x'=1. alpha(1) = tr(B)/tr(A) = 1/2,
    # init x = 1/4, D = 1/2 for every lam, so x(d) = 0.75 e^{2d} - 0.5.
    # The budget (x = 1/2) fires at d = ln(4/3)/2; the restart re-inits
    # x = min(1, 1/2) = 1/2 and the residual 2 * (1/2) I - I = 0 is PSD.
    inst = make_sdp_instance(1, 2, [1.0], [I2(2.0)], [I2()], boxed=True)
    adv = validate_advice([1.0], 0.5, 1, boxed=True)
    st = new_sdp_solver(inst, advice=adv)
    rep = process_matrix(st, inst.B_stream[0])
    assert st.alpha_history == [0.5, 1.0]
    assert current_solution(st)[0] == pytest.approx(0.5, rel=1e-9)
    assert rep.phases_entered == 1
    assert rep.iterations == 1
    assert _exit_eig(st, inst.B_stream[0]) >= -1e-9


def test_trace_cap_beats_budget_in_boxed_tie():
    # n=1, A=I, B=I, boxed, no suggestion: init x=1/2, D=1, and the cap
    # x=1 ties with the budget c.x = alpha = 1 at d = ln(4/3). The cap wins,
    # the coordinate freezes at 1, and the round is satisfied: no restart.
    inst = make_sdp_instance(1, 2, [1.0], [I2()], [I2()], boxed=True)
    st = new_sdp_solver(inst)
    rep = process_matrix(st, inst.B_stream[0])
    assert st.alpha_history == [1.0]
    assert rep.tight_added == [0]
    assert current_solution(st)[0] == 1.0


def test_trace_full_trust_adopts_suggestion_coordinatewise():
    # Separable instance: A_j = diag basis, B = I, x' = (1, 1), lam = 0.
    # Each residual direction picks one coordinate; the advice hit at
    # x_j = 1 ties with (or precedes) the budget and wins; two iterations
    # adopt the suggestion exactly with no restart.
    A = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    inst = make_sdp_instance(2, 2, [1.0, 1.0], A, [I2()])
    adv = validate_advice([1.0, 1.0], 0.0, 2, boxed=False)
    st = new_sdp_solver(inst, advice=adv)
    rep = process_matrix(st, inst.B_stream[0])
    assert st.alpha_history == [2.0]
    assert np.allclose(current_solution(st), [1.0, 1.0])
    assert rep.iterations == 2
    assert current_solution(st)[0] == 1.0  # snapped, no bisection fuzz


def test_trace_boxed_infeasible_direction_is_certified():
    # A = 0.4 I cannot cover B = I even at the cap.
    inst = make_sdp_instance(1, 2, [1.0], [I2(0.4)], [I2()], boxed=True)
    st = new_sdp_solver(inst)
    with pytest.raises(NoFeasibleSolution, match="0.4"):
        process_matrix(st, inst.B_stream[0])


def test_target_outside_the_span_raises(monkeypatch):
    # The rank-2 A_j span at most 24 of 40 dimensions, so no x covers the
    # full-rank target. Along a null direction roundoff leaves v'A_j v
    # slightly positive; the solver must not grow on that forever.
    monkeypatch.setattr(covering_lp, "MAX_ITER_ROUND", 1000)
    d, n = 40, 12
    rng = np.random.default_rng(0)
    U = rng.standard_normal((n, d, 2))
    G = rng.standard_normal((d, d))
    inst = make_sdp_instance(n, d, np.ones(n), U @ U.transpose(0, 2, 1),
                             [G @ G.T / d + np.eye(d)])
    st = new_sdp_solver(inst)
    with pytest.raises(NoFeasibleSolution, match="no weight on any coord"):
        process_matrix(st, inst.B_stream[0])
    assert st.iterations < 100


def test_zero_target_defers_the_budget_guess():
    inst = make_sdp_instance(1, 2, [1.0], [I2()],
                             [np.zeros((2, 2)), I2()])
    st = new_sdp_solver(inst)
    rep1 = process_matrix(st, inst.B_stream[0])
    assert rep1.stop_reason == "already_satisfied"
    assert st.alpha_history == []
    process_matrix(st, inst.B_stream[1])
    assert st.alpha_history[0] == pytest.approx(1.0)


def test_non_monotone_stream_rejected():
    inst = make_sdp_instance(1, 2, [1.0], [I2()], [I2()])
    st = new_sdp_solver(inst)
    process_matrix(st, I2())
    with pytest.raises(NonMonotoneB):
        process_matrix(st, I2(0.5))


def test_builder_and_solver_share_one_monotone_test():
    # B_2 - B_1 = diag(1, 1, -5e-7) is within 1e-7 of ||B_2||_F = 18.5 but
    # not of ||B_2 - B_1||_F = 1.41. Both checks measure the decrease
    # against the newer target's norm, so the stream builds and runs.
    eye = np.eye(3)
    B = [np.diag([10.0, 10.0, 10.0]), np.diag([11.0, 11.0, 10.0 - 5e-7])]
    inst = make_sdp_instance(2, 3, [1, 1], [eye, eye], B)
    st, reports = run_sdp(inst)
    assert [r.round_no for r in reports] == [1, 2]
    assert feasibility_gap(st, inst.B_stream[1]) >= -1e-7 * 18.5
    # A decrease past that floor (1.85e-6) is refused by both.
    B[1] = np.diag([11.0, 11.0, 10.0 - 5e-6])
    with pytest.raises(NonMonotoneB):
        make_sdp_instance(2, 3, [1, 1], [eye, eye], B)
    st = new_sdp_solver(inst)
    process_matrix(st, B[0])
    with pytest.raises(NonMonotoneB):
        process_matrix(st, B[1])


def test_feasibility_gap_is_the_least_eigenvalue_before_any_round():
    # At x = 0 the residual is -B = diag(-1, -2), least eigenvalue -2.
    inst = make_sdp_instance(2, 2, [1.0, 1.0],
                             [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                             [np.diag([1.0, 2.0])])
    st = new_sdp_solver(inst)
    assert feasibility_gap(st, inst.B_stream[0]) == pytest.approx(-2.0)


def test_monotone_stream_keeps_all_rounds_feasible():
    rng = np.random.default_rng(31)
    n, d = 3, 3
    A = []
    for _ in range(n):
        g = rng.normal(size=(d, d))
        A.append(g @ g.T / d + np.eye(d) * 0.1)
    c = rng.uniform(0.5, 2.0, size=n)
    B = np.zeros((d, d))
    stream = []
    for _ in range(5):
        g = rng.normal(size=(d, 1))
        B = B + (g @ g.T) * 0.2
        stream.append(B.copy())
    inst = make_sdp_instance(n, d, c, A, stream)
    st, reports = run_sdp(inst)
    for Bi in stream:
        assert feasibility_gap(st, Bi) >= -1e-6 * max(
            1.0, float(np.linalg.norm(Bi)))
    x = current_solution(st)
    assert np.all(x >= 0)
    assert kappa_seen(st) >= 1.0
    assert beta_seen(st) > 0
    # Dual certificate: Y is PSD and scaled duals are feasible.
    cert = dual_certificate(st)
    lam, _ = min_eigpair(cert.Y + 1e-12 * np.eye(d))
    assert lam >= -1e-9
    if cert.scale > 0:
        for j in range(n):
            aj_y = float(np.sum(inst.A[j] * cert.Y))
            assert (aj_y - cert.z[j]) / cert.scale <= c[j] + 1e-7


def test_boxed_solution_respects_caps_on_random_stream():
    rng = np.random.default_rng(37)
    n, d = 4, 2
    A = []
    for _ in range(n):
        g = rng.normal(size=(d, d))
        A.append(g @ g.T + np.eye(d))
    c = rng.uniform(0.5, 1.5, size=n)
    # Keep targets coverable inside the box: sum of all A at x=1 dominates.
    total = np.sum(A, axis=0)
    stream = [total * 0.3, total * 0.55, total * 0.8]
    inst = make_sdp_instance(n, d, c, A, stream, boxed=True)
    st, _ = run_sdp(inst)
    x = current_solution(st)
    assert np.all(x <= 1.0 + 1e-12)
    assert feasibility_gap(st, stream[-1]) >= -1e-6 * float(
        np.linalg.norm(stream[-1]))


def test_overflowing_budget_guess_raises_instead_of_publishing_inf():
    # c tr(B) / tr(A) = 2 / 1e-323 overflows to inf.
    inst = make_sdp_instance(1, 2, [1.0], [I2(5e-324)], [I2()])
    st = new_sdp_solver(inst)
    with np.errstate(over="ignore"), pytest.raises(ExponentOverflow):
        process_matrix(st, inst.B_stream[0])
    assert np.all(np.isfinite(current_solution(st)))


def test_solver_shares_the_instance_stack_and_takes_a_matrix_list():
    rng = np.random.default_rng(47)
    n, d = 3, 3
    A = [g @ g.T for g in rng.normal(size=(n, d, d))]
    c = rng.uniform(0.5, 2.0, size=n)
    g = rng.normal(size=(d, d))
    stream = [g @ g.T * 0.1, g @ g.T * 0.2]
    inst = make_sdp_instance(n, d, c, A, stream)
    assert inst.A.shape == (n, d, d)
    st, _ = run_sdp(inst)
    assert st.A is inst.A
    # A hand-built instance may still hold a list of matrices.
    listed = CoveringSdpInstance(n=n, d=d, c=inst.c, A=list(inst.A),
                                 B_stream=inst.B_stream)
    st_list, _ = run_sdp(listed)
    assert np.array_equal(st_list.A, inst.A)
    assert np.array_equal(current_solution(st_list), current_solution(st))
    assert st_list.iterations == st.iterations > 0


def test_instance_targets_are_read_only_and_not_copied():
    inst = make_sdp_instance(1, 2, [1.0], [I2()], [I2(), I2(2.0)])
    for B in inst.B_stream:
        assert B.flags.owndata and not B.flags.writeable
    with pytest.raises(ValueError):
        inst.B_stream[0][0, 0] = 0.0
    st = new_sdp_solver(inst)
    for B in inst.B_stream:
        process_matrix(st, B)
        assert st.last_B is B


def test_in_place_decrease_of_a_callers_target_raises():
    inst = make_sdp_instance(1, 2, [1.0], [I2()], [I2()])
    st = new_sdp_solver(inst)
    B = I2()
    process_matrix(st, B)
    assert st.last_B is not B
    B *= 0.5
    with pytest.raises(NonMonotoneB):
        process_matrix(st, B)
    # A read-only view of a writeable array is copied as well.
    st = new_sdp_solver(inst)
    base = I2()
    view = base.view()
    view.setflags(write=False)
    process_matrix(st, view)
    base *= 0.5
    with pytest.raises(NonMonotoneB):
        process_matrix(st, view)


def test_first_target_that_is_not_psd_raises():
    # The stream starts from zero, so the first target takes the same
    # monotone check as every later one; a zero-trace target that is not
    # PSD is not covered by x = 0.
    inst = make_sdp_instance(1, 2, [1.0], [I2()], [I2()])
    st = new_sdp_solver(inst)
    B = np.diag([1.0, -2.0])
    assert feasibility_gap(st, B) == pytest.approx(-1.0)
    with pytest.raises(NonMonotoneB):
        process_matrix(st, B)
    assert st.round_no == 0 and st.phase is None


def test_sdp_solver_checks_costs_and_advice_length():
    inst = make_sdp_instance(1, 2, [1.0], [I2()], [I2()])
    with pytest.raises(LengthMismatch):
        new_sdp_solver(inst, advice=AdviceVector(x_prime=np.zeros(2),
                                                 lam=0.5))
    bad = CoveringSdpInstance(n=1, d=2, c=np.array([0.0]), A=inst.A,
                              B_stream=inst.B_stream)
    with pytest.raises(NonPositiveCost):
        new_sdp_solver(bad)


@pytest.mark.parametrize("n, d, A", [
    (2, 2, np.eye(2)[None]),            # one A_j for two coordinates
    (1, 3, np.eye(2)[None]),            # 2x2 A_j in a 3x3 instance
])
def test_sdp_solver_checks_the_shape_of_A(n, d, A):
    bad = CoveringSdpInstance(n=n, d=d, c=np.ones(n), A=A,
                              B_stream=[np.eye(d)])
    with pytest.raises(DimensionMismatch, match="expected"):
        new_sdp_solver(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_target_is_bad_input(bad):
    # make_sdp_instance rejects the same target as MalformedDocument; the
    # streaming entry point must not report it as a numeric failure.
    st = new_sdp_solver(make_sdp_instance(1, 2, [1.0], [I2()], [I2()]))
    B = I2()
    B[0, 1] = B[1, 0] = bad
    with pytest.raises(MalformedDocument, match="finite"):
        process_matrix(st, B)
    assert st.round_no == 0


@pytest.mark.parametrize("target, error", [
    (np.ones(3), DimensionMismatch),    # would broadcast against the residual
    (np.ones((2, 2)), DimensionMismatch),
    (np.full((3, 3), np.nan), MalformedDocument),
    # Its norm overflows, so its floor would count any residual as PSD.
    (np.diag([1e200, -1e200, 1.0]), MalformedDocument),
])
@pytest.mark.parametrize("entry", [feasibility_gap, process_matrix])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_entry_checks_the_target_alike(entry, target, error):
    A = [np.diag([1.0, 2.0, 3.0]), np.eye(3)]
    st = new_sdp_solver(make_sdp_instance(2, 3, [1.0, 1.0], A, [np.eye(3)]))
    with pytest.raises(error):
        entry(st, target)


@pytest.mark.parametrize("slot", ["A[0]", "B[0]"])
@pytest.mark.parametrize("bad", [np.full((3, 3), np.nan),
                                 np.diag([1e200, -1e200, 1.0])],
                         ids=["nan", "norm-overflows"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_make_sdp_instance_checks_a_bad_matrix_as_the_solver_does(slot, bad):
    # make_sdp_instance is one more entry of the check above: the same
    # class and the same message after the matrix's name. Shapes differ on
    # purpose, since an instance also takes a flat list of d x d entries.
    A = [np.diag([1.0, 2.0, 3.0]), np.eye(3)]
    st = new_sdp_solver(make_sdp_instance(2, 3, [1.0, 1.0], A, [np.eye(3)]))
    with pytest.raises(MalformedDocument) as solver:
        process_matrix(st, bad)
    args = ([bad, A[1]], [np.eye(3)]) if slot == "A[0]" else (A, [bad])
    with pytest.raises(MalformedDocument) as built:
        make_sdp_instance(2, 3, [1.0, 1.0], *args)
    assert type(built.value) is type(solver.value)
    assert str(built.value).removeprefix(slot) == \
        str(solver.value).removeprefix("target")


@pytest.mark.parametrize("kind", ["lp", "lp_box", "sdp", "sdp_box"])
def test_initial_alpha_opens_phase_one_in_every_variant(kind):
    # n = 1, c = 1 and a unit constraint: the estimate would be 1. The
    # override 3 starts x at 3/2 (1 when boxed), which already covers it.
    params = SolverParams(initial_alpha=3.0)
    boxed = kind.endswith("_box")
    if kind.startswith("lp"):
        st = covering_lp.new_lp_solver(1, [1.0], params=params, boxed=boxed)
        rep = covering_lp.process_row(st, [(0, 1.0)])
    else:
        inst = make_sdp_instance(1, 2, [1.0], [I2()], [I2()], boxed=boxed)
        st = new_sdp_solver(inst, params=params)
        rep = process_matrix(st, inst.B_stream[0])
    assert st.alpha_history == [3.0]
    assert st.phase.index == 1 and st.phase.alpha == 3.0
    assert rep.iterations == 0 and rep.stop_reason == "already_satisfied"
    assert current_solution(st)[0] == (1.0 if boxed else 1.5)


def test_only_a_violated_round_asks_whether_the_suggestion_covers(
        monkeypatch):
    # Every round checks that the stream grows (one is_psd call). Only a
    # round that grows asks whether the suggestion covers the target; the
    # repeated target holds on arrival and asks nothing more.
    calls = []
    real = covering_sdp.is_psd
    monkeypatch.setattr(covering_sdp, "is_psd",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    inst = make_sdp_instance(2, 2, [1.0, 1.0], [np.diag([1.0, 0.0]),
                                                np.diag([0.0, 1.0])],
                             [I2(), I2()])
    st = new_sdp_solver(inst, advice=validate_advice([1.0, 1.0], 0.5, 2,
                                                     boxed=False))
    counts = []
    for B in inst.B_stream:
        calls.clear()
        rep = process_matrix(st, B)
        counts.append((rep.stop_reason, len(calls)))
    assert counts == [("satisfied", 2), ("already_satisfied", 1)]


def _eigh_min_eigpair(m):
    """min_eigpair through scipy's eigh: the same diagonal path and sign
    rule, with the one pair from eigh(subset_by_index=[0, 0], driver="evr")."""
    from scipy.linalg import eigh
    a = np.asarray(m, dtype=float)
    diag = np.diag(a)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        return min_eigpair(a)
    vals, vecs = eigh(0.5 * (a + a.T), subset_by_index=[0, 0], driver="evr",
                      overwrite_a=True, check_finite=False)
    vec = vecs[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return float(vals[0]), vec


def _stream_shaped_instances():
    """Ten instances with n = d = 24, A_j = U U' with U Gaussian d x 2, 20
    targets growing by G G' / 60 with G Gaussian d x 3, costs uniform in
    [0.1, 1]."""
    n = d = 24
    targets = 20
    cases = []
    for k in range(10):
        rng = np.random.default_rng([1, k])
        A = [u @ u.T for u in rng.standard_normal((n, d, 2))]
        c = rng.uniform(0.1, 1.0, n)
        B, cur = [], np.zeros((d, d))
        for _ in range(targets):
            g = rng.standard_normal((d, 3))
            cur = cur + g @ g.T / (3 * targets)
            B.append(cur)
        cases.append(make_sdp_instance(n, d, c, A, B))
    return cases


def _tensordot_holds(self, x):
    """_EigenSeparation.holds with the residual summed by tensordot."""
    resid = np.tensordot(x, self.state.A, axes=1) - self.B
    self.lam, self.v = covering_sdp.min_eigpair(resid)
    return self.lam >= self.floor


def test_runs_equal_the_eigh_based_separation_bit_for_bit(monkeypatch):
    # The direct LAPACK call, the Cholesky proof before the eigenpair and
    # the residual's matvec change no bit of a run against eigh on every
    # test and tensordot: published point, counts, phases and each round's
    # exit eigenvalue.
    def summary(inst):
        st = new_sdp_solver(inst)
        rounds = []
        for B in inst.B_stream:
            r = process_matrix(st, B)
            rounds.append((r.iterations, r.phases_entered, _exit_eig(st, B)))
        return st.x_best.tobytes(), st.iterations, st.alpha_history, rounds

    cases = _stream_shaped_instances()
    shipped = [summary(inst) for inst in cases]
    monkeypatch.setattr(covering_sdp, "min_eigpair", _eigh_min_eigpair)
    monkeypatch.setattr(covering_sdp._EigenSeparation, "holds",
                        _tensordot_holds)
    assert [summary(inst) for inst in cases] == shipped
    assert sum(s[1] for s in shipped) > 0


def _count_lapack(monkeypatch):
    """Count every dpotrf and dsyevr call through symmetric's drivers."""
    counts = {"dpotrf": 0, "dsyevr": 0}
    lapack = symmetric._lapack()
    for name in counts:
        def counted(*args, _real=getattr(lapack, name), _name=name,
                    **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(lapack, name, counted)
    return counts


def test_only_a_failing_separation_test_computes_an_eigenpair(monkeypatch):
    # Each separation test costs one Cholesky proof; a test that fails
    # adds one dsyevr eigenpair, and a round that holds on arrival makes
    # no dsyevr call at all, its monotone check included.
    counts = _count_lapack(monkeypatch)
    tests = []
    real_holds = covering_sdp._EigenSeparation.holds

    def holds(self, x):
        before = dict(counts)
        held = real_holds(self, x)
        tests.append((held, counts["dpotrf"] - before["dpotrf"],
                      counts["dsyevr"] - before["dsyevr"]))
        return held

    monkeypatch.setattr(covering_sdp._EigenSeparation, "holds", holds)
    inst = _stream_shaped_instances()[0]
    st = new_sdp_solver(inst)
    on_arrival = []
    for B in inst.B_stream:
        before = counts["dsyevr"]
        rep = process_matrix(st, B)
        if rep.stop_reason == "already_satisfied":
            on_arrival.append(counts["dsyevr"] - before)
    assert on_arrival and on_arrival == [0] * len(on_arrival)
    assert [(p, e) for held, p, e in tests if held] == \
        [(1, 0)] * sum(held for held, _, _ in tests)
    failed = [(p, e) for held, p, e in tests if not held]
    assert failed and failed == [(1, 1)] * len(failed)


def test_feasibility_gap_computes_one_eigenpair(monkeypatch):
    inst = _stream_shaped_instances()[0]
    st, _ = run_sdp(inst)
    counts = _count_lapack(monkeypatch)
    gap = feasibility_gap(st, inst.B_stream[-1])
    assert counts == {"dpotrf": 0, "dsyevr": 1}
    assert gap >= st.params.tol_psd * -max(
        1.0, float(np.linalg.norm(inst.B_stream[-1])))


def _scaled_target_run(scale):
    """Cost over scale, iterations and phases of one run on six rank-2 A_j
    and six monotone rank-2 increments, every target times scale."""
    rng = np.random.default_rng(5)
    A = [u @ u.T for u in (rng.standard_normal((6, 2)) for _ in range(6))]
    B, cur = [], np.zeros((6, 6))
    for _ in range(6):
        g = rng.standard_normal((6, 2))
        cur = cur + g @ g.T
        B.append(scale * cur)
    inst = make_sdp_instance(6, 6, rng.uniform(0.5, 1.5, 6), A, B)
    st = new_sdp_solver(inst)
    for target in inst.B_stream:
        process_matrix(st, target)
    return (float(inst.c @ current_solution(st)) / scale, st.iterations,
            len(st.alpha_history))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 11: the PSD floors are absolute below "
                          "norm 1, so with every target scaled by 1e-8 the "
                          "published point misses the last one by 0.253 of "
                          "its norm")
def test_scaling_every_target_scales_the_cost_and_keeps_the_counts():
    cost, iterations, phases = _scaled_target_run(1.0)
    small = _scaled_target_run(1e-8)
    assert small[0] == pytest.approx(cost, rel=1e-6)
    assert small[1:] == (iterations, phases)


def _snapshot(st):
    """What a round that raises must leave as it was at round entry."""
    cert = dual_certificate(st)
    return (current_solution(st).tolist(), list(st.alpha_history),
            st.round_no, st.violations_seen, st.iterations, cert.y,
            cert.z.tolist(), cert.scale, cert.objective, cert.Y.tolist(),
            st.last_B.tolist())


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 20: a round that raises keeps its "
                          "count and its target as last_B, so a later target "
                          "below the rejected one raises NonMonotoneB")
def test_a_round_that_raises_leaves_the_state_as_it_was():
    # Contract (a) keeps the certificate a bound on the accepted targets.
    inst = make_sdp_instance(1, 2, [1.0], [np.diag([1.0, 0.0])],
                             [np.diag([1.0, 0.0])])
    st = new_sdp_solver(inst)
    process_matrix(st, inst.B_stream[0])
    before = _snapshot(st)
    with pytest.raises(NoFeasibleSolution):
        process_matrix(st, I2())   # no A_j weighs the second axis
    assert _snapshot(st) == before
    process_matrix(st, np.diag([2.0, 0.0]))
    assert feasibility_gap(st, np.diag([2.0, 0.0])) >= -1e-6


def test_the_suggestion_test_uses_the_floor_of_the_target(monkeypatch):
    # x' = (1e6, 1 - 1e-5) misses B = I by 1e-5 along e_2. The floor is
    # tol_psd * max(1, ||B||_F) for x and for x' alike; one relative to
    # the residual's own norm (about 1e6) would count x' as covering B and
    # arm suggestion-proportional sharing on a suggestion that misses it.
    inst = make_sdp_instance(2, 2, [1.0, 1.0], [np.diag([1.0, 0.0]),
                                                np.diag([0.0, 1.0])], [I2()])
    adv = AdviceVector([1e6, 1.0 - 1e-5], 0.5)
    st = new_sdp_solver(inst, advice=adv)
    B = inst.B_stream[0]
    sep = covering_sdp._EigenSeparation(st, B, float(np.linalg.norm(B)))
    assert not sep.holds(adv.x_prime)
    assert not sep.advice_holds(adv)
    armed = []
    real = covering_lp.coefficient_vector
    monkeypatch.setattr(covering_lp, "coefficient_vector",
                        lambda *a: armed.append(a[4]) or real(*a))
    assert process_matrix(st, B).stop_reason == "satisfied"
    assert armed and not any(armed)


def test_a_boxed_sdp_solver_refuses_advice_above_the_cap():
    inst = make_sdp_instance(2, 1, [1.0, 1.0], [[1.0], [1.0]], [[1.0]],
                             boxed=True)
    with pytest.raises(AdviceAboveCap):
        new_sdp_solver(inst, advice=AdviceVector([5.0, 0.0], 0.1))
    new_sdp_solver(inst, advice=AdviceVector([1.0, 0.0], 0.1))


@pytest.mark.parametrize("d", [True, 0, 1.0])
def test_an_sdp_solver_state_checks_d_as_a_count(d):
    with pytest.raises(MalformedDocument, match="d must be a positive"):
        SdpSolverState(n=1, d=d, c=[1.0], A=np.ones((1, 1, 1)), boxed=False,
                       advice=None)
