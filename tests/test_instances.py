"""Validation and JSON round-trips for instances, advice, and parameters."""
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdla
from pdla import covering_lp_box, instances, symmetric
from pdla.covering_lp import dual_certificate, new_lp_solver, process_row
from pdla.errors import (AdviceAboveCap, AsymmetricMatrix, EmptyRow,
                         LambdaOutOfRange, LengthMismatch, MalformedDocument,
                         NegativeAdvice, NegativeEntry, NonMonotoneB,
                         NonPositiveCost, NotPsd, PdlaError)
from pdla.instances import (AdviceVector, Row, SolverParams,
                            make_lp_instance, make_sdp_instance,
                            normalize_box_bounds, parse_advice,
                            parse_lp_instance, parse_sdp_instance, row_arrays,
                            serialize_advice, serialize_lp_instance,
                            serialize_sdp_instance, validate_advice,
                            validate_row)


def test_validate_row_catches_bad_input():
    with pytest.raises(EmptyRow):
        validate_row([], 3)
    with pytest.raises(EmptyRow):
        validate_row([(0, 0.0), (1, 0.0)], 3)
    with pytest.raises(NegativeEntry):
        validate_row([(0, -0.1)], 3)
    with pytest.raises(MalformedDocument):
        validate_row([(3, 1.0)], 3)  # column out of range
    with pytest.raises(MalformedDocument):
        validate_row([(0, 1.0), (0, 2.0)], 3)  # duplicate column
    with pytest.raises(MalformedDocument):
        validate_row([(0, float("nan"))], 3)
    row = validate_row([(1, 2.0), (0, 0.5)], 3)
    assert row == [(1, 2.0), (0, 0.5)]


@pytest.mark.parametrize("row", [
    [(1.5, 1.0)],
    [(0, 1.0), (0.5, 1.0)],     # not a "duplicate column 0"
    [(np.float64(2.25), 1.0)],
    [(True, 1.0)],
    [(0, 1.0), (np.True_, 2.0)],
])
def test_validate_row_rejects_non_integral_and_boolean_columns(row):
    for check in (validate_row, row_arrays):
        with pytest.raises(MalformedDocument, match=re.escape(repr(row[-1]))):
            check(row, 3)
    assert validate_row([(2.0, 1.0), (np.int64(1), 0.5)], 3) == \
        [(2, 1.0), (1, 0.5)]


def _outcome(check, row, n):
    """What a row check gives: ("ok", pairs) or the raised type and message."""
    try:
        out = check(row, n)
    except Exception as exc:  # any error: its type and message are compared
        return type(exc), str(exc)
    if isinstance(out, tuple):
        idx, vals = out
        assert idx.dtype == np.int64 and vals.dtype == np.float64
        out = list(zip(idx.tolist(), vals.tolist()))
    return "ok", out


# Rows drawn from anything a caller might pass: ints and floats, numpy
# scalars, numeric strings, nan/inf, negatives, zeros, bools, huge ints,
# ragged entries and non-pairs. Duplicate and out-of-range columns come from
# the small column range. Plain (int, float) rows are mostly accepted;
# near-valid rows hold each column once, in one of the forms a caller might
# use for it.
_COLUMNS = st.one_of(
    st.integers(-2, 7), st.floats(-2, 7), st.booleans(),
    st.integers(-2**70, 2**70),
    st.sampled_from([float("nan"), float("inf"), -0.0, 1e300]))
_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, "nan", "-2", 10**400]))
_ENTRIES = st.one_of(
    st.tuples(_COLUMNS, _VALUES), st.lists(_VALUES, max_size=3),
    st.sampled_from([None, "12", ()]))
_PLAIN_ROWS = st.lists(st.tuples(st.integers(0, 5), st.floats(0, 10)),
                       min_size=1, max_size=4)


def _column_forms(j):
    return st.sampled_from([j, float(j), np.int64(j), str(j), f"{j}.0",
                            f" {j}", j + 0.5, j == 1])


_LEGAL_VALUES = st.one_of(
    st.floats(0, 10), st.integers(0, 3), st.sampled_from(["0.5", "1"]),
    st.booleans(), st.floats(0, 5).map(np.float32))
_NEAR_VALID_ROWS = st.lists(st.integers(0, 5), min_size=1, unique=True) \
    .flatmap(lambda cols: st.tuples(*[st.tuples(_column_forms(j), _LEGAL_VALUES)
                                      for j in cols])).map(list)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_PLAIN_ROWS, _NEAR_VALID_ROWS,
                 st.lists(_ENTRIES, max_size=6)),
       st.integers(1, 6))
@example([(0, 1.0), (True, 1.0)], 3)
@example([(0, 1.0), (1.5, 1.0)], 3)
@example([(0, 1.0), ("2.0", 1.0)], 3)
@example([(0, 1.0), (2, 1.0), (0, 1.0)], 3)
def test_row_checks_agree_with_per_entry_loop(row, n):
    want = _outcome(instances._checked_entries, row, n)
    assert _outcome(row_arrays, row, n) == want
    assert _outcome(validate_row, row, n) == want


_LONG = [(j, 0.25 * j + 0.5) for j in range(40)]


@pytest.mark.parametrize("row", [
    _LONG,
    [(np.float32(j), np.float32(v)) for j, v in _LONG],
    [(np.int32(j), np.int32(j + 1)) for j, _ in _LONG],
    np.array(_LONG),
    [(float(j), v) for j, v in _LONG],
    _LONG[::-1],
    _LONG[7::3] + _LONG[::3] + _LONG[2::3],
], ids=["plain", "float32", "int32", "ndarray", "float-columns",
        "reversed", "shuffled"])
def test_long_rows_give_the_per_entry_arrays(row):
    idx, vals = row_arrays(row, 40)
    want_idx = np.array([int(j) for j, _ in row], dtype=np.int64)
    want_vals = np.array([float(v) for _, v in row], dtype=np.float64)
    for got, want in ((idx, want_idx), (vals, want_vals)):
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad, error, message", [
    ((True, 1.0), MalformedDocument,
     "boolean column index in row entry (True, 1.0)"),
    ((2.5, 1.0), MalformedDocument,
     "non-integral column index in row entry (2.5, 1.0)"),
    ((40, 1.0), MalformedDocument, "column 40 out of range for n=40"),
    ((3, 1.0), MalformedDocument, "duplicate column 3 in row"),
    ((39, np.nan), MalformedDocument, "row entries must be finite"),
    ((39, -1.0), NegativeEntry, "negative coefficient -1.0 at column 39"),
], ids=["boolean-column", "non-integral-column", "out-of-range",
        "duplicate", "non-finite", "negative"])
def test_long_rows_name_their_first_bad_entry(bad, error, message):
    with pytest.raises(error) as exc:
        row_arrays(_LONG[:-1] + [bad], 40)
    assert str(exc.value) == message


def _typed(pairs):
    return [(j, v, type(j), type(v)) for j, v in pairs]


def _run(row, n):
    """A solver's answer to one row: its report, x and certificate, or the
    raised type and message."""
    state = new_lp_solver(n, np.linspace(1.0, 2.0, n))
    try:
        with np.errstate(divide="ignore", over="ignore"):  # zero entries
            report = process_row(state, row)
    except PdlaError as exc:
        return type(exc), str(exc)
    cert = dual_certificate(state)
    return (report, state.x_best.tolist(), cert.y, cert.z.tolist(),
            cert.scale, cert.objective)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_PLAIN_ROWS, _NEAR_VALID_ROWS), st.integers(1, 6))
def test_instance_rows_are_rows_checked_once(row, n):
    want = _outcome(validate_row, row, n)
    built = _outcome(lambda r, n: make_lp_instance(n, np.ones(n), [r]),
                     row, n)
    if want[0] != "ok":
        assert built == want
        return
    want, got = want[1], built[1].rows[0]
    assert type(got) is Row
    assert _typed(got) == _typed(want)
    assert got == want and want == got and len(got) == len(want)
    assert _typed([got[0], got[-1]]) == _typed([want[0], want[-1]])
    assert _typed(got[1:]) == _typed(want[1:])
    idx, vals = row_arrays(got, n)
    assert idx is got.idx and vals is got.vals
    assert row_arrays(got, n + 1)[0] is got.idx
    assert not idx.flags.writeable and not vals.flags.writeable
    assert idx.flags.owndata and vals.flags.owndata
    assert idx.dtype == np.int64 and vals.dtype == np.float64
    assert _run(got, n) == _run(row, n)


def test_row_at_a_smaller_n_is_checked_again():
    long_row = [(j, 0.5) for j in range(20)]
    short_row = [(4, 1.0), (0, 2.0)]
    inst = make_lp_instance(25, np.ones(25), [long_row, short_row, [(1, 1.0)]])
    for row, n in ((inst.rows[0], 19), (inst.rows[1], 3)):
        want = _outcome(validate_row, list(row), n)
        assert want[0] is MalformedDocument and "out of range" in want[1]
        assert _outcome(row_arrays, row, n) == want
        with pytest.raises(MalformedDocument, match=re.escape(want[1])):
            process_row(new_lp_solver(n, np.ones(n)), row)
    # Columns that fit the smaller n pass the full check, as a list would.
    idx, vals = row_arrays(inst.rows[2], 2)
    assert idx is not inst.rows[2].idx and idx.tolist() == [1]
    assert inst.rows[2] != inst.rows[1] and inst.rows[2] == Row(idx, vals, 2)


def test_instance_keeps_rows_checked_at_its_n():
    # A Row checked at the instance's n is read-only, so the instance shares
    # it; one checked at a smaller n is stored again at the instance's n.
    inst = make_lp_instance(4, np.ones(4), [[(0, 1.0)], [(3, 2.0), (1, 0.5)]])
    small = make_lp_instance(2, np.ones(2), [[(1, 1.0)]]).rows[0]
    again = make_lp_instance(4, np.ones(4), inst.rows + [small])
    assert all(a is b for a, b in zip(again.rows, inst.rows))
    assert again.rows[2] is not small and again.rows[2].n == 4
    assert again.rows[2] == small


def test_checked_rows_are_not_checked_again_by_list_views():
    # validate_row reads an instance's Row through row_arrays, so the check
    # does not run on it a second time.
    rows = [[(j, 0.25) for j in range(20)], [(3, 0.5), (1, 1.0)]]
    inst = make_lp_instance(25, np.ones(25), rows)
    with mock.patch.object(instances, "_checked_entries",
                           wraps=instances._checked_entries) as entries:
        for row, want in zip(inst.rows, rows):
            assert _typed(validate_row(row, 25)) == _typed(want)
    assert entries.call_count == 0


def test_lp_instance_validation_and_roundtrip():
    inst = make_lp_instance(3, [1.0, 2.0, 0.5],
                            [[(0, 1.0), (2, 0.3)], [(1, 1.0)]], boxed=True)
    doc = serialize_lp_instance(inst)
    back = parse_lp_instance(doc)
    assert back.n == 3 and back.boxed
    assert np.allclose(back.c, inst.c)
    assert back.rows == inst.rows
    # JSON text round-trip too.
    again = parse_lp_instance(json.loads(json.dumps(doc)))
    assert again.rows == inst.rows
    with pytest.raises(NonPositiveCost):
        make_lp_instance(2, [1.0, 0.0], [[(0, 1.0)]])
    with pytest.raises(LengthMismatch):
        make_lp_instance(2, [1.0], [[(0, 1.0)]])


def test_lp_instance_size_is_any_positive_integer():
    # numpy integers pass and are stored as int; bool, float and 0 do not.
    inst = make_lp_instance(np.int64(2), np.array([1.0, 1.0]), [[(0, 1.0)]])
    assert inst.n == 2 and type(inst.n) is int
    for bad in (True, 2.0, 0):
        with pytest.raises(MalformedDocument, match="positive integer"):
            make_lp_instance(bad, np.array([1.0, 1.0]), [[(0, 1.0)]])


def test_box_normalization_helper():
    # General caps u scale into the unit box: columns j get a_ij * u_j and
    # costs c_j * u_j, so x_unit = x / u preserves cost and coverage.
    c = np.array([1.0, 4.0])
    rows = [[(0, 0.5), (1, 0.25)]]
    inst, u = normalize_box_bounds(2, c, rows, [2.0, 8.0])
    assert np.allclose(inst.c, [2.0, 32.0])
    assert inst.rows[0] == [(0, 1.0), (1, 2.0)]
    assert inst.boxed


def test_advice_validation():
    adv = validate_advice([0.5, 0.0], 0.25, 2, boxed=False)
    assert isinstance(adv, AdviceVector)
    assert adv.lam == 0.25
    with pytest.raises(NegativeAdvice):
        validate_advice([-0.1, 0.0], 0.5, 2, boxed=False)
    with pytest.raises(LambdaOutOfRange):
        validate_advice([0.1, 0.0], 1.5, 2, boxed=False)
    with pytest.raises(AdviceAboveCap):
        validate_advice([1.2, 0.0], 0.5, 2, boxed=True)
    validate_advice([1.2, 0.0], 0.5, 2, boxed=False)  # fine without the box
    with pytest.raises(LengthMismatch):
        validate_advice([0.1], 0.5, 2, boxed=False)
    doc = serialize_advice(adv)
    back = parse_advice(doc, 2, boxed=False)
    assert np.allclose(back.x_prime, adv.x_prime) and back.lam == adv.lam


def test_sdp_instance_validation_and_roundtrip():
    A = [np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]])]
    B = [np.eye(2) * 0.5, np.eye(2)]
    inst = make_sdp_instance(2, 2, [1.0, 1.0], A, B)
    doc = serialize_sdp_instance(inst)
    back = parse_sdp_instance(doc)
    assert back.n == 2 and back.d == 2
    assert np.allclose(back.A[1], A[1])
    assert np.allclose(back.B_stream[0], B[0])
    with pytest.raises(AsymmetricMatrix):
        make_sdp_instance(1, 2, [1.0], [np.array([[1.0, 1.0], [0.0, 1.0]])],
                          [np.eye(2)])
    with pytest.raises(NotPsd):
        make_sdp_instance(1, 2, [1.0], [np.diag([1.0, -1.0])], [np.eye(2)])
    with pytest.raises(NonMonotoneB):
        make_sdp_instance(1, 2, [1.0], [np.eye(2)],
                          [np.eye(2), np.eye(2) * 0.5])


def test_make_sdp_instance_checks_each_matrix_once(monkeypatch):
    # Each matrix is checked by _as_psd_matrix alone; is_psd's own checks
    # (symmetric.checked_matrix) never run on the way to the Cholesky test.
    def checked(m):
        raise AssertionError("a matrix was checked twice")

    monkeypatch.setattr(symmetric, "checked_matrix", checked)
    A = [np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0 + 1e-12]])]
    A[1][0, 1] += 1e-13   # asymmetric within TOL_SYM
    inst = make_sdp_instance(2, 2, [1.0, 1.0], A, [np.eye(2) * 0.5, np.eye(2)])
    assert np.array_equal(inst.A[1], inst.A[1].T)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("big", [1e200, 1.7e308])
def test_sdp_matrix_whose_norm_overflows_is_malformed(big):
    # An infinite norm would make the PSD floor infinite and pass anything.
    for A, B in (([[big]], [[1.0]]), ([[1.0]], [[big]]),
                 ([[-big]], [[1.0]])):
        with pytest.raises(MalformedDocument, match="norm overflows"):
            make_sdp_instance(1, 1, [1.0], [A], [B])


def test_solver_params_validation():
    p = SolverParams()
    assert p.max_phase == 200
    with pytest.raises(TypeError):
        SolverParams(tol_sym=1e-8)  # symmetry slack is symmetric.TOL_SYM
    with pytest.raises(TypeError):
        SolverParams(tol_bisect=1e-6)  # the event search's is growth.TOL
    with pytest.raises(MalformedDocument):
        SolverParams(max_phase=0)
    assert type(SolverParams(max_phase=np.int64(3)).max_phase) is int


@pytest.mark.parametrize("name, value", [
    ("tol_feas", 1.0), ("tol_feas", 2.0), ("tol_feas", np.inf),
    ("tol_feas", np.nan), ("tol_feas", 0.0), ("tol_psd", 1.0),
    ("tol_psd", np.inf), ("tol_psd", np.nan), ("max_phase", np.nan),
    ("max_phase", 1.5), ("max_phase", True), ("max_phase", 0),
])
def test_solver_params_reject_values_that_break_the_solver(name, value):
    # A slack of 1 or more publishes an uncovered point as covered; a nan
    # slack or phase cap spins until a step or round guard stops it.
    with pytest.raises(MalformedDocument, match=name):
        SolverParams(**{name: value})


@pytest.mark.parametrize("alpha", [np.inf, 0.0, -1.0, np.nan])
def test_solver_params_reject_unusable_initial_alpha(alpha):
    # inf would publish x = inf; 0 and negative budgets never grow and
    # spin until the phase-restart cap.
    with pytest.raises(MalformedDocument, match="initial_alpha"):
        SolverParams(initial_alpha=alpha)


def test_constraint_source_is_gone():
    # Row lists go to run_rows and an oracle to run_source as a callable.
    assert not hasattr(pdla, "ConstraintSource")
    assert not hasattr(instances, "ConstraintSource")


@pytest.mark.parametrize("module", [pdla, covering_lp_box],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] \
        == []
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


_LP = '"n": 1, "c": [1.0], "rows": [[[0, 1.0]]]'
_SDP = '"n": 1, "d": 1, "c": [1.0], "A": [[1.0]], "B": [[1.0]]'
_ROWS = [[(0, 1.0)]]


@pytest.mark.parametrize("call, error, match", [
    (lambda: parse_lp_instance("[]"), MalformedDocument, "top level"),
    (lambda: parse_lp_instance('{"n": 1, "c": [1.0]}'), MalformedDocument,
     "missing field 'rows'"),
    (lambda: parse_lp_instance("{%s, \"boxed\": 1}" % _LP),
     MalformedDocument, "boxed"),
    (lambda: parse_lp_instance('{"n": 1, "c": [1.0], "rows": {}}'),
     MalformedDocument, "rows must be a list"),
    (lambda: parse_sdp_instance("{"), MalformedDocument, "invalid JSON"),
    (lambda: parse_sdp_instance("[]"), MalformedDocument, "top level"),
    (lambda: parse_sdp_instance('{"n": 1, "d": 1, "c": [1.0], "A": [[1]]}'),
     MalformedDocument, "missing field 'B'"),
    (lambda: parse_sdp_instance('{%s, "boxed": "yes"}' % _SDP),
     MalformedDocument, "boxed"),
    (lambda: make_sdp_instance(2, 1, [1.0, 1.0], [[1.0]], [[1.0]]),
     LengthMismatch, "action matrices"),
    (lambda: make_sdp_instance(1, 2, [1.0], [[1.0, 0.0, 1.0]], [np.eye(2)]),
     LengthMismatch, "has 3 entries"),
    (lambda: make_sdp_instance(1, 1, [1.0], [[np.inf]], [[1.0]]),
     MalformedDocument, "finite"),
    (lambda: make_sdp_instance(1, 1, [1.0], [[1.0]], []), MalformedDocument,
     "nonempty"),
    (lambda: normalize_box_bounds(1, [1.0], _ROWS, [1.0, 1.0]),
     LengthMismatch, "wrong length"),
    (lambda: normalize_box_bounds(1, [1.0], _ROWS, [0.0]), MalformedDocument,
     "positive"),
    (lambda: validate_advice([np.nan], 0.5, 1, boxed=False),
     MalformedDocument, "finite"),
    (lambda: parse_advice("{", 1, boxed=False), MalformedDocument,
     "invalid JSON"),
    (lambda: parse_advice('{"x": [0.5]}', 1, boxed=False), MalformedDocument,
     "lambda"),
], ids=["lp-top-level", "lp-missing-field", "lp-boxed", "lp-rows",
        "sdp-json", "sdp-top-level", "sdp-missing-field", "sdp-boxed",
        "sdp-a-count", "sdp-matrix-size", "sdp-non-finite", "sdp-empty-b",
        "box-length", "box-bound", "advice-non-finite", "advice-json",
        "advice-keys"])
def test_input_errors_raise_their_types(call, error, match):
    with pytest.raises(error, match=match):
        call()
