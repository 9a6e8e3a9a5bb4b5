"""Validation and JSON round-trips for instances, advice, and parameters."""
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdla import instances
from pdla.covering_lp import dual_certificate, new_lp_solver, process_row
from pdla.covering_lp_box import sparsity_ratio
from pdla.errors import (AdviceAboveCap, AsymmetricMatrix, EmptyRow,
                         LambdaOutOfRange, LengthMismatch, MalformedDocument,
                         NegativeAdvice, NegativeEntry, NonMonotoneB,
                         NonPositiveCost, NotPsd, PdlaError)
from pdla.instances import (AdviceVector, ConstraintSource, Row, SolverParams,
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
    # Short rows skip the array check unless its length floor is lowered.
    for floor in (instances._MIN_ARRAY_ROW, 1):
        with mock.patch.object(instances, "_MIN_ARRAY_ROW", floor):
            assert _outcome(row_arrays, row, n) == want
            assert _outcome(validate_row, row, n) == want


def test_long_rows_take_the_array_check():
    row = [(j, 0.5 * j) for j in range(40)]
    idx, vals = instances._checked_arrays(row, 40)
    assert idx.tolist() == list(range(40)) and vals[1] == 0.5
    assert validate_row(row, 40) == row
    assert instances._checked_arrays(row[:3], 40) is None
    with pytest.raises(MalformedDocument, match=re.escape("(True, 1.0)")):
        row_arrays(row[:-1] + [(True, 1.0)], 40)


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
@given(st.one_of(_PLAIN_ROWS, _NEAR_VALID_ROWS), st.integers(1, 6),
       st.sampled_from([instances._MIN_ARRAY_ROW, 1]))
def test_instance_rows_are_rows_checked_once(row, n, floor):
    # Both sides of the array check's length floor, as above.
    with mock.patch.object(instances, "_MIN_ARRAY_ROW", floor):
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


def test_checked_rows_are_not_checked_again_by_list_views():
    # validate_row and sparsity_ratio read an instance's Row through
    # row_arrays, so neither check runs on it a second time.
    rows = [[(j, 0.25) for j in range(20)], [(3, 0.5), (1, 1.0)]]
    inst = make_lp_instance(25, np.ones(25), rows)
    tight = np.zeros(25, dtype=bool)
    tight[[1, 2]] = True
    with mock.patch.object(instances, "_checked_arrays",
                           wraps=instances._checked_arrays) as arrays, \
            mock.patch.object(instances, "_checked_entries",
                              wraps=instances._checked_entries) as entries:
        for row, want in zip(inst.rows, rows):
            assert _typed(validate_row(row, 25)) == _typed(want)
        assert sparsity_ratio(inst.rows[0], tight, 25) == \
            pytest.approx(4.5 / 0.5)
        assert sparsity_ratio(inst.rows[1], tight, 25) == np.inf
    assert arrays.call_count == 0 and entries.call_count == 0


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


def test_solver_params_validation():
    p = SolverParams()
    assert p.max_phase == 200
    with pytest.raises(TypeError):
        SolverParams(tol_sym=1e-8)  # symmetry slack is instances.TOL_SYM
    with pytest.raises(TypeError):
        SolverParams(tol_bisect=1e-6)  # the event search's is growth.TOL
    with pytest.raises(MalformedDocument):
        SolverParams(max_phase=0)


@pytest.mark.parametrize("alpha", [np.inf, 0.0, -1.0, np.nan])
def test_solver_params_reject_unusable_initial_alpha(alpha):
    # inf would publish x = inf; 0 and negative budgets never grow and
    # spin until the phase-restart cap.
    with pytest.raises(MalformedDocument, match="initial_alpha"):
        SolverParams(initial_alpha=alpha)


def test_constraint_source_requires_exactly_one_mode():
    ConstraintSource(rows=[[(0, 1.0)]])
    ConstraintSource(oracle=lambda x: None)
    with pytest.raises(MalformedDocument):
        ConstraintSource()
    with pytest.raises(MalformedDocument):
        ConstraintSource(rows=[], oracle=lambda x: None)
