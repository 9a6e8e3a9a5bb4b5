"""Validation and JSON round-trips for instances, advice, and parameters."""
import json

import numpy as np
import pytest

from pdla.errors import (AdviceAboveCap, AsymmetricMatrix, EmptyRow,
                         LambdaOutOfRange, LengthMismatch, MalformedDocument,
                         NegativeAdvice, NegativeEntry, NonMonotoneB,
                         NonPositiveCost, NotPsd)
from pdla.instances import (AdviceVector, ConstraintSource, SolverParams,
                            make_lp_instance, make_sdp_instance,
                            normalize_box_bounds, parse_advice,
                            parse_lp_instance, parse_sdp_instance,
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
    assert p.tol_bisect == 1e-9 and p.max_phase == 200
    with pytest.raises(MalformedDocument):
        SolverParams(tol_bisect=0.0)
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
