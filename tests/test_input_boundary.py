"""The package's input boundary: every constructor that takes numbers, and
the group Steiner oracle, checks them with `instances.as_numbers` /
`as_number` / `as_integer`. A value it cannot use, a list that is none or
an unboxed state given to a boxed entry point raises a PdlaError subclass
naming the field, never a bare ValueError, TypeError or IndexError, and a
value is never read as another number (a boolean as 1.0, say)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdla.applications import RootedTree, SetSystem, gst_oracle
from pdla.baselines import advice_scaling, offline_solve, simple_switch
from pdla.covering_lp import new_lp_solver, process_row
from pdla.covering_lp_box import process_row_box
from pdla.covering_sdp import new_sdp_solver, process_matrix
from pdla.errors import PdlaError
from pdla.experiments import ExperimentConfig
from pdla.instances import (SolverParams, cost_vector, make_lp_instance,
                            make_sdp_instance, normalize_box_bounds,
                            row_arrays, validate_advice)

_ROWS = [[(0, 1.0)], [(1, 1.0)]]
_EDGE = RootedTree.from_edge_list(2, 0, [(0, 1, 1.0)])
_SDP = make_sdp_instance(1, 1, [1.0], [[1.0]], [[1.0]])
_LP = make_lp_instance(2, [1.0, 1.0], _ROWS)


@pytest.mark.parametrize("call, field", [
    (lambda: make_lp_instance(2, [True, 1.0], _ROWS), "costs"),
    (lambda: new_lp_solver(2, [True, 1.0]), "costs"),
    (lambda: make_sdp_instance(1, 1, [True], [[1.0]], [[1.0]]), "costs"),
    (lambda: SetSystem([True, 1.0], [[0], [1]]), "set costs"),
    (lambda: SetSystem([1, 1], [[True]]), "set indices"),
    (lambda: RootedTree.from_edge_list(2, 0, [(0, 1, True)]), "edge costs"),
    (lambda: validate_advice([True, False], 0.5, 2, False), "advice x"),
    (lambda: validate_advice([1, 0], True, 2, False), "lambda"),
    (lambda: make_lp_instance(2, ["ab", 1.0], _ROWS), "costs"),
    (lambda: SetSystem(["ab", 1.0], [[0], [1]]), "set costs"),
    (lambda: advice_scaling(2, _ROWS, ["ab", 1]), "advice"),
    (lambda: validate_advice([1, 0], None, 2, False), "lambda"),
    (lambda: RootedTree.from_edge_list(2, 0, [(0, 1, "ab")]), "edge costs"),
    (lambda: SolverParams(tol_feas="ab"), "tol_feas"),
    (lambda: advice_scaling(2, _ROWS, [1.0]), "advice"),
    (lambda: advice_scaling(2, _ROWS, [1.0, 1.0, 1.0]), "advice"),
    (lambda: make_sdp_instance(1, 1, [1.0], 5, [[1.0]]), "A and B"),
    (lambda: make_sdp_instance(1, 1, [1.0], [[1.0]], 5), "A and B"),
    (lambda: SetSystem([1.0], [5]), "membership"),
    (lambda: process_row_box(new_lp_solver(1, [1.0]), [(0, 1.0)]),
     "box constraint"),
    (lambda: process_row(new_lp_solver(2, [1.0, 1.0]), 5), "pairs, not int"),
    (lambda: make_lp_instance(2, [1.0, 1.0], [5]), "pairs, not int"),
    (lambda: make_lp_instance(2, [1.0, 1.0], [None]), "pairs, not NoneType"),
    (lambda: make_lp_instance(2, [1.0, 1.0], 5), "rows must be a list"),
    (lambda: row_arrays(None, 2), "pairs, not NoneType"),
    (lambda: simple_switch(2, [1.0, 1.0], _ROWS,
                           validate_advice([1.0], 0.5, 1, False)), "advice"),
    (lambda: simple_switch(2, [1.0, 1.0], _ROWS,
                           validate_advice([1.0] * 3, 0.5, 3, False)),
     "advice"),
], ids=["lp-cost-bool", "solver-cost-bool", "sdp-cost-bool", "set-cost-bool",
        "set-member-bool", "tree-cost-bool", "advice-x-bool",
        "advice-lambda-bool", "lp-cost-string", "set-cost-string",
        "scaling-advice-string", "advice-lambda-null", "tree-cost-string",
        "params-string", "scaling-advice-short", "scaling-advice-long",
        "sdp-A-number", "sdp-B-number", "set-group-number", "box-row-unboxed",
        "process-row-number", "lp-row-number", "lp-row-null",
        "lp-rows-number", "row-arrays-null", "switch-advice-short",
        "switch-advice-long"])
def test_a_constructor_refuses_what_is_no_number(call, field):
    with pytest.raises(PdlaError, match=field):
        call()


_CONFIG_FIELDS = ("n", "density", "trials", "seed", "lambdas",
                  "corruption_rates", "drift_steps", "eps_offline",
                  "cost_scale")

# Each puts the drawn value in one slot of a call that is valid otherwise.
_CALLS = {
    "cost_vector": lambda v: cost_vector(v, 2),
    "solver-n": lambda v: new_lp_solver(v, [1.0, 1.0]),
    "solver-costs": lambda v: new_lp_solver(2, v),
    "advice-x": lambda v: validate_advice(v, 0.5, 2, False),
    "advice-lambda": lambda v: validate_advice([0.5, 0.5], v, 2, False),
    "set-costs": lambda v: SetSystem(v, [[0]]),
    "set-member": lambda v: SetSystem([1.0, 1.0], [[0, v]]),
    "set-group": lambda v: SetSystem([1.0, 1.0], [v]),
    "tree-nodes": lambda v: RootedTree.from_edge_list(v, 0, [(0, 1, 1.0)]),
    "tree-root": lambda v: RootedTree.from_edge_list(2, v, [(0, 1, 1.0)]),
    "tree-vertex": lambda v: RootedTree.from_edge_list(2, 0, [(0, v, 1.0)]),
    "tree-cost": lambda v: RootedTree.from_edge_list(2, 0, [(0, 1, v)]),
    "tree-edge": lambda v: RootedTree.from_edge_list(2, 0, [v]),
    "gst-group": lambda v: gst_oracle(_EDGE, [v], [0.5]),
    "gst-x": lambda v: gst_oracle(_EDGE, [1], v),
    "sdp-target": lambda v: process_matrix(new_sdp_solver(_SDP), v),
    "sdp-A": lambda v: make_sdp_instance(1, 1, [1.0], v, [[1.0]]),
    "sdp-B": lambda v: make_sdp_instance(1, 1, [1.0], [[1.0]], v),
    "scaling-advice": lambda v: advice_scaling(2, _ROWS, v),
    "box-bounds-costs": lambda v: normalize_box_bounds(2, v, _ROWS,
                                                       [1.0, 2.0]),
    "box-bounds-row": lambda v: normalize_box_bounds(2, [1.0, 1.0], [v],
                                                     [1.0, 2.0]),
    "offline-eps": lambda v: offline_solve(_LP, v),
    **{f"params-{name}": lambda v, name=name: SolverParams(**{name: v})
       for name in ("tol_feas", "tol_psd", "max_phase", "initial_alpha")},
    **{f"config-{name}":
       lambda v, name=name: ExperimentConfig(kind="LambdaSweep", **{name: v})
       for name in _CONFIG_FIELDS},
}

_SCALARS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(),
    st.text(max_size=3), st.sampled_from(["1", "0.5", "nan"]),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.float64, st.floats()), st.sampled_from([np.bool_(True)]))
_VALUES = st.recursive(
    st.one_of(_SCALARS, st.builds(np.asarray, st.lists(_SCALARS, max_size=3))),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.tuples(inner, inner)),
    max_leaves=6)


@pytest.mark.parametrize("slot", sorted(_CALLS))
@settings(max_examples=100, deadline=None)
@given(value=_VALUES)
def test_every_constructor_returns_or_raises_a_package_error(slot, value):
    # Numbers, booleans, None, strings and ragged lists in any one slot.
    try:
        _CALLS[slot](value)
    except PdlaError:
        pass
