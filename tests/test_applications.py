"""Set cover, max flow / min cut, and group Steiner adapters."""
import numpy as np
import pytest
from numpy.random import default_rng

from pdla import applications
from pdla.applications import (FlowNetwork, RootedTree, SetSystem, gst_oracle,
                               max_flow, parse_tree_doc, set_cover_instance,
                               set_cover_stream, solve_gst_online,
                               solve_set_cover)
from pdla.covering_lp import dual_certificate
from pdla.errors import MalformedDocument, UncoverableElement
from pdla.instances import SolverParams, validate_advice


def test_set_cover_stream_rows():
    sys_ = SetSystem(costs=[1.0, 1.0, 3.0],
                     membership=[[0, 2], [0, 1], [1, 2]])
    rows = set_cover_stream(sys_)
    assert rows == [[(0, 1.0), (2, 1.0)], [(0, 1.0), (1, 1.0)],
                    [(1, 1.0), (2, 1.0)]]
    assert sys_.max_frequency == 2
    inst = set_cover_instance(sys_)
    assert inst.boxed


def test_set_cover_solution_feasible_and_competitive():
    sys_ = SetSystem(costs=[1.0, 1.0, 3.0],
                     membership=[[0, 2], [0, 1], [1, 2]])
    x, st = solve_set_cover(sys_)
    for group in sys_.membership:
        assert sum(x[j] for j in group) >= 1.0 - 1e-7
    assert np.all(x <= 1.0 + 1e-12)
    # Optimum is 2 (both unit-cost sets); frequency-2 system keeps the
    # online cost within a small factor.
    assert float(sys_.costs @ x) <= 2.0 * 6
    cert = dual_certificate(st)
    assert all(v >= -1e-12 for v in cert.y.values())


def test_uncoverable_element_rejected():
    with pytest.raises(UncoverableElement):
        SetSystem(costs=[1.0], membership=[[0], []])


def test_max_flow_hand_network():
    net = FlowNetwork(num_nodes=4)
    net.add_arc(0, 1, 3.0)
    net.add_arc(0, 2, 2.0)
    net.add_arc(1, 2, 5.0)
    net.add_arc(1, 3, 2.0)
    net.add_arc(2, 3, 3.0)
    value, cut = max_flow(net, 0, 3)
    assert value == pytest.approx(5.0)
    assert sorted(cut) == [0, 1]  # both source arcs saturate
    assert sum(net.arcs[k][2] for k in cut) == pytest.approx(value)


def test_max_flow_zero_capacities():
    net = FlowNetwork(num_nodes=3)
    net.add_arc(0, 1, 0.0)
    net.add_arc(1, 2, 0.0)
    value, cut = max_flow(net, 0, 2)
    assert value == 0.0
    assert cut == [0]  # the arc out of the source


def test_max_flow_validation():
    net = FlowNetwork(num_nodes=2)
    with pytest.raises(MalformedDocument):
        net.add_arc(0, 5, 1.0)
    with pytest.raises(MalformedDocument):
        net.add_arc(0, 1, -1.0)
    net.add_arc(0, 1, 1.0)
    with pytest.raises(MalformedDocument):
        max_flow(net, 1, 1)


def test_max_flow_on_a_deep_path():
    # One vertex per level: a search that recursed once per level would
    # exceed the interpreter's recursion limit long before the sink.
    n = 2500
    net = FlowNetwork(num_nodes=n)
    for v in range(n - 1):
        net.add_arc(v, v + 1, 0.25 if v == 1700 else 1.0)
    value, cut = max_flow(net, 0, n - 1)
    assert value == 0.25
    assert cut == [1700]


def test_gst_oracle_on_a_deep_path_tree():
    n = 1500
    tree = RootedTree.from_edge_list(
        n, 0, [(v, v + 1, 1.0) for v in range(n - 1)])
    x = np.ones(n - 1)
    assert gst_oracle(tree, [n - 1], x) is None
    x[1234] = 0.4
    assert gst_oracle(tree, [n - 1], x) == [(1234, 1.0)]
    assert gst_oracle(tree, [1000], x) is None   # above the weak edge


_PATH3 = RootedTree.from_edge_list(3, 0, [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: SetSystem(costs=[1.0, 2.0], membership=[[0, 1, 0]]),
                 "repeats a set", id="repeated-set"),
    pytest.param(lambda: SetSystem(costs=[1.0, 2.0], membership=[[0], [2]]),
                 "out of range", id="set-out-of-range"),
    pytest.param(lambda: RootedTree.from_edge_list(
        3, 3, [(0, 1, 1.0), (1, 2, 1.0)]), "root 3", id="bad-root"),
    pytest.param(lambda: RootedTree.from_edge_list(
        3, 0, [(0, 1, 1.0), (1, 1, 1.0)]), "invalid", id="self-loop"),
    pytest.param(lambda: RootedTree.from_edge_list(
        3, 0, [(0, 1, 1.0), (1, 5, 1.0)]), "invalid", id="edge-out-of-range"),
    pytest.param(lambda: RootedTree.from_edge_list(
        4, 0, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)]), "not connected",
        id="cycle"),
    pytest.param(lambda: gst_oracle(_PATH3, [], [1.0, 1.0]), "empty",
                 id="empty-group"),
    pytest.param(lambda: gst_oracle(_PATH3, [1, 3], [1.0, 1.0]),
                 "out of range", id="group-out-of-range"),
])
def test_application_input_errors(build, match):
    with pytest.raises(MalformedDocument, match=match):
        build()


def test_gst_oracle_picks_most_violated_cut():
    tree = RootedTree.from_edge_list(3, 0, [(0, 1, 1.0), (1, 2, 1.0)])
    row = gst_oracle(tree, [2], [0.3, 0.6])
    assert row == [(0, 1.0)]  # the 0.3 edge is the bottleneck
    assert gst_oracle(tree, [2], [1.0, 1.0]) is None
    assert gst_oracle(tree, [0], [0.0, 0.0]) is None  # root inside the group


def test_gst_single_edge_costs_exactly_the_edge():
    # One mandatory edge: the cap event must outrank the budget tie or the
    # solver would restart forever instead of saturating the edge.
    tree = RootedTree.from_edge_list(2, 0, [(0, 1, 5.0)])
    x, st = solve_gst_online(tree, [[1]])
    assert x[0] == pytest.approx(1.0)
    assert float(x[0] * 5.0) == pytest.approx(5.0)
    assert st.alpha_history == [5.0]


def test_gst_path_needs_both_edges():
    tree = RootedTree.from_edge_list(3, 0, [(0, 1, 1.0), (1, 2, 2.0)])
    x, st = solve_gst_online(tree, [[2]])
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)
    # Flow certificate: every cut now carries at least one unit.
    assert gst_oracle(tree, [2], x) is None


def test_gst_star_groups_accumulate():
    tree = RootedTree.from_edge_list(4, 0, [(0, 1, 1.0), (0, 2, 1.0),
                                            (0, 3, 1.0)])
    # Zero advice pins phase starts at the origin, so the third edge stays
    # untouched; without advice the init seeds every edge at alpha/(2n c).
    adv = validate_advice(np.zeros(3), 0.0, 3, boxed=True)
    x, st = solve_gst_online(tree, [[1], [2]], advice=adv)
    assert x[0] == pytest.approx(1.0)
    assert x[1] == pytest.approx(1.0)
    assert x[2] == pytest.approx(0.0)
    # The second group enters with the budget already spent, forcing one
    # doubling before its edge can saturate.
    assert st.alpha_history == [1.0, 2.0]


def test_gst_with_perfect_advice_stays_cheap():
    # Balanced binary tree of depth 2; one group of both far leaves. The
    # suggestion routes to the left leaf only; full trust adopts it.
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0),
             (2, 5, 1.0), (2, 6, 1.0)]
    tree = RootedTree.from_edge_list(7, 0, edges)
    advice_x = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    adv = validate_advice(advice_x, 0.0, 6, boxed=True)
    x, st = solve_gst_online(tree, [[3, 5]], advice=adv)
    costs = np.array([c for (_, _, c) in tree.edges])
    assert gst_oracle(tree, [3, 5], x) is None
    assert float(costs @ x) <= 2.0 + 1e-6  # advice cost is 2


def test_tree_parsing_and_validation():
    doc = {"nodes": 3, "root": 0,
           "edges": [[0, 1, 1.0], [1, 2, 2.0]], "groups": [[2], [1, 2]]}
    tree, groups = parse_tree_doc(doc)
    assert tree.edges[1] == (1, 2, 2.0)
    assert groups == [[2], [1, 2]]
    with pytest.raises(MalformedDocument):
        RootedTree.from_edge_list(3, 0, [(0, 1, 1.0)])  # too few edges
    with pytest.raises(MalformedDocument):
        RootedTree.from_edge_list(4, 0, [(0, 1, 1.0), (2, 3, 1.0),
                                         (3, 2, 1.0)])  # disconnected
    with pytest.raises(MalformedDocument):
        RootedTree.from_edge_list(2, 0, [(0, 1, -1.0)])
    with pytest.raises(MalformedDocument):
        parse_tree_doc({"nodes": 2})


def test_gst_oriented_away_from_root():
    # Edges given child-first still orient parent -> child.
    tree = RootedTree.from_edge_list(3, 2, [(1, 0, 1.0), (2, 1, 1.0)])
    assert tree.edges[0] == (1, 0, 1.0)
    assert tree.edges[1] == (2, 1, 1.0)
    tree2 = RootedTree.from_edge_list(3, 0, [(1, 0, 1.0), (2, 1, 1.0)])
    assert tree2.edges[0] == (0, 1, 1.0)
    assert tree2.edges[1] == (1, 2, 1.0)


def test_gst_cuts_at_the_solver_tolerance(monkeypatch):
    # With tol_feas = 0.2 the solver books a cut of value 0.8 as covered,
    # so an oracle that kept cutting below 1 would hand it the same
    # satisfied cut forever. The counter bounds such a spin.
    rng = default_rng(0)
    n = 60
    parents = [int(rng.integers(0, v)) for v in range(1, n)]
    costs = rng.uniform(0.5, 1.5, n - 1)
    tree = RootedTree.from_edge_list(
        n, 0, [(parents[v - 1], v, float(costs[v - 1])) for v in range(1, n)])
    groups = [sorted(int(v) for v in rng.choice(np.arange(1, n), 3,
                                                 replace=False))
              for _ in range(8)]
    real, calls = applications.gst_oracle, []

    def counted(*args, **kwargs):
        calls.append(1)
        assert len(calls) <= 2000, "the oracle keeps separating"
        return real(*args, **kwargs)

    monkeypatch.setattr(applications, "gst_oracle", counted)
    x, st = solve_gst_online(tree, groups,
                             params=SolverParams(tol_feas=0.2))
    for group in groups:
        assert real(tree, group, x, 0.2) is None
    assert len(calls) == st.round_no + len(groups)
