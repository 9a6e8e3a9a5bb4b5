"""Application adapters: set cover, s-t cuts, and group Steiner on trees.

Set cover streams one unit row per element over the sets containing it.
Group Steiner relaxes to a boxed covering LP over tree edges whose rows are
violated root-to-group cuts, produced lazily by a max-flow separation oracle:
cap each tree edge (directed away from the root) by its current fractional
value, wire every group vertex to a super sink with effectively infinite
capacity, and return the min cut when its value is below one.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .covering_lp import current_solution, run_lp, run_source
from .covering_lp_box import new_lp_box_solver
# Not called here; kept because the traced benchmark rebinds this name.
from .covering_lp_box import process_row_box  # noqa: F401
from .errors import Infeasible, MalformedDocument, UncoverableElement
from .instances import (AdviceVector, CoveringLpInstance, SolverParams,
                        SparseRow, as_integer, as_numbers, as_vector,
                        cost_vector, make_lp_instance)


# ---------------------------------------------------------------- set cover

@dataclass
class SetSystem:
    """Weighted sets over a ground universe; element i names the sets
    containing it."""
    costs: np.ndarray
    membership: list[list[int]]   # element -> indices of covering sets

    def __post_init__(self):
        costs = as_numbers(self.costs, "set costs")
        self.costs = cost_vector(costs, costs.size)
        try:
            self.membership = [[as_integer(j, "set indices must be integers")
                                for j in group] for group in self.membership]
        except TypeError:
            raise MalformedDocument("set membership must be lists") from None
        for i, group in enumerate(self.membership):
            if len(group) == 0:
                raise UncoverableElement(f"element {i} belongs to no set")
            if len(set(group)) != len(group):
                raise MalformedDocument(f"element {i} repeats a set")
            for j in group:
                if not 0 <= j < costs.size:
                    raise MalformedDocument(
                        f"element {i} references set {j} out of range")

    @property
    def max_frequency(self) -> int:
        return max(len(g) for g in self.membership)


def set_cover_stream(system: SetSystem) -> list[SparseRow]:
    """One unit covering row per element."""
    return [[(j, 1.0) for j in group] for group in system.membership]


def set_cover_instance(system: SetSystem) -> CoveringLpInstance:
    return make_lp_instance(system.costs.size, system.costs,
                            set_cover_stream(system), boxed=True)


def solve_set_cover(system: SetSystem, advice: AdviceVector | None = None,
                    params: SolverParams | None = None):
    """Stream the elements through the boxed solver; returns (x, state).

    The row sparsity never exceeds the element frequency, so the guarantee
    scales with log(max_frequency) when the suggestion is distrusted.
    """
    st, _ = run_lp(set_cover_instance(system), advice=advice, params=params)
    return current_solution(st), st


# ------------------------------------------------------------ max flow / cut

@dataclass
class FlowNetwork:
    """Directed network with float capacities on arcs."""
    num_nodes: int
    arcs: list[tuple[int, int, float]] = field(default_factory=list)

    def add_arc(self, u: int, v: int, cap: float) -> None:
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise MalformedDocument(f"arc ({u}, {v}) out of range")
        if cap < 0 or not np.isfinite(cap):
            raise MalformedDocument(f"arc ({u}, {v}) has capacity {cap}")
        self.arcs.append((u, v, float(cap)))


def max_flow(net: FlowNetwork, s: int, t: int):
    """Blocking-flow max flow (Dinic); returns (value, cut_arc_indices).

    The cut is the set of original arcs leaving the source side, the
    vertices of the last level graph: Dinic stops on a level search that no
    longer reaches t, and that search runs to exhaustion, so its levels
    mark exactly the residual reachability from s. Cut indices refer to
    net.arcs order. Capacities are floats, so residuals below a scale-aware
    epsilon count as saturated.
    """
    if s == t:
        raise MalformedDocument("source equals sink")
    n = net.num_nodes
    heads: list[int] = []
    caps: list[float] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v, cap) in net.arcs:
        adj[u].append(len(heads))
        heads.append(v)
        caps.append(cap)
        adj[v].append(len(heads))
        heads.append(u)
        caps.append(0.0)
    big = max((cap for (_, _, cap) in net.arcs), default=0.0)
    eps = 1e-12 * max(1.0, big)

    def bfs_levels():
        level = [-1] * n
        level[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for e in adj[u]:
                v = heads[e]
                if caps[e] > eps and level[v] < 0:
                    level[v] = level[u] + 1
                    dq.append(v)
        return level

    value = 0.0
    while (level := bfs_levels())[t] >= 0:
        # Blocking flow: walk admissible arcs from s, keeping the arcs
        # walked; at t push the path's least capacity and restart from s,
        # at a dead end retreat one arc and skip it.
        iters, path, u = [0] * n, [], s
        while True:
            if u == t:
                pushed = min(caps[e] for e in path)
                for e in path:
                    caps[e] -= pushed
                    caps[e ^ 1] += pushed
                value += pushed
                path.clear()
                u = s
            elif iters[u] < len(adj[u]):
                e = adj[u][iters[u]]
                if caps[e] > eps and level[heads[e]] == level[u] + 1:
                    path.append(e)
                    u = heads[e]
                else:
                    iters[u] += 1
            elif path:
                u = heads[path.pop() ^ 1]
                iters[u] += 1
            else:
                break

    # The last level graph is the cut's source side: level[u] >= 0.
    # Drop boundary arcs whose head has no directed path to t at all
    # (zero-capacity dead ends); those arcs separate nothing, and keeping
    # them would hand the covering solver constraints over unrelated
    # coordinates. Arc existence, not current capacity, decides this, so
    # a saturated corridor still counts as a path.
    rev: list[list[int]] = [[] for _ in range(n)]
    for (u, v, _) in net.arcs:
        rev[v].append(u)
    coreach = _levels(n, t, rev.__getitem__)
    cut = [k for k, (u, v, _) in enumerate(net.arcs)
           if level[u] >= 0 > level[v] and coreach[v] >= 0]
    return value, cut


def _levels(n: int, start: int, successors) -> list[int]:
    """Breadth-first distance from start, -1 where unreached; successors(u)
    yields the vertices one step from u."""
    level = [-1] * n
    level[start] = 0
    dq = deque([start])
    while dq:
        u = dq.popleft()
        for v in successors(u):
            if level[v] < 0:
                level[v] = level[u] + 1
                dq.append(v)
    return level


# ------------------------------------------------------- group Steiner tree

@dataclass
class RootedTree:
    """A tree rooted at `root` with positive edge costs; edges are stored
    directed away from the root in input order."""
    root: int
    num_nodes: int
    edges: list[tuple[int, int, float]]   # (parent, child, cost)

    @staticmethod
    def from_edge_list(num_nodes: int, root: int,
                       edges: list[tuple[int, int, float]]) -> "RootedTree":
        num_nodes = as_integer(num_nodes, "nodes must be an integer")
        root = as_integer(root, "root must be an integer")
        if not 0 <= root < num_nodes:
            raise MalformedDocument(f"root {root} out of range")
        try:
            ends = [(as_integer(u, _VERTEX), as_integer(v, _VERTEX))
                    for u, v, _ in edges]
            costs = as_vector([cost for _, _, cost in edges], len(ends),
                              "edge costs").tolist()
        except (TypeError, ValueError) as exc:
            raise MalformedDocument(f"edges must be [u, v, cost] triples: "
                                    f"{exc}") from None
        if len(ends) != num_nodes - 1:
            raise MalformedDocument(
                f"{len(ends)} edges cannot form a spanning tree on "
                f"{num_nodes} nodes")
        adj: list[list[int]] = [[] for _ in range(num_nodes)]
        for k, (u, v) in enumerate(ends):
            if not (0 <= u < num_nodes and 0 <= v < num_nodes) or u == v:
                raise MalformedDocument(f"edge {k} = ({u}, {v}) is invalid")
            if not 0.0 < costs[k] < np.inf:
                raise MalformedDocument(f"edge {k} has cost {costs[k]}")
            adj[u].append(v)
            adj[v].append(u)
        level = _levels(num_nodes, root, adj.__getitem__)
        if min(level) < 0:
            # A cycle among n - 1 edges always leaves some node unreached.
            raise MalformedDocument("edge list is not connected")
        # On a tree each edge joins adjacent levels; the parent is nearer.
        oriented = [(u, v, cost) if level[u] < level[v] else (v, u, cost)
                    for (u, v), cost in zip(ends, costs)]
        return RootedTree(root=root, num_nodes=num_nodes, edges=oriented)


_VERTEX = "tree vertices must be integers"


def gst_oracle(tree: RootedTree, group: list[int], x_edges,
               tol: float = SolverParams.tol_feas) -> SparseRow | None:
    """Violated root-to-group cut under edge values x, or None.

    Caps each tree edge at its value, connects the group to a super sink
    with capacity above any possible cut, and runs max flow from the root.
    A flow value below 1 - tol (the solver's default `tol_feas`) yields the
    min cut restricted to tree edges as a unit covering row. Raises
    LengthMismatch unless x holds one value per tree edge.
    """
    if len(group) == 0:
        raise MalformedDocument("group is empty")
    for v in group:
        if not 0 <= as_integer(v, _VERTEX) < tree.num_nodes:
            raise MalformedDocument(f"group vertex {v} out of range")
    x = as_vector(x_edges, len(tree.edges), "edge values x")
    if tree.root in group:
        return None
    net = FlowNetwork(num_nodes=tree.num_nodes + 1)
    sink = tree.num_nodes
    big = float(np.sum(np.minimum(x, 1.0))) + 1.0
    # Tree edge k is arc k: the tree arcs go in first.
    for k, (u, v, _) in enumerate(tree.edges):
        net.add_arc(u, v, min(float(x[k]), 1.0))
    for v in set(group):
        net.add_arc(v, sink, big)
    value, cut = max_flow(net, tree.root, sink)
    if value >= 1.0 - tol:
        return None
    row = [(a, 1.0) for a in cut if a < len(tree.edges)]
    if not row:
        raise Infeasible("violated group admits no tree cut")
    return row


def solve_gst_online(tree: RootedTree, groups: list[list[int]],
                     advice: AdviceVector | None = None,
                     params: SolverParams | None = None):
    """Online fractional group Steiner on a tree; returns (x, state).

    Groups arrive one at a time; each drives `run_source` with `gst_oracle`
    cutting at the solver's tol_feas, until the flow to the group reaches
    1 - tol_feas. On a tree the all-ones labeling cuts every group, so the
    boxed LP never turns infeasible and rows never exceed the tree size.
    """
    n = len(tree.edges)
    costs = np.array([cost for (_, _, cost) in tree.edges])
    st = new_lp_box_solver(n, costs, advice=advice, params=params)
    for group in groups:
        run_source(st, lambda x, g=group: gst_oracle(tree, g, x,
                                                     st.params.tol_feas))
    return current_solution(st), st


def parse_tree_doc(doc: dict,
                   groups=None) -> tuple[RootedTree, list[list[int]]]:
    """JSON layout: {"nodes": N, "root": r, "edges": [[u, v, cost], ...],
    "groups": [[v, ...], ...]}; `groups`, when given, replaces the
    document's. The tree's numbers are checked by `RootedTree.from_edge_list`
    and each group's vertices by `gst_oracle`."""
    try:
        nodes, root, edges = doc["nodes"], doc["root"], doc["edges"]
        groups = doc["groups"] if groups is None else groups
    except (KeyError, TypeError) as exc:
        raise MalformedDocument(f"bad tree document: {exc!r}") from None
    if not isinstance(groups, list) or not all(
            isinstance(g, list) for g in groups):
        raise MalformedDocument("groups must be a list of lists")
    return RootedTree.from_edge_list(nodes, root, edges), groups
