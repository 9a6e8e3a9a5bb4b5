"""What each kind of run imports: scipy.linalg loads with the first SDP
matrix test, so LP, set-cover and group-Steiner processes never pay for it;
and no module of the package imports a name it never uses."""
import ast
import glob
import os

import pytest

_LP_SIDE_THEN_SDP = """
import sys
import numpy as np
import pdla, pdla.cli
from pdla.applications import (RootedTree, SetSystem, solve_gst_online,
                               solve_set_cover)
from pdla.covering_lp import run_lp
from pdla.covering_sdp import run_sdp
from pdla.instances import make_lp_instance, make_sdp_instance

def heavy():
    return [m for m in ("scipy.linalg", "scipy.optimize", "scipy.sparse")
            if m in sys.modules]

assert not heavy(), f"import pdla, pdla.cli loaded {heavy()}"
run_lp(make_lp_instance(2, [1.0, 2.0], [[(0, 1.0), (1, 1.0)]]))
solve_set_cover(SetSystem(costs=[1.0, 2.0], membership=[[0, 1], [1]]))
tree = RootedTree.from_edge_list(3, 0, [(0, 1, 1.0), (1, 2, 2.0)])
solve_gst_online(tree, [[2], [1]])
assert not heavy(), f"an LP-side run loaded {heavy()}"
inst = make_sdp_instance(2, 2, [1.0, 2.0],
                         [np.array([[1.0, 0.5], [0.5, 1.0]]), np.eye(2)],
                         [0.5 * np.eye(2)])
state, _ = run_sdp(inst)
assert state.iterations > 0
assert "scipy.linalg" in sys.modules
"""

_THREADS_LOAD_LAPACK_AT_ONCE = """
import sys
import threading
import numpy as np
from pdla.covering_sdp import current_solution, run_sdp
from pdla.instances import make_sdp_instance

g = np.array([[1.0, 0.5], [0.5, 2.0]])
barrier = threading.Barrier(4, timeout=60)
xs, errors = [], []

def solve():
    try:
        barrier.wait()
        inst = make_sdp_instance(2, 2, [1.0, 2.0], [g, np.diag([1.0, 0.0])],
                                 [0.5 * np.eye(2), np.eye(2)])
        xs.append(current_solution(run_sdp(inst)[0]).tolist())
    except BaseException as exc:
        errors.append(repr(exc))

# More threads than cores, switching as often as the interpreter allows.
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=solve) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads), "a solver thread hung"
assert not errors, errors
assert len(xs) == 4 and all(x == xs[0] for x in xs), xs
"""


def test_lp_side_runs_never_load_scipy_linalg(fresh_python):
    out = fresh_python("-c", _LP_SIDE_THEN_SDP)
    assert out.returncode == 0, out.stderr


def test_threads_that_start_sdp_solvers_at_once_load_lapack_once(
        fresh_python):
    out = fresh_python("-c", _THREADS_LOAD_LAPACK_AT_ONCE)
    assert out.returncode == 0, out.stderr


_SYMMETRIC_TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "test_symmetric.py")


@pytest.mark.parametrize("selection", [
    # Replaces the drivers before anything has loaded them.
    "::test_input_errors_come_before_any_factorization",
    "",
], ids=["patch-first", "whole-module"])
def test_symmetric_tests_pass_alone_in_a_fresh_process(fresh_python,
                                                       selection):
    out = fresh_python("-m", "pytest", "-q", "-p", "no:cacheprovider",
                       _SYMMETRIC_TESTS + selection)
    assert out.returncode == 0, out.stdout + out.stderr


_PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "pdla")


def _unused_imports(path: str) -> list[str]:
    """The names path imports and never reads, as 'file:line name'. An
    import marked `# noqa: F401` (a re-export, or a name the traced
    benchmark rebinds) is exempt, and so is a name listed in __all__."""
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{os.path.basename(path)}:{node.lineno} {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(glob.glob(os.path.join(_PACKAGE, "*.py")))
    assert paths
    assert [u for path in paths for u in _unused_imports(path)] == []
