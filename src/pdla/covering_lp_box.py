"""Boxed online covering LP: the x <= 1 variant's public surface.

The growth machinery is shared with the unboxed solver; this module pins the
boxed entry points, the row-sparsity statistic that drives its guarantee, and
the discounted dual certificate. A tight coordinate (x_j = 1) stops growing
and instead accrues a packing dual z_j at rate a_ij per unit of row dual, so
the certificate objective is sum(y) - sum(z).
"""
from __future__ import annotations

from .covering_lp import (DualCertificate, SolverState, StepReport,
                          current_solution, dual_certificate, new_lp_solver,
                          process_row, run_source)
from .errors import MalformedDocument
from .instances import AdviceVector, SolverParams


def new_lp_box_solver(n, costs, advice: AdviceVector | None = None,
                      params: SolverParams | None = None) -> SolverState:
    return new_lp_solver(n, costs, advice=advice, params=params, boxed=True)


def process_row_box(state: SolverState, row) -> StepReport:
    """Feed one row to a boxed solver.

    Raises NoFeasibleSolution with the certifying row when even the all-ones
    point cannot satisfy it, and MalformedDocument on an unboxed state.
    """
    if not state.boxed:
        raise MalformedDocument("state was created without the box constraint")
    return process_row(state, row)


def sparsity_estimate(state: SolverState) -> float:
    """Largest sparsity ratio over the (row, tight set) pairs actually
    encountered while solving; the guarantee degrades with its logarithm."""
    return state.sparsity_seen


def dual_certificate_box(state: SolverState) -> DualCertificate:
    """Certificate for the boxed dual: max sum(y) - sum(z), A^T y - z <= c."""
    if not state.boxed:
        raise MalformedDocument("state was created without the box constraint")
    return dual_certificate(state)


__all__ = [
    "new_lp_box_solver", "process_row_box", "sparsity_estimate",
    "dual_certificate_box", "current_solution", "run_source",
]
