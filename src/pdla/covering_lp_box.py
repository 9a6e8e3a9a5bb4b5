"""Boxed online covering LP: the x <= 1 variant's entry points.

The growth machinery, the certificate (`covering_lp.dual_certificate`) and
the row-sparsity statistic that drives the guarantee
(`SolverState.sparsity_seen`) are the unboxed solver's. A tight coordinate
(x_j = 1) stops growing and instead accrues a packing dual z_j at rate a_ij
per unit of row dual, so the certificate objective is sum(y) - sum(z).
"""
from __future__ import annotations

from .covering_lp import SolverState, StepReport, new_lp_solver, process_row
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


__all__ = ["new_lp_box_solver", "process_row_box"]
