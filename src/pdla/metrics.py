"""Run metrics and the ratio bounds the solvers are audited against.

The robustness and consistency bounds are the paper's competitive ratios
with explicit constants: the acceptance suite's criteria 2 and 3 take their
ceilings from these two functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class RunMetrics:
    """One experiment row; field order matches the CSV columns."""
    lam: float
    trial: int
    step: int
    cost_alg: float
    cost_advice: float
    cost_offline: float
    ratio: float
    violations: int
    iterations: int
    phases: int
    dual_scale: float

    def to_row(self) -> list[str]:
        return [f"{self.lam:.10g}", str(self.trial), str(self.step),
                f"{self.cost_alg:.10g}", f"{self.cost_advice:.10g}",
                f"{self.cost_offline:.10g}", f"{self.ratio:.10g}",
                str(self.violations), str(self.iterations),
                str(self.phases), f"{self.dual_scale:.10g}"]


CSV_HEADER = ("lambda,trial,step,cost_alg,cost_advice,cost_offline,ratio,"
              "violations,iterations,phases,dual_scale")


def robustness_budget(kappa: float, n: int, lam: float) -> float:
    """Multiple of OPT the solver may pay regardless of advice quality."""
    lam = max(lam, 1e-12)
    return 12.0 * math.log(1.0 + 2.0 * max(kappa, 1.0) * n / lam)


def consistency_budget(lam: float) -> float:
    """Multiple of the advice cost the solver may pay on feasible advice."""
    lam = min(lam, 1.0 - 1e-12)
    return 4.0 * (1.0 + (2.0 + lam) / (1.0 - lam))
