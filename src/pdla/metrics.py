"""Run metrics and the ratio bounds the solvers are audited against.

The robustness and consistency bounds are the paper's competitive ratios
with explicit constants: the acceptance suite's criteria 2 and 3 take their
ceilings from these two functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass
class RunMetrics:
    """One experiment row; its fields in order are the CSV columns."""
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
        return [f"{v:.10g}" if isinstance(v, float) else str(v)
                for v in vars(self).values()]


CSV_HEADER = ",".join("lambda" if f.name == "lam" else f.name
                      for f in fields(RunMetrics))


def robustness_budget(kappa: float, n: int, lam: float) -> float:
    """Multiple of OPT the solver may pay regardless of advice quality."""
    lam = max(lam, 1e-12)
    return 12.0 * math.log(1.0 + 2.0 * max(kappa, 1.0) * n / lam)


def consistency_budget(lam: float) -> float:
    """Multiple of the advice cost the solver may pay on feasible advice."""
    lam = min(lam, 1.0 - 1e-12)
    return 4.0 * (1.0 + (2.0 + lam) / (1.0 - lam))
