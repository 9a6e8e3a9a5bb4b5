"""Metric rows and ratio budgets."""
import math

import pytest

from pdla.metrics import (CSV_HEADER, RunMetrics, consistency_budget,
                          robustness_budget)


def test_run_metrics_row_matches_header():
    m = RunMetrics(lam=0.5, trial=3, step=1, cost_alg=2.0, cost_advice=1.5,
                   cost_offline=1.0, ratio=2.0, violations=4, iterations=9,
                   phases=2, dual_scale=1.25)
    row = m.to_row()
    assert len(row) == len(CSV_HEADER.split(","))
    assert row[0] == "0.5" and row[1] == "3" and row[7] == "4"


def test_ratio_budgets():
    assert consistency_budget(0.1) == pytest.approx(4.0 * (1 + 2.1 / 0.9))
    assert robustness_budget(1.0, 2, 1.0) == pytest.approx(12 * math.log(5.0))
    assert consistency_budget(1.0) > consistency_budget(0.5)
    assert robustness_budget(10.0, 5, 0.1) > robustness_budget(1.0, 5, 0.1)
