"""Seeded equivalence pins for all four solver variants.

`equivalence_expected.json` was recorded at commit 12c0f38, before the LP
and SDP solvers were moved onto one shared growth step, by running this
module as a script (`PYTHONPATH=src python tests/test_equivalence.py`).
Its `sdp/*` entries were re-recorded when SDP separation moved from a Jacobi
eigensolver (off-diagonal target 1e-10) to LAPACK's least-eigenpair driver;
that moved the recorded floats by at most 2.3e-11 relative, with counts and
events unchanged, and left the `lp/*` entries byte-identical.
Counts and event sequences must match exactly; costs, published points,
dual objectives and dual scales to a relative 1e-12. Re-record only for a
change that is meant to alter solver outputs.
"""
import json
import os

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from pdla import covering_lp, covering_sdp
from pdla.baselines import offline_solve
from pdla.experiments import corrupt_advice, gen_synthetic
from pdla.instances import (SolverParams, make_lp_instance, make_sdp_instance,
                            validate_advice)

EXPECTED = os.path.join(os.path.dirname(__file__), "equivalence_expected.json")
LP_SEEDS = (3, 4)
LP_LAMS = (None, 0.0, 0.3, 1.0)      # None runs without advice
SDP_SEEDS = (5, 6)
SDP_LAMS = (None, 0.0, 0.5)
REL = 1e-12


def _sdp_instance(seed, boxed):
    """n = 6, d = 5, rank-2 A_j = U U', six monotone targets."""
    n, d, m = 6, 5, 6
    rng = default_rng(SeedSequence([seed, 77]))
    A = []
    for _ in range(n):
        U = rng.standard_normal((d, 2))
        A.append(U @ U.T)
    B, cur = [], np.zeros((d, d))
    for _ in range(m):
        G = rng.standard_normal((d, 3))
        cur = cur + G @ G.T / (3.0 * m)
        B.append(cur.copy())
    c = rng.uniform(0.1, 1.0, n)
    x_prime = rng.uniform(0.0, 1.0, n)
    x_prime[int(rng.integers(n))] = 0.0   # one corrupted coordinate
    return make_sdp_instance(n, d, c, A, B, boxed=boxed), x_prime


def _summary(state, cert, x):
    return {
        "iterations": state.iterations,
        "violations": state.violations_seen,
        "phases": len(state.alpha_history),
        "events": "".join(e["event"][0] for e in state.trace),
        "cost": float(state.c @ x),
        "x_best": [float(v) for v in x],
        "dual_objective": float(cert.objective),
        "dual_scale": float(cert.scale),
    }


def run_cases():
    out = {}
    for seed in LP_SEEDS:
        plain = gen_synthetic(40, seed, density=0.2)
        off = offline_solve(plain)
        xp = np.minimum(corrupt_advice(off.x, 0.4, seed), 1.0)
        for boxed in (False, True):
            inst = make_lp_instance(plain.n, plain.c, plain.rows, boxed=boxed)
            for lam in LP_LAMS:
                adv = None if lam is None else validate_advice(
                    xp, lam, inst.n, boxed=boxed)
                st = covering_lp.new_lp_solver(
                    inst.n, inst.c, advice=adv,
                    params=SolverParams(trace=True), boxed=boxed)
                for row in inst.rows:
                    covering_lp.process_row(st, row)
                out[f"lp/{seed}/{'box' if boxed else 'plain'}/{lam}"] = \
                    _summary(st, covering_lp.dual_certificate(st),
                             covering_lp.current_solution(st))
    for seed in SDP_SEEDS:
        for boxed in (False, True):
            inst, xp = _sdp_instance(seed, boxed)
            for lam in SDP_LAMS:
                adv = None if lam is None else validate_advice(
                    xp, lam, inst.n, boxed=boxed)
                st, _ = covering_sdp.run_sdp(
                    inst, advice=adv, params=SolverParams(trace=True))
                out[f"sdp/{seed}/{'box' if boxed else 'plain'}/{lam}"] = \
                    _summary(st, covering_sdp.dual_certificate(st),
                             covering_sdp.current_solution(st))
    return out


def _expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def test_matches_recorded_run():
    want_all, got_all = _expected(), run_cases()
    assert sorted(got_all) == sorted(want_all)
    for key, want in want_all.items():
        got = got_all[key]
        for field in ("iterations", "violations", "phases", "events"):
            assert got[field] == want[field], (key, field)
        for field in ("cost", "dual_objective", "dual_scale"):
            assert got[field] == pytest.approx(want[field], rel=REL, abs=0.0), \
                (key, field)
        np.testing.assert_allclose(got["x_best"], want["x_best"], rtol=REL,
                                   atol=0, err_msg=key)
    kinds = {(k.split("/")[0], k.split("/")[2]) for k in want_all
             if not k.endswith("/None")}
    assert kinds == {("lp", "plain"), ("lp", "box"),
                     ("sdp", "plain"), ("sdp", "box")}


if __name__ == "__main__":
    with open(EXPECTED, "w") as fh:
        json.dump(run_cases(), fh, indent=1, sort_keys=True)
        fh.write("\n")
