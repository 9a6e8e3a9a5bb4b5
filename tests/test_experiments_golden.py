"""Byte pins for the experiment harness: SHA-256 of the CSV of one small run
of each experiment kind.

`experiments_golden.json` was recorded at commit ceef433, before experiment
trials checked each instance's rows once for all of their solver runs, by
running this module as a script
(`PYTHONPATH=src python tests/test_experiments_golden.py`). Re-record only
for a change that is meant to alter experiment outputs.
It was re-recorded on top of commit 20202fc, when the event search became
one Newton search in the dimensionless exponent with a relative stopping
rule: in all 34 CSV rows every violations, iterations and phases value
stayed the same, and the other numbers moved by at most 1.7e-8 relative (a
CorruptionSweep dual_scale); GraphSequence's bytes did not change.
"""
import hashlib
import json
import os
import tempfile

import pytest
from numpy.random import default_rng

from pdla import experiments
from pdla.experiments import ExperimentConfig, run_experiment

EXPECTED = os.path.join(os.path.dirname(__file__), "experiments_golden.json")


def _write_graphs(directory) -> tuple[str, ...]:
    """Three growing random graphs on 24 vertices as edge-list files."""
    rng = default_rng(5)
    edges: list[tuple[int, int]] = []
    paths = []
    for k, count in enumerate((20, 35, 50)):
        while len(edges) < count:
            u, v = (int(t) for t in rng.integers(0, 24, size=2))
            if u != v and (u, v) not in edges and (v, u) not in edges:
                edges.append((u, v))
        path = os.path.join(directory, f"g{k}.txt")
        with open(path, "w") as fh:
            fh.writelines(f"{u} {v}\n" for u, v in edges)
        paths.append(path)
    return tuple(paths)


def _configs(directory) -> dict[str, dict]:
    return {
        "LambdaSweep": {"n": 30, "trials": 3, "seed": 4,
                        "lambdas": [0.0, 0.3, 1.0]},
        "CorruptionSweep": {"n": 30, "trials": 3, "seed": 5},
        "BatchDrift": {"n": 25, "trials": 2, "seed": 6, "drift_steps": 3,
                       "density": 0.3},
        "GraphSequence": {"trials": 2, "seed": 7, "full": True,
                          "graph_paths": list(_write_graphs(directory))},
    }


def csv_digests(directory) -> dict[str, str]:
    """Run every config, writing its CSV into `directory`; kind -> digest."""
    out = {}
    for kind, doc in _configs(directory).items():
        path = os.path.join(directory, f"{kind}.csv")
        run_experiment(ExperimentConfig.from_doc(
            {"kind": kind, "out": path, **doc}))
        with open(path, "rb") as fh:
            out[kind] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_csv_bytes_match_recorded_runs(tmp_path):
    with open(EXPECTED) as fh:
        want = json.load(fh)
    assert csv_digests(str(tmp_path)) == want


@pytest.mark.parametrize("kind", ["BatchDrift", "GraphSequence"])
def test_each_instance_is_solved_offline_once(tmp_path, monkeypatch, kind):
    # BatchDrift: 2 trials of 3 instances (the base and two drifts).
    # GraphSequence: 2 trials of 3 snapshots, each the hint of the next.
    solved = []
    real = experiments.offline_solve

    def counted(inst, eps):
        solved.append(inst)
        return real(inst, eps)

    monkeypatch.setattr(experiments, "offline_solve", counted)
    run_experiment(ExperimentConfig.from_doc(
        {"kind": kind, **_configs(str(tmp_path))[kind]}))
    assert len(solved) == 6
    assert len({id(inst) for inst in solved}) == 6


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = csv_digests(tmp)
    with open(EXPECTED, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
