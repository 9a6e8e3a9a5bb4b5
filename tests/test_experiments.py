"""Generators, corruption, drift, ingestion, and the experiment runner."""
import os
import tracemalloc

import numpy as np
import pytest
from numpy.random import SeedSequence

from pdla import instances
from pdla.errors import MalformedDocument, MalformedLine
from pdla.experiments import (ExperimentConfig, corrupt_advice,
                              drift_instance, gen_synthetic,
                              ingest_edge_list, run_experiment, write_csv)
from pdla.metrics import CSV_HEADER


def test_config_validation():
    with pytest.raises(MalformedDocument):
        ExperimentConfig(kind="Nope")
    with pytest.raises(MalformedDocument):
        ExperimentConfig(kind="LambdaSweep", trials=0)
    with pytest.raises(MalformedDocument):
        ExperimentConfig(kind="LambdaSweep", lambdas=(1.5,))
    with pytest.raises(MalformedDocument):
        ExperimentConfig(kind="CorruptionSweep", corruption_rates=(-0.1,))
    with pytest.raises(MalformedDocument):
        ExperimentConfig(kind="GraphSequence", graph_paths=("one",))
    with pytest.raises(MalformedDocument):
        ExperimentConfig.from_doc({"kind": "LambdaSweep", "bogus": 1})
    cfg = ExperimentConfig.from_doc(
        {"kind": "BatchDrift", "n": 10, "lambdas": [0.3], "drift_steps": 2})
    assert cfg.lambdas == (0.3,)


def test_gen_synthetic_shape_and_determinism():
    a = gen_synthetic(6, 42)
    b = gen_synthetic(6, 42)
    assert a.rows == b.rows and np.array_equal(a.c, b.c)
    assert len(a.rows) == 6
    for row in a.rows:
        assert len(row) >= 1
        assert all(v == 1.0 for _, v in row)
    assert np.all(a.c > 0) and np.all(a.c <= 10.0)


@pytest.mark.parametrize("seed", [0, 1, 5, 12])
@pytest.mark.parametrize("n, density", [(30, 0.02), (40, 0.5)])
def test_gen_synthetic_rows_match_the_dense_draw(seed, n, density):
    # The reference draws the whole (n, n) matrix at once, then resamples
    # each zero row in order; the generator draws row by row.
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)) < density
    resampled = 0
    for i in range(n):
        while not A[i].any():
            A[i] = rng.random(n) < density
            resampled += 1
    c = (1.0 - rng.random(n)) * 10.0
    if density < 0.1:
        assert resampled > 0
    inst = gen_synthetic(n, seed, density=density)
    assert inst.rows == [[(int(j), 1.0) for j in np.flatnonzero(a)]
                         for a in A]
    assert np.array_equal(inst.c, c)


def test_gen_synthetic_density_concentration():
    inst = gen_synthetic(100, 7)
    mean = sum(len(r) for r in inst.rows) / (100 * 100)
    assert 0.45 <= mean <= 0.55


def test_corrupt_advice_endpoints():
    x = np.linspace(0.1, 1.0, 10)
    assert np.array_equal(corrupt_advice(x, 0.0, 3), x)
    assert np.array_equal(corrupt_advice(x, 1.0, 3), np.zeros(10))
    with pytest.raises(MalformedDocument):
        corrupt_advice(x, 1.5, 3)


def test_corrupt_advice_rate_concentrates():
    x = np.ones(1000)
    y = corrupt_advice(x, 0.5, 11)
    frac = float(np.mean(y == 0))
    assert 0.45 <= frac <= 0.55
    assert np.array_equal(y, corrupt_advice(x, 0.5, 11))


def test_drift_identity_and_single_flip():
    inst = gen_synthetic(8, 1)
    same = drift_instance(inst, 0, 5)
    assert same.rows == inst.rows and np.array_equal(same.c, inst.c)

    def dense(i):
        A = np.zeros((8, 8))
        for r, row in enumerate(i.rows):
            for j, v in row:
                A[r, j] = v
        return A
    moved = drift_instance(inst, 1, 5)
    dist = int(np.sum(dense(inst) != dense(moved)))
    assert dist in (1, 2)  # 2 when the zero-row repair fired
    again = drift_instance(inst, 1, 5)
    assert moved.rows == again.rows


def test_ingest_edge_list(tmp_path):
    p = tmp_path / "graph.txt"
    p.write_text("# comment\n1 2\n2 3\n2 3\n4 4\n\n3 1\n")
    sys_ = ingest_edge_list(str(p), cost_seed=0)
    # nodes 1,2,3 -> sets 0,1,2; self-loop 4-4 skipped, dup 2-3 dropped
    assert sys_.membership == [[0, 1], [1, 2], [0, 2]]
    assert np.all(sys_.costs > 0)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    with pytest.raises(MalformedLine):
        ingest_edge_list(str(bad))
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(MalformedDocument):
        ingest_edge_list(str(empty))


def test_run_experiment_deterministic_and_sandwiched(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = ExperimentConfig(kind="LambdaSweep", n=12, trials=3,
                           lambdas=(0.0, 1.0), out=str(out))
    rows = run_experiment(cfg)
    text_a = out.read_text()
    run_experiment(cfg)
    assert out.read_text() == text_a
    assert text_a.splitlines()[0] == CSV_HEADER
    assert len(rows) == 6
    keys = [(m.trial, m.step, m.lam) for m in rows]
    assert keys == sorted(keys)
    for m in rows:
        assert m.ratio >= 1.0 - cfg.eps_offline
        assert m.cost_alg > 0 and m.phases >= 1
    assert not list(tmp_path.glob("*.part"))


def test_config_rejects_removed_workers_key():
    with pytest.raises(MalformedDocument, match="workers"):
        ExperimentConfig.from_doc({"kind": "CorruptionSweep", "workers": 2})


def test_graph_sequence_uses_previous_snapshot_hint(tmp_path):
    g1 = tmp_path / "g1.txt"
    g2 = tmp_path / "g2.txt"
    g1.write_text("1 2\n2 3\n")
    g2.write_text("1 2\n2 3\n3 4\n4 1\n")
    cfg = ExperimentConfig(kind="GraphSequence", trials=2,
                           graph_paths=(str(g1), str(g2)))
    rows = run_experiment(cfg)
    assert [(m.trial, m.step) for m in rows] == [(0, 1), (1, 1)]
    for m in rows:
        assert m.ratio >= 1.0 - cfg.eps_offline


def test_write_csv_never_partial(tmp_path, monkeypatch):
    out = tmp_path / "x.csv"

    class Boom:
        def to_row(self):
            raise RuntimeError("mid-write failure")
    with pytest.raises(RuntimeError):
        write_csv(str(out), [Boom()])
    assert not out.exists()
    assert not list(tmp_path.glob("*.part"))


def test_drift_rows_stay_covered():
    inst = gen_synthetic(10, 3)
    drifted = drift_instance(inst, 60, 9)
    assert len(drifted.rows) == 10
    for row in drifted.rows:
        assert len(row) >= 1  # repair keeps every row coverable


def test_corruption_sweep_checks_each_row_once(monkeypatch):
    # The instance's rows are checked when it is built; the offline solve
    # and the five solver runs of a trial take them without a second check.
    calls = []
    for name in ("_checked_arrays", "_checked_entries"):
        check = getattr(instances, name)
        monkeypatch.setattr(instances, name, lambda row, n, check=check:
                            calls.append(len(row)) or check(row, n))
    cfg = ExperimentConfig(kind="CorruptionSweep", trials=2)
    run_experiment(cfg)
    # Rows this long take the array check alone, one call per row.
    assert min(calls) >= instances._MIN_ARRAY_ROW
    assert len(calls) == cfg.n * cfg.trials


def test_instance_rows_are_compact():
    # About 100,000 entries: 16 bytes each as a Row's two arrays, against
    # about 90 as (int, float) tuples in a list.
    tracemalloc.start()
    try:
        inst = gen_synthetic(1000, SeedSequence([1, 0]), density=0.1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, inst.rows)) > 90_000
    assert held < 4_000_000
