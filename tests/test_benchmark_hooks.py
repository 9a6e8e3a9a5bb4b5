"""The traced benchmark (perfbench/) rebinds module attributes of pdla.

perfbench/spans.py names each function where the solvers look it up, so a
refactor that moves or drops one of those names breaks `run.py --trace 1`
even when every solver test passes. This test installs the bindings the
way the traced run does.
"""
import os

from pdla import covering_lp, covering_sdp, experiments, growth

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_benchmark_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    import workloads  # noqa: F401  (its module-level hooks must import)

    with spans.installed(spans.Tracer()):
        for module, name in ((covering_sdp, "min_eigpair"),
                             (covering_sdp, "is_psd"),
                             (experiments, "validate_advice")):
            assert callable(getattr(module, name))
        # The shared growth step is reached through covering_lp's globals.
        assert covering_lp.find_stop is not growth.find_stop
    assert covering_lp.find_stop is growth.find_stop


def test_traced_experiment_runs_count_the_rows_that_grow(monkeypatch):
    # Experiment runs feed their rows through covering_lp.run_rows, which
    # books the rows that hold on arrival in blocks. Only the first row of
    # a run and the rows that grow the point or restart the phase reach
    # covering_lp.process_row, where the traced benchmark counts them.
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    runs = []
    real_run = experiments._run_instance

    def counted(inst, advice):
        before = len(tracer.spans)
        out = real_run(inst, advice)
        runs.append((inst, advice, len(tracer.spans) - before))
        return out

    monkeypatch.setattr(experiments, "_run_instance", counted)
    cfg = experiments.ExperimentConfig(kind="CorruptionSweep", n=20, trials=1)
    with spans.installed(spans.Tracer(),
                         only={"covering_lp.process_row"}) as tracer:
        experiments.run_experiment(cfg)
    calls, _ = tracer.summary({spans.SETUP})
    assert len(runs) == len(cfg.corruption_rates)
    assert calls["covering_lp.process_row"] == sum(r[2] for r in runs)
    assert calls["covering_lp.process_row"] < cfg.n * len(runs)
    for inst, advice, traced in runs:
        st = covering_lp.new_lp_solver(inst.n, inst.c, advice=advice)
        reports = [covering_lp.process_row(st, row) for row in inst.rows]
        assert traced == 1 + sum(r.iterations > 0 or r.phases_entered > 0
                                 for r in reports[1:])
