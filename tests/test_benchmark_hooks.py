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


def test_traced_experiment_runs_count_every_row(monkeypatch):
    # Experiment solver runs go through experiments.process_row, so the
    # traced benchmark attributes their rows to covering_lp.process_row.
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    cfg = experiments.ExperimentConfig(kind="CorruptionSweep", n=20, trials=1)
    with spans.installed(spans.Tracer(),
                         only={"covering_lp.process_row"}) as tracer:
        experiments.run_experiment(cfg)
    calls, _ = tracer.summary({spans.SETUP})
    assert calls["covering_lp.process_row"] == \
        cfg.n * len(cfg.corruption_rates)
