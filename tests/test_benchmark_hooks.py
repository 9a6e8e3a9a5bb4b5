"""The traced benchmark (perfbench/) rebinds module attributes of pdla.

perfbench/spans.py names each function where the solvers look it up, so a
refactor that moves or drops one of those names breaks `run.py --trace 1`
even when every solver test passes. This test installs the bindings the
way the traced run does.
"""
import ast
import glob
import os

from pdla import covering_lp, covering_sdp, experiments, growth

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
KEEP_ALIVE = "kept because the traced benchmark rebinds"


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


def test_every_keep_alive_import_is_a_benchmark_binding(monkeypatch):
    # An import kept only for the traced benchmark must name a binding
    # spans.py installs; once the benchmark binds each layer where it is
    # defined, the stale keep-alives fail here instead of lingering.
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    bound = {(module, name) for module, name, _ in spans.BINDINGS}
    kept = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "pdla", "*.py"))):
        with open(path) as fh:
            text = fh.read()
        marks = {k + 2 for k, line in enumerate(text.splitlines())
                 if KEEP_ALIVE in line}
        found = {node.lineno: node for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.ImportFrom)}
        module = "pdla." + os.path.basename(path)[:-3]
        for lineno in marks:
            assert lineno in found, f"{path}:{lineno} is not an import"
            kept += [(module, alias.asname or alias.name)
                     for alias in found[lineno].names]
    assert kept
    assert [pair for pair in kept if pair not in bound] == []


def test_traced_experiment_runs_count_every_row(monkeypatch):
    # Experiment runs feed their rows through covering_lp.run_lp, a loop
    # over covering_lp.process_row, so the traced benchmark counts every
    # row of every run there exactly once, whether it holds or grows.
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    runs = []
    real_run = experiments.run_lp

    def counted(inst, advice):
        before = len(tracer.spans)
        out = real_run(inst, advice)
        runs.append((inst, len(tracer.spans) - before))
        return out

    monkeypatch.setattr(experiments, "run_lp", counted)
    cfg = experiments.ExperimentConfig(kind="CorruptionSweep", n=20, trials=1)
    with spans.installed(spans.Tracer(),
                         only={"covering_lp.process_row"}) as tracer:
        experiments.run_experiment(cfg)
    calls, _ = tracer.summary({spans.SETUP})
    assert len(runs) == len(cfg.corruption_rates)
    assert [traced for _, traced in runs] == [len(inst.rows)
                                              for inst, _ in runs]
    assert calls["covering_lp.process_row"] == cfg.n * len(runs)


def test_sdp_rounds_reach_the_eigen_layer_through_covering_sdp(monkeypatch,
                                                              tmp_path):
    # The benchmark's host sampling and its traced eig probe see the eigen
    # layer through covering_sdp's globals: one is_psd per round (the
    # monotone check) and one min_eigpair per separation test that its
    # Cholesky proof cannot settle. On this stream that is one per growth
    # step: a round that holds on arrival makes none.
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    import workloads

    inst = workloads.SdpStream().prepare(1, tmp_path)[0]
    with spans.installed(spans.Tracer(), only={"symmetric.is_psd",
                                               "symmetric.min_eigpair"}) \
            as tracer:
        covering_sdp.run_sdp(inst)
    traced, _ = tracer.summary({spans.SETUP})

    counts = {"is_psd": 0, "min_eigpair": 0}
    for name in counts:
        def counted(*args, _real=getattr(covering_sdp, name), _name=name,
                    **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(covering_sdp, name, counted)
    st = covering_sdp.new_sdp_solver(inst)
    per_round = []
    for B in inst.B_stream:
        before = dict(counts)
        rep = covering_sdp.process_matrix(st, B)
        per_round.append((counts["is_psd"] - before["is_psd"],
                          counts["min_eigpair"] - before["min_eigpair"],
                          rep.iterations))
    assert all(psd == 1 for psd, _, _ in per_round)
    assert all(eig == iters for _, eig, iters in per_round)
    assert sum(iters for _, _, iters in per_round) > 0
    assert any(iters == 0 for _, _, iters in per_round)
    assert traced["symmetric.is_psd"] == counts["is_psd"]
    assert traced["symmetric.min_eigpair"] == counts["min_eigpair"]
