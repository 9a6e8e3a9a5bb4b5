#!/usr/bin/env python3
"""Benchmark of the pdla online covering solvers.

    python3 perfbench/run.py --workload lp_stream --seed 1 --seconds 10 --trace 0

Runs one workload (lp_stream, corruption_grid, sdp_stream, gst_tree) in a
closed loop with one caller, from the package sources in ``src/`` next to
this directory. The loop makes whole passes over the workload's seeded
cases until ``--seconds`` have passed; the outputs are checked afterwards.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics instead: it times untraced passes for half the time and
traced passes for the other half, and repeats one sdp_stream case at the
default BLAS thread count. Either way the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it holds the environment stamp and the details behind the metrics.
See perfbench/README.md for every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3       # fresh processes timed for setup_s; the median is reported
SETUP_SAMPLES = 5      # host-speed samples right before and after each of them
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["lp_stream", "corruption_grid", "sdp_stream",
                            "gst_tree"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Internal: child processes started by the benchmark itself.
    p.add_argument("--probe", choices=["setup", "eig"], help=argparse.SUPPRESS)
    p.add_argument("--blas", choices=["1", "default"], default="1",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def child(args, *extra):
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed), *extra]


def child_env(blas):
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas == "1":
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


# ------------------------------------------------------------ environment

def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args):
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "git_commit": git_commit()}


# --------------------------------------------------------------- running

def run_case(wl, case, rec):
    """One case; it stops at its first raising op, which counts as failed."""
    try:
        return wl.run_case(case, rec)
    except Exception:  # recorded; the other cases still run
        rec.errors.append(traceback.format_exc(limit=4))
        return None


def measure(wl, cases, seconds, rec):
    """Whole passes over the cases until `seconds` have elapsed, so that
    every op of the pool is timed equally often however fast the host runs.
    Returns the results of each case's runs and the elapsed wall seconds."""
    results = [[] for _ in cases]
    rec.begin()
    start = time.perf_counter()
    while True:
        rec.start_pass()
        for i, case in enumerate(cases):
            results[i].append(run_case(wl, case, rec))
        rec.end_pass()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            rec.finish()
            return results, elapsed


def evaluate(wl, cases, results):
    """Output checks after timing, case by case, with the quality samples
    and the pool's counts."""
    checked = [wl.check(case, runs) for case, runs in zip(cases, results)]
    counts = {}
    for c in checked:
        for key, value in c.counts.items():
            counts[key] = counts.get(key, 0) + value
    return {"bad_outputs": sum(c.bad for c in checked), "counts": counts,
            "cost_ratios": [r for c in checked for r in c.cost_ratios],
            "certified": [r for c in checked for r in c.certified]}


def latency(wl, lat_ms):
    """Median and tail of per-op latencies, at the workload's percentile."""
    import numpy as np
    tail = float(np.percentile(lat_ms, wl.tail))
    beyond = sum(v > tail for v in lat_ms)
    return statistics.median(lat_ms), tail, {
        "tail_percentile": f"p{wl.tail}", "latency_samples": len(lat_ms),
        "samples_beyond_tail": beyond}


def setup_seconds(args):
    """Seconds from starting a fresh process to its cases being ready. The
    child takes host-speed samples while it sets up and reports them with
    the time it was ready; perf_counter is the system's monotonic clock, so
    its times and the parent's compare. Together with samples the parent
    takes right before and right after, they scale the interval. Returns
    the median over SETUP_PROBES processes, and the scaled and wall times."""
    from hostspeed import HostSpeed
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        host = HostSpeed()
        for _ in range(SETUP_SAMPLES):
            host.sample()
        start = time.perf_counter_ns()
        with subprocess.Popen(child(args, "--probe", "setup"),
                              stdout=subprocess.PIPE, text=True,
                              env=child_env("1")) as proc:
            line = proc.stdout.readline()
            proc.stdout.read()
            if proc.wait(timeout=PROBE_TIMEOUT_S) != 0 or not line.strip():
                raise RuntimeError("set-up probe failed")
        ready = json.loads(line)
        host.samples.extend(map(tuple, ready["samples"]))
        for _ in range(SETUP_SAMPLES):
            host.sample()
        wall.append((ready["ready_ns"] - start) / 1e9)
        scaled.append(float(host.scaled([start], [ready["ready_ns"]])[0]) / 1e9)
    return statistics.median(scaled), scaled, wall


def eig_probe(args, blas):
    """symmetric.min_eigpair calls and self time on one sdp_stream case."""
    res = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         "sdp_stream", "--seed", str(args.seed), "--probe", "eig",
         "--blas", blas], capture_output=True, text=True, env=child_env(blas),
        timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def gated(args, wl, workdir, detail):
    setup_s, samples, wall_samples = setup_seconds(args)
    import workloads
    t = time.perf_counter()
    cases = wl.prepare(args.seed, workdir)
    detail["prepare_s"] = time.perf_counter() - t
    detail["setup_samples_s"] = samples
    detail["setup_wall_s"] = wall_samples
    rec = workloads.Recorder()
    results, elapsed = measure(wl, cases, args.seconds, rec)
    verdict = evaluate(wl, cases, results)
    p50, tail, lat = latency(wl, rec.latencies_ms())
    wall_p50, wall_tail, _ = latency(wl, rec.latencies_ms(scaled=False))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    detail.update(lat, cases=len(cases), case_runs=sum(map(len, results)),
                  timed_s=elapsed, unsplit_batches=rec.unsplit,
                  host_samples=len(rec.host.samples),
                  host_kernel_us=rec.host.median_ns() / 1e3,
                  wall={"ops_per_s": rec.completed / elapsed,
                        "op_p50_ms": wall_p50, "op_tail_ms": wall_tail})
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (rec.completed / rec.elapsed_s(), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "cost_ratio_p50": (statistics.median(verdict["cost_ratios"]), "ratio"),
        "certified_ratio_p50": (statistics.median(verdict["certified"]),
                                "ratio"),
    }
    return [rec], verdict, metrics


def per_layer(args, wl, workdir, detail):
    import spans
    import workloads
    tracer = spans.Tracer()
    with spans.installed(tracer):
        cases = wl.prepare(args.seed, workdir)
    plain = workloads.Recorder()
    plain_results, _ = measure(wl, cases, args.seconds / 2, plain)
    rec = workloads.Recorder(tracer)
    with spans.installed(tracer):
        results, _ = measure(wl, cases, args.seconds / 2, rec)
    verdict = evaluate(wl, cases, [a + b for a, b in zip(plain_results, results)])
    tracer.write_csv(OUT / f"spans-{args.workload}-seed{args.seed}.csv")

    per_pass = [tracer.summary(ops) for ops in rec.pass_ops]
    calls_repeat = all(calls == per_pass[0][0] for calls, _ in per_pass)
    n = len(per_pass)
    calls = per_pass[0][0]
    self_s = {k: sum(s.get(k, 0.0) for _, s in per_pass) / n
              for k in set().union(*(s for _, s in per_pass))}
    layer_s = sum(v for k, v in self_s.items() if k != spans.OP)
    op_total = sum(end - start for name, start, end, _, op in tracer.spans
                   if name == spans.OP) / 1e9 / n
    attributed = abs(layer_s + self_s.get(spans.OP, 0.0) - op_total) \
        <= 1e-6 * max(op_total, 1e-9)
    setup_calls, setup_self = tracer.summary({spans.SETUP})

    c = verdict["counts"]
    one = eig_probe(args, "1")
    default = eig_probe(args, "default")
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    rows = c.get("rows", 0)
    metrics.update({
        "op.count": (calls.get(spans.OP, 0), "count"),
        "op.total_s": (op_total, "s"),
        "op.unattributed_s": (self_s.get(spans.OP, 0.0), "s"),
        "covering_lp.iterations_per_row": (
            c.get("iterations", 0) / rows if rows else 0.0, "ratio"),
        "covering_lp.violated_frac": (
            c.get("violations", 0) / rows if rows else 0.0, "ratio"),
        "covering_lp.phases": (c.get("phases", 0), "count"),
        "covering_lp_box.tight_added": (c.get("tight_added", 0), "count"),
        "covering_sdp.iterations": (c.get("sdp_iterations", 0), "count"),
        "covering_sdp.eig_per_iteration": (
            calls.get("symmetric.min_eigpair", 0) / c["sdp_iterations"]
            if c.get("sdp_iterations") else 0.0, "ratio"),
        "applications.oracle_hit_frac": (
            rows / c["oracle_calls"] if c.get("oracle_calls") else 0.0,
            "ratio"),
        "setup.baselines.offline_solve.self_s": (
            setup_self.get("baselines.offline_solve", 0.0), "s"),
        "setup.experiments.gen_synthetic.self_s": (
            setup_self.get("experiments.gen_synthetic", 0.0), "s"),
        "trace.ops_per_s": (rec.completed / rec.elapsed_s(), "1/s"),
        "trace.untraced_ops_per_s": (plain.completed / plain.elapsed_s(),
                                     "1/s"),
        "trace.overhead_ops_per_s": (rec.completed / rec.elapsed_s()
                                     - plain.completed / plain.elapsed_s(),
                                     "1/s"),
        "sdp_blas1.min_eigpair.self_s": (one["self_s"], "s"),
        "sdp_blas_default.min_eigpair.self_s": (default["self_s"], "s"),
        "sdp_blas_default.threads": (default["threads"], "count"),
    })
    verdict["calls_repeat"] = calls_repeat
    verdict["attributed"] = attributed
    detail.update(traced_passes=n, untraced_passes=len(plain.pass_ops),
                  spans=len(tracer.spans),
                  setup_calls=dict(setup_calls),
                  eig_probe={"blas1": one, "default": default})
    return [plain, rec], verdict, metrics


def probe(args, wl, workdir, host):
    """Child process modes: set-up readiness and the eigen repeat."""
    from pdla import baselines, experiments
    from hostspeed import sampling_before
    with sampling_before(host, experiments, "gen_synthetic"), \
            sampling_before(host, baselines, "offline_solve"):
        cases = wl.prepare(args.seed, workdir)
    if args.probe == "setup":
        host.sample()
        print(json.dumps({"ready_ns": time.perf_counter_ns(),
                          "samples": host.samples}), flush=True)
        return 0
    import spans
    import workloads
    tracer = spans.Tracer()
    with spans.installed(tracer, only={"symmetric.min_eigpair"}):
        wl.run_case(cases[0], workloads.Recorder())
    calls, self_s = tracer.summary({spans.SETUP})
    print(json.dumps({"calls": calls["symmetric.min_eigpair"],
                      "self_s": self_s["symmetric.min_eigpair"],
                      "threads": blas_threads()}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS before numpy is first imported: one process, one core.
    os.environ.pop("OPENBLAS_NUM_THREADS", None)
    if args.blas == "1":
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    from hostspeed import HostSpeed, kernel
    # A set-up probe's samples, from numpy's import on. The kernel's first
    # run in a fresh process, and its first after the imports, run cold at
    # 2-4x its usual time, so each of these samples follows an untimed run.
    host = HostSpeed()
    kernel()
    host.sample()
    try:
        import pdla
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import pdla from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(pdla.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: pdla was imported from {pdla.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    kernel()
    host.sample()
    wl = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.probe:
            return probe(args, wl, str(workdir), host)
        detail = stamp(args)
        run = per_layer if args.trace else gated
        recs, verdict, metrics = run(args, wl, str(workdir), detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in recs)
    raised = sum(r.attempted - r.completed for r in recs)
    errors = [e for r in recs for e in r.errors]
    failed = raised + verdict["bad_outputs"]
    correct = (failed == 0 and verdict.get("calls_repeat", True)
               and verdict.get("attributed", True))
    verdict["cost_ratios"] = len(verdict["cost_ratios"])
    verdict["certified"] = len(verdict["certified"])
    detail.update(verdict, attempted=attempted, raised=raised,
                  fail_frac=failed / max(attempted, 1), errors=errors[:3])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
