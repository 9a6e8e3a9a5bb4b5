#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads lp_stream gst_tree --seeds 1-10 \
        [--seconds 10] [--trace 0] [--out perfbench/out/summary.json]

Runs are sequential, one process at a time. For every workload and metric
it reports the median, the first and third quartiles (statistics.quantiles
with n=4) and the spread, (q3 - q1) / median, next to the metric's bound
from BENCHMARK.json; --out also keeps the same summary of the wall-clock
figures behind the host-scaled times.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {res.returncode}\n"
                           f"{res.stderr[-2000:]}")
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def wall_figures(detail):
    """The wall-clock figures of a gated run's detail line, which sit next
    to its host-scaled metrics, and the host kernel's median time."""
    if "wall" not in detail:   # traced runs
        return {}
    return {**detail["wall"],
            "setup_s": statistics.median(detail["setup_wall_s"]),
            "host_kernel_us": detail["host_kernel_us"]}


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        results, details = [], []
        for seed in args.seeds:
            detail, result = run(workload, seed, seconds, args.trace)
            results.append(result)
            details.append(detail)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"case runs={detail.get('case_runs', detail.get('traced_passes'))}",
                  file=sys.stderr, flush=True)
        names = results[0]["metrics"]
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {name: {**summarise([r["metrics"][name]["value"]
                                            for r in results]),
                               "unit": names[name]["unit"],
                               "bound": bounds.get(name)}
                        for name in names},
            "wall": {name: summarise([wall_figures(d)[name]
                                      for d in details])
                     for name in wall_figures(details[0])}}
        for name, s in summary[workload]["metrics"].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:16s} {name:40s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread} "
                  f"bound {s['bound']}", flush=True)
    stamp = {k: detail[k] for k in ("python", "numpy", "scipy", "blas",
                                     "blas_threads", "OPENBLAS_NUM_THREADS",
                                     "nproc", "git_commit")}
    doc = {"seeds": args.seeds, "seconds": seconds, "trace": args.trace,
           "stamp": stamp, "workloads": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
