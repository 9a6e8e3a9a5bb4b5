"""The four benchmark workloads and the checks on their outputs.

A workload is a pool of distinct cases (instances) built from the seed
alone; the solvers see only the generated inputs. The timed loop makes
whole passes over the pool op by op, in a closed loop with one caller: an
online solver answers a constraint before it sees the next one. Calls go through
module attributes (``covering_lp.process_row``, not a local name) so that
the traced run's rebinding reaches them. Work between ops that is not part
of an op, such as reading the dual certificate for the certified gauge,
stays out of the op's latency.

Each workload class provides:
    prepare(seed, workdir) -> cases        generation and advice (set-up)
    ops_in(case) -> int                    ops one case makes
    run_case(case, rec) -> result          the timed ops, one rec.op each
    counts(case, result) -> dict of ints   deterministic per-case counts
    check(case, results) -> Checked        output checks and quality, after timing
    tail                                   latency percentile of op_tail_ms
"""
from __future__ import annotations

import csv
import dataclasses
import io
import math
import os
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np
from numpy.random import SeedSequence, default_rng

from hostspeed import HostSpeed, sampling_before
from spans import OP, SETUP
from pdla import (applications, baselines, covering_lp, covering_lp_box,
                  covering_sdp, experiments, instances, metrics)

TOL = instances.SolverParams()


class Recorder:
    """Times ops and counts what was attempted and what completed.

    Between ops it takes the host-speed samples of hostspeed.py, so that its
    latencies and elapsed time can be scaled to a nominal host speed. A batch
    op can be split into its ops at marks taken inside it (see op)."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.host = HostSpeed()
        self.calls: list[tuple[int, int, int]] = []   # (start ns, end ns, ops)
        self.attempted = 0
        self.completed = 0
        self.unsplit = 0          # batch ops whose marks did not match their ops
        self.errors: list[str] = []
        self.pass_ops: list[range] = []   # op ids of each pass (traced runs)
        self._next_op = 0

    def begin(self) -> None:
        self.host.sample()

    def finish(self) -> None:
        self.host.sample()

    def start_pass(self) -> None:
        self.pass_ops.append(range(self._next_op, self._next_op))

    def end_pass(self) -> None:
        self.pass_ops[-1] = range(self.pass_ops[-1].start, self._next_op)

    def op(self, fn, *args, ops: int = 1, marks=None):
        """Run one op (or a batch of `ops` ops) and record its latency.

        `marks`, filled while the batch runs, holds the time each of its ops
        starts. Without a mark per op the batch counts once, at its ops'
        mean latency."""
        self.attempted += ops
        self.host.between_ops()
        tracer = self.tracer
        start = perf_counter_ns()
        if tracer is None:
            out = fn(*args)
        else:
            tracer.op_id = self._next_op
            self._next_op += 1
            try:
                out = tracer.call(OP, fn, args, {})
            finally:
                tracer.op_id = SETUP
        end = perf_counter_ns()
        if marks is not None and len(marks) == ops and ops > 1:
            bounds = [start] + marks[1:] + [end]
            self.calls.extend((a, b, 1) for a, b in zip(bounds, bounds[1:]))
        else:
            self.unsplit += ops > 1
            self.calls.append((start, end, ops))
        self.completed += ops
        return out

    def latencies_ms(self, scaled=True) -> list[float]:
        """Per-op latency of every recorded call, host-scaled (less the host
        samples inside it) or wall; a batch call counts once, at its ops'
        mean latency."""
        starts, ends, ops = (np.array(v, dtype=float) for v in zip(*self.calls))
        took = self.host.scaled(starts, ends) if scaled else ends - starts
        return (took / ops / 1e6).tolist()

    def elapsed_s(self) -> float:
        """Host-scaled seconds of the timed region, less the host samples."""
        return self.host.scaled_region() / 1e9


def same_x(a, b) -> bool:
    return a is not None and b is not None and np.array_equal(a, b)


@dataclasses.dataclass
class Checked:
    bad: int                 # ops, over all timed runs of a case, failing a check
    cost_ratios: list        # online cost over an offline optimum or lower bound
    certified: list          # the certified ratio after every op of one run
    counts: dict             # the case's deterministic counts


class Gauge:
    """Certified competitive ratio of a stream, op by op.

    objective / scale of the solver's dual_certificate is the value of a
    feasible dual for the constraints seen so far, so it bounds their
    optimum from below, and so does every earlier such value. The gauge
    after an op is the published cost over the best of these bounds.
    """

    def __init__(self):
        self.best = 0.0
        self.values: list[float] = []

    def after_op(self, cost: float, cert) -> None:
        if cert.scale > 0:
            self.best = max(self.best, cert.objective / cert.scale)
        self.values.append(cost / self.best if self.best > 0 else math.inf)


class Workload:
    """Checks shared by the workloads whose result carries a final x.

    reference(case, runs) gives a reference result for the case, the ops
    it got wrong and the case's cost ratios. A timed run whose final x or
    counts differ from the reference fails all its ops; one that matches
    fails the ops the reference got wrong.
    """

    def check(self, case, results):
        runs = [r for r in results if r is not None]
        found = self.reference(case, runs)
        if found is None:
            return Checked(0, [], [], {})
        ref, bad, cost_ratios = found
        want = self.counts(case, ref)
        failed = sum(bad if same_x(r["x"], ref["x"])
                     and self.counts(case, r) == want else self.ops_in(case)
                     for r in runs)
        return Checked(failed, cost_ratios, ref["gauge"], want)


# ------------------------------------------------------------------ lp_stream

LP_N, LP_DENSITY, LP_LAMBDA, LP_PAIRS = 1000, 0.1, 0.1, 5


@dataclasses.dataclass
class LpCase:
    inst: instances.CoveringLpInstance
    advice: instances.AdviceVector
    opt: float                        # offline_solve objective


class LpStream(Workload):
    """Synthetic {0,1} rows (about 100 entries each) with HiGHS advice at
    lambda 0.1. Cases alternate plain and boxed copies of the same rows; the
    boxed copy runs through covering_lp_box. Good advice keeps most rows
    satisfied on arrival, so row time is mostly ingestion and growth shows
    in the tail."""

    tail = 99

    def prepare(self, seed, workdir):
        cases = []
        for k in range(LP_PAIRS):
            plain = experiments.gen_synthetic(LP_N, SeedSequence([seed, k]),
                                              density=LP_DENSITY)
            for inst in (plain, dataclasses.replace(plain, boxed=True)):
                off = baselines.offline_solve(inst)
                advice = instances.validate_advice(off.x, LP_LAMBDA, inst.n,
                                                   boxed=inst.boxed)
                cases.append(LpCase(inst, advice, off.objective))
        return cases

    def ops_in(self, case):
        return len(case.inst.rows)

    @staticmethod
    def _solver(case):
        inst = case.inst
        if inst.boxed:
            return (covering_lp_box.new_lp_box_solver(inst.n, inst.c,
                                                      advice=case.advice),
                    covering_lp_box.process_row_box)
        return (covering_lp.new_lp_solver(inst.n, inst.c, advice=case.advice),
                covering_lp.process_row)

    def run_case(self, case, rec):
        st, step = self._solver(case)
        tight = 0
        for row in case.inst.rows:
            tight += len(rec.op(step, st, row).tight_added)
        return {"state": st, "x": covering_lp.current_solution(st),
                "tight_added": tight}

    def counts(self, case, result):
        st = result["state"]
        return {"rows": len(case.inst.rows), "iterations": st.iterations,
                "violations": st.violations_seen,
                "phases": len(st.alpha_history),
                "tight_added": result["tight_added"]}

    def reference(self, case, runs):
        """A replay of the case, untimed, that checks after every row that
        the row holds at the x published right after it and that x never
        decreased. The certified gauge costs about as much as a row here,
        so it is taken in the replay and not in the timed runs."""
        st, step = self._solver(case)
        gauge = Gauge()
        x = np.zeros(case.inst.n)
        bad = tight = 0
        for row in case.inst.rows:
            tight += len(step(st, row).tight_added)
            prev, x = x, covering_lp.current_solution(st)
            idx = np.fromiter((j for j, _ in row), dtype=np.int64)
            vals = np.fromiter((a for _, a in row), dtype=float)
            if float(vals @ x[idx]) < 1.0 - TOL.tol_feas or np.any(x < prev):
                bad += 1
            gauge.after_op(float(case.inst.c @ x),
                           covering_lp.dual_certificate(st))
        ref = {"state": st, "x": x, "tight_added": tight, "gauge": gauge.values}
        return ref, bad, [float(case.inst.c @ x) / case.opt]


# ------------------------------------------------------------ corruption_grid

GRIDS = 2


@contextmanager
def solver_run_marks(host):
    """Marks for Recorder.op, one per solver run of a grid, with host
    samples between the runs. run_experiment validates each run's advice
    right before solving it, through experiments.validate_advice, so a
    wrapper there marks where each run starts."""
    marks = []
    original = experiments.validate_advice

    def marked(*args, **kwargs):
        marks.append(perf_counter_ns())
        host.between_ops()
        return original(*args, **kwargs)

    experiments.validate_advice = marked
    try:
        yield marks
    finally:
        experiments.validate_advice = original


class CorruptionGrid:
    """The default CorruptionSweep grid (what `pdla experiment corruption`
    runs without a config), GRIDS of them at seeds GRIDS * seed + k, each
    writing its own CSV: n = 100, density 0.5, lambda 0.1, five corruption
    rates, 20 trials, one worker. One op is one solver run, that is one CSV
    row. An op's latency runs from the start of its solver run to the start
    of the next one (solver_run_marks), so the first run of a trial also
    carries the trial's generation and HiGHS solve, and the grid's last run
    the CSV write."""

    tail = 90

    def prepare(self, seed, workdir):
        return [experiments.ExperimentConfig.from_doc({
            "kind": "CorruptionSweep", "seed": seed * GRIDS + k,
            "out": os.path.join(workdir, f"grid{k}.csv")})
            for k in range(GRIDS)]

    def ops_in(self, cfg):
        return cfg.trials * len(cfg.corruption_rates)

    def run_case(self, cfg, rec):
        with solver_run_marks(rec.host) as marks:
            rows = rec.op(experiments.run_experiment, cfg,
                          ops=self.ops_in(cfg), marks=marks)
        with open(cfg.out, "rb") as fh:
            data = fh.read()
        return {"csv": data, "rows": rows}

    def counts(self, cfg, result):
        rows = result["rows"]
        return {"rows": len(rows) * cfg.n,
                "iterations": sum(m.iterations for m in rows),
                "violations": sum(m.violations for m in rows),
                "phases": sum(m.phases for m in rows)}

    @staticmethod
    def replay(cfg):
        """The grid's runs rebuilt from public functions: per CSV row the
        cost, the certified ratio at the end of the run, and the violation,
        iteration and phase counts."""
        out = []
        for trial in range(cfg.trials):
            ss = SeedSequence([cfg.seed, trial])
            inst = experiments.gen_synthetic(cfg.n, ss, cfg.density,
                                             cfg.cost_scale)
            off = baselines.offline_solve(inst, cfg.eps_offline)
            children = ss.spawn(len(cfg.corruption_rates))
            for p, child in zip(cfg.corruption_rates, children):
                xp = experiments.corrupt_advice(off.x, p, child)
                adv = instances.validate_advice(xp, cfg.lambdas[0], inst.n,
                                                boxed=False)
                st = covering_lp.new_lp_solver(inst.n, inst.c, advice=adv)
                gauge = Gauge()
                for row in inst.rows:
                    covering_lp.process_row(st, row)
                    gauge.after_op(float(inst.c @ covering_lp.current_solution(st)),
                                   covering_lp.dual_certificate(st))
                cost = float(inst.c @ covering_lp.current_solution(st))
                out.append((cost, gauge.values[-1], st.violations_seen,
                            st.iterations, len(st.alpha_history)))
        return out

    def check(self, cfg, results):
        """Header, row count, byte-identical CSV for every grid of the seed,
        and every row's cost, violations, iterations and phases equal to a
        replay of the same runs."""
        replayed = self.replay(cfg)
        first = next((r["csv"] for r in results if r is not None), b"")
        bad = 0
        for r in results:
            if r is None:
                continue
            text = r["csv"].decode()
            table = list(csv.DictReader(io.StringIO(text)))
            if (r["csv"] != first or text.splitlines()[:1] != [metrics.CSV_HEADER]
                    or len(table) != self.ops_in(cfg)):
                bad += self.ops_in(cfg)
                continue
            for row, (cost, _, viol, iters, phases) in zip(table, replayed):
                if (row["cost_alg"] != f"{cost:.10g}"
                        or int(row["violations"]) != viol
                        or int(row["iterations"]) != iters
                        or int(row["phases"]) != phases):
                    bad += 1
        table = csv.DictReader(io.StringIO(first.decode()))
        return Checked(
            bad=bad, cost_ratios=[float(row["ratio"]) for row in table],
            certified=[cert for _, cert, _, _, _ in replayed],
            counts={"rows": len(replayed) * cfg.n,
                    "iterations": sum(r[3] for r in replayed),
                    "violations": sum(r[2] for r in replayed),
                    "phases": sum(r[4] for r in replayed)})


# --------------------------------------------------------------- sdp_stream

SDP_N = SDP_D = 24
SDP_M, SDP_INSTANCES = 20, 10


class SdpStream(Workload):
    """n = d = 24, A_j = U U' with U Gaussian d x 2, m = 20 monotone targets
    B_i = B_{i-1} + G G'/(3m) with G Gaussian d x 3, costs uniform in
    [0.1, 1], no advice (there is no offline SDP solver to make it). The
    only workload that reaches the symmetric eigen layer."""

    tail = 90

    def prepare(self, seed, workdir):
        cases = []
        for k in range(SDP_INSTANCES):
            rng = default_rng(SeedSequence([seed, k]))
            A = []
            for _ in range(SDP_N):
                u = rng.standard_normal((SDP_D, 2))
                A.append(u @ u.T)
            c = rng.uniform(0.1, 1.0, SDP_N)
            B, cur = [], np.zeros((SDP_D, SDP_D))
            for _ in range(SDP_M):
                g = rng.standard_normal((SDP_D, 3))
                cur = cur + g @ g.T / (3 * SDP_M)
                B.append(cur)
            cases.append(instances.make_sdp_instance(SDP_N, SDP_D, c, A, B))
        return cases

    def ops_in(self, inst):
        return len(inst.B_stream)

    def run_case(self, inst, rec):
        """An op takes 20-500 ms, most of it in eigen calls of tens of ms
        each, so host samples (when due) also precede every eigen call.
        Traced runs leave them out: they would count as process_matrix self
        time."""
        st = covering_sdp.new_sdp_solver(inst)
        gauge = Gauge()
        in_op = rec.tracer is None
        with sampling_before(rec.host, covering_sdp, "min_eigpair", in_op), \
                sampling_before(rec.host, covering_sdp, "is_psd", in_op):
            for B in inst.B_stream:
                rec.op(covering_sdp.process_matrix, st, B)
                gauge.after_op(float(inst.c @ covering_sdp.current_solution(st)),
                               covering_sdp.dual_certificate(st))
        return {"state": st, "x": covering_sdp.current_solution(st),
                "gauge": gauge.values}

    def counts(self, inst, result):
        st = result["state"]
        return {"sdp_rounds": len(inst.B_stream),
                "sdp_iterations": st.iterations,
                "sdp_phases": len(st.alpha_history)}

    def reference(self, inst, runs):
        """The first run: every target is covered at its published x within
        the solver's PSD slack. With no offline SDP optimum, the cost ratio
        falls back to the best lower bound available, the certified one."""
        if not runs:
            return None
        ref = runs[0]
        bad = sum(covering_sdp.feasibility_gap(ref["state"], B)
                  < -TOL.tol_psd * max(1.0, float(np.linalg.norm(B)))
                  for B in inst.B_stream)
        return ref, bad, ref["gauge"]


# ------------------------------------------------------------------ gst_tree

GST_NODES, GST_GROUPS, GST_GROUP_SIZE, GST_INSTANCES = 1000, 30, 5, 12


@dataclasses.dataclass
class GstCase:
    tree: applications.RootedTree
    groups: list
    costs: np.ndarray
    first: bool                       # also checked against solve_gst_online


class GstTree(Workload):
    """Random recursive tree on 1,000 nodes (parent of v uniform on [0, v),
    edge costs uniform on [0.5, 1.5)) with 30 groups of 5 non-root vertices
    and no advice. One op drives one group to coverage with the loop of
    solve_gst_online: gst_oracle, then process_row_box, until None. Rows are
    short and produced by the oracle, unlike lp_stream's."""

    tail = 90

    def prepare(self, seed, workdir):
        cases = []
        for k in range(GST_INSTANCES):
            rng = default_rng(SeedSequence([seed, k]))
            parents = rng.integers(0, np.arange(1, GST_NODES))
            costs = rng.uniform(0.5, 1.5, GST_NODES - 1)
            edges = [(int(parents[v - 1]), v, float(costs[v - 1]))
                     for v in range(1, GST_NODES)]
            tree = applications.RootedTree.from_edge_list(GST_NODES, 0, edges)
            groups = [sorted(int(v) for v in rng.choice(
                np.arange(1, GST_NODES), size=GST_GROUP_SIZE, replace=False))
                for _ in range(GST_GROUPS)]
            cases.append(GstCase(tree, groups,
                                 np.array([cost for _, _, cost in tree.edges]),
                                 first=k == 0))
        return cases

    def ops_in(self, case):
        return len(case.groups)

    @staticmethod
    def _cover(tree, st, group, log):
        while True:
            log["oracle_calls"] += 1
            row = applications.gst_oracle(tree, group,
                                          covering_lp.current_solution(st))
            if row is None:
                return
            log["rows"].append(row)
            log["tight_added"] += len(
                covering_lp_box.process_row_box(st, row).tight_added)

    def run_case(self, case, rec):
        st = covering_lp_box.new_lp_box_solver(len(case.costs), case.costs)
        log = {"oracle_calls": 0, "rows": [], "tight_added": 0}
        gauge = Gauge()
        for group in case.groups:
            rec.op(self._cover, case.tree, st, group, log)
            gauge.after_op(float(case.costs @ covering_lp.current_solution(st)),
                           covering_lp.dual_certificate(st))
        return {"state": st, "x": covering_lp.current_solution(st),
                "gauge": gauge.values, **log}

    def counts(self, case, result):
        st = result["state"]
        return {"rows": len(result["rows"]), "iterations": st.iterations,
                "violations": st.violations_seen,
                "phases": len(st.alpha_history),
                "tight_added": result["tight_added"],
                "oracle_calls": result["oracle_calls"]}

    def reference(self, case, runs):
        """The first run: at its final x the oracle finds no violated cut
        for any group, and on the first case the x equals solve_gst_online's.
        The cost ratio is over the offline optimum of the cuts the oracle
        revealed, which relax the tree's fractional group Steiner LP."""
        if not runs:
            return None
        ref = runs[0]
        bad = sum(applications.gst_oracle(case.tree, g, ref["x"]) is not None
                  for g in case.groups)
        if case.first and not same_x(
                applications.solve_gst_online(case.tree, case.groups)[0],
                ref["x"]):
            bad = self.ops_in(case)
        lp = instances.make_lp_instance(len(case.costs), case.costs,
                                        ref["rows"], boxed=True)
        cost = float(case.costs @ ref["x"])
        return ref, bad, [cost / baselines.offline_solve(lp).objective]


WORKLOADS = {"lp_stream": LpStream, "corruption_grid": CorruptionGrid,
             "sdp_stream": SdpStream, "gst_tree": GstTree}
