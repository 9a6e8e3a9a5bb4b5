"""Synthetic generators, advice corruption, and the experiment harness.

Each trial owns an independent RNG stream derived from SeedSequence
([base_seed, trial]); (config, seed) determines every output byte. The CSV
is written atomically: a partial file is never left at the target path.
"""
from __future__ import annotations

import csv
import logging
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .applications import SetSystem, set_cover_instance
from .baselines import offline_solve
from .covering_lp import (current_solution, dual_certificate, new_lp_solver,
                          run_rows)
# Not called here; kept because the traced benchmark rebinds these names.
from .covering_lp import process_row  # noqa: F401
from .covering_lp_box import process_row_box  # noqa: F401
from .errors import MalformedDocument, MalformedLine
from .instances import (AdviceVector, CoveringLpInstance, Row,
                        make_lp_instance, validate_advice)
from .metrics import CSV_HEADER, RunMetrics

log = logging.getLogger("pdla")

KINDS = ("LambdaSweep", "CorruptionSweep", "BatchDrift", "GraphSequence")


@dataclass
class ExperimentConfig:
    kind: str
    n: int = 100
    density: float = 0.5
    trials: int = 20
    seed: int = 0
    lambdas: tuple = (0.1,)
    corruption_rates: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    drift_steps: int = 5
    eps_offline: float = 1e-6
    cost_scale: float = 10.0
    graph_paths: tuple = ()
    full: bool = False
    out: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MalformedDocument(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise MalformedDocument("trials must be >= 1")
        if self.n < 2:
            raise MalformedDocument("n must be >= 2")
        if not 0 < self.density <= 1:
            raise MalformedDocument("density must lie in (0, 1]")
        if any(not 0 <= v <= 1 for v in self.lambdas) or not self.lambdas:
            raise MalformedDocument("lambdas must be a nonempty subset of [0,1]")
        if any(not 0 <= p <= 1 for p in self.corruption_rates):
            raise MalformedDocument("corruption rates must lie in [0,1]")
        if self.drift_steps < 1:
            raise MalformedDocument("drift_steps must be >= 1")
        if self.kind == "GraphSequence" and len(self.graph_paths) < 2:
            raise MalformedDocument("GraphSequence needs at least two files")

    @staticmethod
    def from_doc(doc: dict) -> "ExperimentConfig":
        if "kind" not in doc:
            raise MalformedDocument("config is missing 'kind'")
        fields = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(doc) - fields
        if unknown:
            raise MalformedDocument(f"unknown config keys {sorted(unknown)}")
        doc = dict(doc)
        for key in ("lambdas", "corruption_rates", "graph_paths"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return ExperimentConfig(**doc)


# ------------------------------------------------------------- generators

def gen_synthetic(n: int, seed, density: float = 0.5,
                  cost_scale: float = 10.0) -> CoveringLpInstance:
    """Square {0,1} instance with scaled uniform costs; zero rows resampled."""
    rng = default_rng(seed)
    # Row by row: the same stream as one (n, n) draw, without n x n temporaries.
    hits = [np.flatnonzero(rng.random(n) < density) for _ in range(n)]
    for i in range(n):
        while not hits[i].size:
            hits[i] = np.flatnonzero(rng.random(n) < density)
    # uniform (0,1] so costs stay strictly positive
    c = (1.0 - rng.random(n)) * cost_scale
    # Drawn columns are sorted, unique, in range and nonempty: valid Rows.
    rows = [Row(cols, np.ones(cols.size), n) for cols in hits]
    return make_lp_instance(n, c, rows, boxed=False)


def corrupt_advice(x_prime: np.ndarray, p: float, seed) -> np.ndarray:
    """Zero each coordinate independently with probability p."""
    if not 0 <= p <= 1:
        raise MalformedDocument(f"replacement rate {p} outside [0,1]")
    rng = default_rng(seed)
    keep = rng.random(len(x_prime)) >= p
    return np.where(keep, np.asarray(x_prime, dtype=float), 0.0)


def drift_instance(inst: CoveringLpInstance, flips: int,
                   seed) -> CoveringLpInstance:
    """Toggle `flips` uniformly chosen cells of a {0,1} matrix, then repair
    any all-zero row with one random set bit. Costs carry over."""
    if flips < 0:
        raise MalformedDocument("flips must be >= 0")
    rng = default_rng(seed)
    n = inst.n
    A = np.zeros((len(inst.rows), n))
    for i, row in enumerate(inst.rows):
        A[i, row.idx] = row.vals != 0
    m = A.shape[0]
    cells = rng.choice(m * n, size=min(flips, m * n), replace=False)
    A.flat[cells] = 1.0 - A.flat[cells]
    for i in range(m):
        if not A[i].any():
            A[i, rng.integers(n)] = 1.0
    rows = [Row(cols, np.ones(cols.size), n)
            for cols in map(np.flatnonzero, A)]
    return make_lp_instance(n, inst.c, rows, boxed=inst.boxed)


def _parse_edges(path: str) -> tuple[list[tuple[int, int]], int]:
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    skipped = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise MalformedLine(f"{path}:{lineno}: expected 'u v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedLine(f"{path}:{lineno}: non-integer endpoint")
            if u == v:
                skipped += 1
                continue
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
    if skipped:
        log.warning("%s: skipped %d self-loop(s)", path, skipped)
    return edges, skipped


def ingest_edge_list(path: str, cost_seed=0,
                     cost_scale: float = 10.0) -> SetSystem:
    """Vertex cover as set cover: vertices are sets, edges are elements."""
    edges, _ = _parse_edges(path)
    if not edges:
        raise MalformedDocument(f"{path}: no edges")
    nodes = sorted({u for e in edges for u in e})
    index = {u: j for j, u in enumerate(nodes)}
    rng = default_rng(cost_seed)
    costs = (1.0 - rng.random(len(nodes))) * cost_scale
    membership = [[index[u], index[v]] for (u, v) in edges]
    return SetSystem(costs=costs, membership=membership)


# ---------------------------------------------------------------- running

def _run_instance(inst: CoveringLpInstance, advice: AdviceVector | None):
    """One solver run over the instance's rows, which were checked when the
    instance was built."""
    st = new_lp_solver(inst.n, inst.c, advice=advice, boxed=inst.boxed)
    run_rows(st, inst.rows, reports=False)
    return st, dual_certificate(st)


def _metric(lam, trial, step, inst, st, cert, cost_advice, cost_off):
    cost = float(inst.c @ current_solution(st))
    return RunMetrics(lam=lam, trial=trial, step=step, cost_alg=cost,
                      cost_advice=cost_advice, cost_offline=cost_off,
                      ratio=cost / cost_off,
                      violations=st.violations_seen,
                      iterations=st.iterations,
                      phases=len(st.alpha_history),
                      dual_scale=cert.scale)


def _trial_lambda_sweep(cfg: ExperimentConfig, trial: int) -> list[RunMetrics]:
    inst = gen_synthetic(cfg.n, SeedSequence([cfg.seed, trial]),
                         cfg.density, cfg.cost_scale)
    off = offline_solve(inst, cfg.eps_offline)
    cost_advice = float(inst.c @ off.x)
    out = []
    for lam in cfg.lambdas:
        adv = validate_advice(off.x, lam, inst.n, boxed=inst.boxed)
        st, cert = _run_instance(inst, adv)
        out.append(_metric(lam, trial, 0, inst, st, cert, cost_advice,
                           off.objective))
    return out


def _trial_corruption(cfg: ExperimentConfig, trial: int) -> list[RunMetrics]:
    ss = SeedSequence([cfg.seed, trial])
    inst = gen_synthetic(cfg.n, ss, cfg.density, cfg.cost_scale)
    off = offline_solve(inst, cfg.eps_offline)
    lam = cfg.lambdas[0]
    children = ss.spawn(len(cfg.corruption_rates))
    out = []
    for ip, p in enumerate(cfg.corruption_rates):
        xp = corrupt_advice(off.x, p, children[ip])
        adv = validate_advice(xp, lam, inst.n, boxed=inst.boxed)
        st, cert = _run_instance(inst, adv)
        out.append(_metric(lam, trial, ip, inst, st, cert,
                           float(inst.c @ xp), off.objective))
    return out


def _trial_drift(cfg: ExperimentConfig, trial: int) -> list[RunMetrics]:
    ss = SeedSequence([cfg.seed, trial])
    inst = gen_synthetic(cfg.n, ss, cfg.density, cfg.cost_scale)
    base = offline_solve(inst, cfg.eps_offline)
    lam = cfg.lambdas[0]
    adv = validate_advice(base.x, lam, inst.n, boxed=inst.boxed)
    cost_advice = float(inst.c @ base.x)
    children = ss.spawn(cfg.drift_steps)
    out = []
    for step in range(cfg.drift_steps):
        if step > 0:
            inst = drift_instance(inst, cfg.n, children[step])
        off = offline_solve(inst, cfg.eps_offline)
        st, cert = _run_instance(inst, adv)
        out.append(_metric(lam, trial, step, inst, st, cert, cost_advice,
                           off.objective))
    return out


def _graph_snapshots(cfg: ExperimentConfig):
    parsed = [(_parse_edges(p)[0], p) for p in cfg.graph_paths]
    if not cfg.full:
        # keep the two smallest snapshots, preserving file order
        order = sorted(range(len(parsed)), key=lambda k: len(parsed[k][0]))
        keep = sorted(order[:2])
        parsed = [parsed[k] for k in keep]
    nodes = sorted({u for edges, _ in parsed for e in edges for u in e})
    if not nodes:
        raise MalformedDocument("graph sequence has no edges")
    index = {u: j for j, u in enumerate(nodes)}
    snapshots = []
    for edges, _ in parsed:
        snapshots.append([[index[u], index[v]] for (u, v) in edges])
    return snapshots, len(nodes)


def _trial_graphs(cfg: ExperimentConfig, trial: int) -> list[RunMetrics]:
    snapshots, n = _graph_snapshots(cfg)
    rng = default_rng(SeedSequence([cfg.seed, trial]))
    costs = (1.0 - rng.random(n)) * cfg.cost_scale
    lam = cfg.lambdas[0]
    insts = [set_cover_instance(SetSystem(costs=costs, membership=snap))
             for snap in snapshots]
    out = []
    for step in range(1, len(insts)):
        hint = offline_solve(insts[step - 1], cfg.eps_offline)
        adv = validate_advice(hint.x, lam, n, boxed=True)
        off = offline_solve(insts[step], cfg.eps_offline)
        st, cert = _run_instance(insts[step], adv)
        out.append(_metric(lam, trial, step, insts[step], st, cert,
                           float(costs @ hint.x), off.objective))
    return out


_TRIALS = {"LambdaSweep": _trial_lambda_sweep,
           "CorruptionSweep": _trial_corruption,
           "BatchDrift": _trial_drift,
           "GraphSequence": _trial_graphs}


def run_experiment(cfg: ExperimentConfig) -> list[RunMetrics]:
    """Run all trials, return rows ordered by (trial, step, lambda); write
    the CSV atomically when cfg.out is set."""
    trial = _TRIALS[cfg.kind]
    rows = [m for t in range(cfg.trials) for m in trial(cfg, t)]
    rows.sort(key=lambda m: (m.trial, m.step, m.lam))
    if cfg.out:
        write_csv(cfg.out, rows)
    return rows


def write_csv(path: str, rows: list[RunMetrics]) -> None:
    """Write header + rows to path via a same-directory temp file and an
    atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".csv.part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER.split(","))
            for m in rows:
                writer.writerow(m.to_row())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
