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
from .covering_lp import current_solution, dual_certificate, run_lp
# Not called here; kept because the traced benchmark rebinds these names.
from .covering_lp import process_row  # noqa: F401
from .covering_lp_box import process_row_box  # noqa: F401
from .errors import MalformedDocument, MalformedLine
from .instances import (CoveringLpInstance, Row, as_count, as_flag,
                        as_number, as_numbers, make_lp_instance,
                        validate_advice)
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
        for name, least in (("n", 2), ("trials", 1), ("seed", 0),
                            ("drift_steps", 1)):
            count = f"{name} must be an integer >= {least}"
            setattr(self, name, as_count(getattr(self, name), count, least))
        for name in ("density", "cost_scale", "eps_offline"):
            setattr(self, name, as_number(getattr(self, name), name))
        for name in ("lambdas", "corruption_rates"):
            values = as_numbers(getattr(self, name), name)
            if values.ndim != 1:
                raise MalformedDocument(f"{name} must be a list of numbers")
            setattr(self, name, tuple(values.tolist()))
        self.full = as_flag(self.full, "full must be true or false")
        paths = self.graph_paths
        if not (isinstance(paths, (list, tuple))
                and all(isinstance(p, str) for p in paths)):
            raise MalformedDocument("graph_paths must be a list of file names")
        self.graph_paths = tuple(paths)
        if not (self.out is None or isinstance(self.out, str)):
            raise MalformedDocument("out must be a file name")
        if not 0 < self.density <= 1:
            raise MalformedDocument("density must lie in (0, 1]")
        if any(not 0 <= v <= 1 for v in self.lambdas) or not self.lambdas:
            raise MalformedDocument("lambdas must be a nonempty subset of [0,1]")
        if any(not 0 <= p <= 1 for p in self.corruption_rates):
            raise MalformedDocument("corruption rates must lie in [0,1]")
        if self.kind == "GraphSequence" and len(self.graph_paths) < 2:
            raise MalformedDocument("GraphSequence needs at least two files")

    @staticmethod
    def from_doc(doc: dict) -> "ExperimentConfig":
        """The config a JSON object holds; its values are checked by the
        constructor."""
        if "kind" not in doc:
            raise MalformedDocument("config is missing 'kind'")
        unknown = set(doc) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise MalformedDocument(f"unknown config keys {sorted(unknown)}")
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


def _parse_edges(path: str) -> list[tuple[int, int]]:
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
    return edges


def ingest_edge_list(path: str, cost_seed=0,
                     cost_scale: float = 10.0) -> SetSystem:
    """Vertex cover as set cover: vertices are sets, edges are elements."""
    edges = _parse_edges(path)
    if not edges:
        raise MalformedDocument(f"{path}: no edges")
    nodes = sorted({u for e in edges for u in e})
    index = {u: j for j, u in enumerate(nodes)}
    rng = default_rng(cost_seed)
    costs = (1.0 - rng.random(len(nodes))) * cost_scale
    membership = [[index[u], index[v]] for (u, v) in edges]
    return SetSystem(costs=costs, membership=membership)


# ---------------------------------------------------------------- running

def _trial_lambda_sweep(cfg: ExperimentConfig, trial: int):
    inst = gen_synthetic(cfg.n, SeedSequence([cfg.seed, trial]),
                         cfg.density, cfg.cost_scale)
    off = offline_solve(inst, cfg.eps_offline)
    for lam in cfg.lambdas:
        yield lam, 0, inst, off.x, off.objective


def _trial_corruption(cfg: ExperimentConfig, trial: int):
    ss = SeedSequence([cfg.seed, trial])
    inst = gen_synthetic(cfg.n, ss, cfg.density, cfg.cost_scale)
    off = offline_solve(inst, cfg.eps_offline)
    children = ss.spawn(len(cfg.corruption_rates))
    for ip, p in enumerate(cfg.corruption_rates):
        xp = corrupt_advice(off.x, p, children[ip])
        yield cfg.lambdas[0], ip, inst, xp, off.objective


def _trial_drift(cfg: ExperimentConfig, trial: int):
    ss = SeedSequence([cfg.seed, trial])
    inst = gen_synthetic(cfg.n, ss, cfg.density, cfg.cost_scale)
    base = off = offline_solve(inst, cfg.eps_offline)
    children = ss.spawn(cfg.drift_steps)
    for step in range(cfg.drift_steps):
        if step > 0:
            inst = drift_instance(inst, cfg.n, children[step])
            off = offline_solve(inst, cfg.eps_offline)
        yield cfg.lambdas[0], step, inst, base.x, off.objective


def _graph_snapshots(cfg: ExperimentConfig):
    parsed = [_parse_edges(p) for p in cfg.graph_paths]
    if not cfg.full:
        # keep the two smallest snapshots, preserving file order
        order = sorted(range(len(parsed)), key=lambda k: len(parsed[k]))
        parsed = [parsed[k] for k in sorted(order[:2])]
    nodes = sorted({u for edges in parsed for e in edges for u in e})
    if not nodes:
        raise MalformedDocument("graph sequence has no edges")
    index = {u: j for j, u in enumerate(nodes)}
    snapshots = [[[index[u], index[v]] for (u, v) in edges]
                 for edges in parsed]
    return snapshots, len(nodes)


def _trial_graphs(cfg: ExperimentConfig, trial: int):
    snapshots, n = _graph_snapshots(cfg)
    rng = default_rng(SeedSequence([cfg.seed, trial]))
    costs = (1.0 - rng.random(n)) * cfg.cost_scale
    insts = [set_cover_instance(SetSystem(costs=costs, membership=snap))
             for snap in snapshots]
    hint = offline_solve(insts[0], cfg.eps_offline)
    for step in range(1, len(insts)):
        off = offline_solve(insts[step], cfg.eps_offline)
        yield cfg.lambdas[0], step, insts[step], hint.x, off.objective
        hint = off


_TRIALS = {"LambdaSweep": _trial_lambda_sweep,
           "CorruptionSweep": _trial_corruption,
           "BatchDrift": _trial_drift,
           "GraphSequence": _trial_graphs}


def run_experiment(cfg: ExperimentConfig) -> list[RunMetrics]:
    """Run every solver run each trial yields as (lambda, step, instance,
    advice, offline cost); return rows ordered by (trial, step, lambda) and
    write the CSV atomically when cfg.out is set."""
    rows = []
    for t in range(cfg.trials):
        for lam, step, inst, x, cost_off in _TRIALS[cfg.kind](cfg, t):
            adv = validate_advice(x, lam, inst.n, boxed=inst.boxed)
            st, _ = run_lp(inst, adv)
            cost = float(inst.c @ current_solution(st))
            rows.append(RunMetrics(
                lam=lam, trial=t, step=step, cost_alg=cost,
                cost_advice=float(inst.c @ x), cost_offline=cost_off,
                ratio=cost / cost_off, violations=st.violations_seen,
                iterations=st.iterations, phases=len(st.alpha_history),
                dual_scale=dual_certificate(st).scale))
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
