"""Command-line surface.

Results go to stdout as one JSON object; --trace prints the buffered growth
events to stderr as JSON lines once the run completes. Exit codes: 0 ok,
2 infeasible, 3 numeric failure, 4 bad input (including unparseable flags,
which argparse would otherwise report with its own status 2).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .applications import (parse_tree_doc, set_cover_instance,
                           solve_gst_online)
from .baselines import offline_solve
from .covering_lp import current_solution, dual_certificate, run_lp
from .covering_sdp import dual_certificate as sdp_dual_certificate
from .covering_sdp import run_sdp
from .errors import (ExponentOverflow, Infeasible, MalformedDocument,
                     NoFeasibleSolution, NoProgress, NotConverged, PdlaError,
                     PhaseRestartLimit, UncoverableElement, UnscalableRow)
from .experiments import ExperimentConfig, ingest_edge_list, run_experiment
from .instances import (SolverParams, parse_advice, parse_lp_instance,
                        parse_sdp_instance, validate_advice)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NUMERIC = 3
EXIT_BAD_INPUT = 4

_INFEASIBLE = (Infeasible, NoFeasibleSolution, UncoverableElement,
               UnscalableRow)
_NUMERIC = (NotConverged, ExponentOverflow, NoProgress, PhaseRestartLimit)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # infeasible code; reroute to the bad-input code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_advice(args, n, boxed):
    if args.advice is None:
        if args.lam is not None:
            raise MalformedDocument("--lambda requires --advice")
        return None
    adv = parse_advice(_read(args.advice), n, boxed)
    if args.lam is not None:
        adv = validate_advice(adv.x_prime, args.lam, n, boxed)
    return adv


def _finish(state, cert=None) -> int:
    """Print the run's buffered trace (empty unless --trace) to stderr and
    the result document of any solver state to stdout; the document has
    "dual" only when cert is given."""
    for entry in state.trace:
        print(json.dumps(entry), file=sys.stderr)
    x = current_solution(state)
    doc = {
        "x": [float(v) for v in x],
        "objective": float(state.c @ x),
        "alpha_history": state.alpha_history,
        "violations": state.violations_seen,
        "iterations": state.iterations,
        "phases": len(state.alpha_history),
    }
    if cert is not None:
        doc["dual"] = {"scale": cert.scale, "objective": cert.objective}
    print(json.dumps(doc))
    return EXIT_OK


def _solve_lp(args, inst) -> int:
    """Stream every row of an LP instance through the solver (boxed when the
    instance is) and print the result document."""
    adv = _load_advice(args, inst.n, inst.boxed)
    st, _ = run_lp(inst, advice=adv, params=SolverParams(trace=args.trace))
    return _finish(st, dual_certificate(st))


def _cmd_solve_lp(args) -> int:
    inst = parse_lp_instance(_read(args.instance))
    if args.boxed:
        inst = replace(inst, boxed=True)
    return _solve_lp(args, inst)


def _cmd_solve_sdp(args) -> int:
    inst = parse_sdp_instance(_read(args.instance))
    if args.boxed:
        inst = replace(inst, boxed=True)
    adv = _load_advice(args, inst.n, inst.boxed)
    st, _ = run_sdp(inst, advice=adv, params=SolverParams(trace=args.trace))
    return _finish(st, sdp_dual_certificate(st))


def _cmd_set_cover(args) -> int:
    system = ingest_edge_list(args.graph, cost_seed=args.cost_seed,
                              cost_scale=args.cost_scale)
    inst = set_cover_instance(system)
    return _solve_lp(args, inst)


def _cmd_gst(args) -> int:
    doc = json.loads(_read(args.tree))
    override = None if args.groups is None else json.loads(_read(args.groups))
    tree, groups = parse_tree_doc(doc, override)
    n_edges = len(tree.edges)
    adv = _load_advice(args, n_edges, True)
    _, st = solve_gst_online(tree, groups, advice=adv,
                             params=SolverParams(trace=args.trace))
    return _finish(st)


_KIND_NAMES = {"lambda-sweep": "LambdaSweep", "corruption": "CorruptionSweep",
               "drift": "BatchDrift", "graphs": "GraphSequence"}


def _cmd_experiment(args) -> int:
    doc = json.loads(_read(args.config)) if args.config else {}
    if not isinstance(doc, dict):
        raise MalformedDocument("config must be a JSON object")
    kind = _KIND_NAMES[args.kind]
    if doc.setdefault("kind", kind) != kind:
        raise MalformedDocument(f"config kind {doc['kind']!r} does not "
                                f"match the {args.kind} subcommand")
    if args.out is not None:
        doc["out"] = args.out
    if args.full:
        doc["full"] = True
    cfg = ExperimentConfig.from_doc(doc)
    rows = run_experiment(cfg)
    print(json.dumps({"kind": cfg.kind, "rows": len(rows), "out": cfg.out}))
    return EXIT_OK


def _cmd_offline(args) -> int:
    inst = parse_lp_instance(_read(args.instance))
    cert = offline_solve(inst, eps=args.eps)
    print(json.dumps(cert.to_doc()))
    return EXIT_OK


def _add_advice_flags(sub) -> None:
    sub.add_argument("--advice", help="advice JSON file")
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="override the advice file's confidence")
    sub.add_argument("--trace", action="store_true",
                     help="print the growth events to stderr as JSON "
                          "lines once the run completes")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pdla",
                     description="Streaming covering LP/SDP solvers with "
                                 "advice, baselines, and experiments.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    sp = subs.add_parser("solve-lp", help="run the covering LP solver")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--boxed", action="store_true",
                    help="force box constraints on an unboxed document")
    _add_advice_flags(sp)
    sp.set_defaults(func=_cmd_solve_lp)

    sp = subs.add_parser("solve-sdp", help="run the covering SDP solver")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--boxed", action="store_true")
    _add_advice_flags(sp)
    sp.set_defaults(func=_cmd_solve_sdp)

    sp = subs.add_parser("set-cover", help="vertex-cover-as-set-cover stream")
    sp.add_argument("--graph", required=True, help="edge list file")
    sp.add_argument("--cost-seed", type=int, default=0)
    sp.add_argument("--cost-scale", type=float, default=10.0)
    _add_advice_flags(sp)
    sp.set_defaults(func=_cmd_set_cover)

    sp = subs.add_parser("gst", help="group Steiner tree on a tree")
    sp.add_argument("--tree", required=True, help="tree JSON file")
    sp.add_argument("--groups", help="optional groups JSON file override")
    _add_advice_flags(sp)
    sp.set_defaults(func=_cmd_gst)

    sp = subs.add_parser("experiment", help="run a seeded experiment grid")
    sp.add_argument("kind", choices=sorted(_KIND_NAMES))
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", help="CSV output path")
    sp.add_argument("--full", action="store_true",
                    help="keep every graph snapshot instead of the two "
                         "smallest")
    sp.set_defaults(func=_cmd_experiment)

    sp = subs.add_parser("offline", help="near-optimal offline certificate")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--eps", type=float, default=1e-6)
    sp.set_defaults(func=_cmd_offline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INFEASIBLE as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _NUMERIC as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PdlaError, OSError, json.JSONDecodeError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
