"""Command-line interface.

Subcommands: solve-mk, eval, build-optimal, oracle, dual, verify, plot.
Exit codes: 0 pass, 1 fail, 2 refused or invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
from .costs import parse_cost
from .duality import GridFunction, inf_conv, verify_control_identity
from .ensembles import (BoundedCouplingTriple, TransportEnsemble,
                        arcs_longer_than, build_opt_bounded, build_opt_tilde,
                        eval_bounded, eval_tilde, eval_tv, oracle_min_path,
                        solve_bounded)
from .errors import AssumptionRefused, ConfigInvalid, LagotError, UnknownKind
from .harness import Report, VerifyConfig, emit_plot_data, verify
from .measures import DiscreteMeasure, make_coupling
from .mk_solver import solve_mk
from .paths import random_interval_set

EXIT_PASS, EXIT_FAIL, EXIT_REFUSED = 0, 1, 2


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _load(path: str, parse):
    """``parse`` of the JSON in ``path``; malformed content names the file."""
    try:
        return parse(_load_json(path))
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ConfigInvalid(f"{path}: malformed input ({exc!r})") from exc


def _emit(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _cmd_solve_mk(args) -> int:
    m0 = _load(args.p0, DiscreteMeasure.from_json)
    m1 = _load(args.p1, DiscreteMeasure.from_json)
    cost = parse_cost(args.cost)
    forbidden = (None if args.max_arc_length is None
                 else arcs_longer_than(m0, m1, args.max_arc_length))
    sol = solve_mk(m0, m1, cost, forbidden_arcs=forbidden)
    _emit(json.dumps({"value": sol.value, "plan": sol.plan.plan.tolist(),
                      "method": sol.method}, sort_keys=True) + "\n", args.out)
    return EXIT_PASS


def _triple_from_json(obj: dict) -> BoundedCouplingTriple:
    coupling = make_coupling(DiscreteMeasure.from_json(obj["source"]),
                             DiscreteMeasure.from_json(obj["target"]),
                             obj["plan"])
    bounds = {(int(i), int(j)): float(m) for i, j, m in obj["bounds"]}
    return BoundedCouplingTriple(coupling, bounds)


def _cmd_eval(args) -> int:
    cost = parse_cost(args.cost)
    if (args.triple if args.objective == "TV" else args.ensemble) is None:
        raise ConfigInvalid(f"no input file for --objective {args.objective}")
    if args.objective == "TV":
        value = eval_tv(_load(args.triple, _triple_from_json), cost)
    else:
        ens = _load(args.ensemble, TransportEnsemble.from_json)
        if args.objective == "plain":
            value = eval_bounded(ens, cost)
        else:
            value = eval_tilde(ens, cost, 1 if args.objective == "L1" else 2)
    _emit(json.dumps({"value": value}) + "\n", args.out)
    return EXIT_PASS


def _cmd_build_optimal(args) -> int:
    m0 = _load(args.p0, DiscreteMeasure.from_json)
    m1 = _load(args.p1, DiscreteMeasure.from_json)
    cost = parse_cost(args.cost)
    if args.theorem == "2.1":
        rng = np.random.default_rng(args.seed)
        sol = solve_mk(m0, m1, cost)
        ens = build_opt_tilde(sol, lambda i, j: random_interval_set(rng))
        payload = {"value": eval_tilde(ens, cost, 1),
                   "ensemble": ens.to_json()}
    else:
        if args.bound is None:
            raise ConfigInvalid("--bound is required for theorem 2.6")
        value, triple = solve_bounded(m0, m1, cost, args.bound)
        payload = {"value": value,
                   "ensemble": build_opt_bounded(triple).to_json()}
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return EXIT_PASS


def _cmd_oracle(args) -> int:
    cost = parse_cost(args.cost)
    x = np.asarray([float(v) for v in args.x.split(",")])
    y = np.asarray([float(v) for v in args.y.split(",")])
    grid = [float(v) for v in args.speeds.split(",")]
    value = oracle_min_path(x, y, cost, args.objective, args.k, grid,
                            cap=args.cap)
    _emit(json.dumps({"value": value}) + "\n", args.out)
    return EXIT_PASS


def _cmd_dual(args) -> int:
    m0 = _load(args.p0, DiscreteMeasure.from_json)
    f = _load(args.f, GridFunction.from_json)
    cost = parse_cost(args.cost)
    queries = (_load(args.grid, lambda raw: np.asarray(raw, dtype=float))
               if args.grid else m0.points)
    rep = verify_control_identity(m0, f, cost, args.i)
    payload = {"fl_values": inf_conv(f, cost, queries), "lhs": rep.lhs,
               "rhs": rep.rhs, "margin": rep.margin, "note": rep.note}
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    def config(raw: dict) -> VerifyConfig:
        theorem = raw.get("theorem", args.theorem)
        if theorem is None:
            raise ConfigInvalid("no theorem: give --theorem or --config")
        return VerifyConfig(
            theorem=theorem, seed=raw.get("seed", args.seed),
            trials=raw.get("trials", args.trials),
            n_atoms=raw.get("n_atoms", args.n_atoms),
            dim=raw.get("dim", args.dim),
            cost_spec=raw.get("cost", parse_cost(args.cost).to_spec()),
            tolerance=raw.get("tolerance", args.tol))

    cfg = _load(args.config, config) if args.config else config({})
    report = verify(cfg)
    _emit(report.dumps() + "\n", args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_plot(args) -> int:
    report = _load(args.report, lambda raw: Report(
        config=raw["config"], trials=raw["trials"], summary=raw["summary"],
        curves=raw.get("curves", {})))
    _emit(emit_plot_data(report, args.kind), args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagot",
        description="Discrete transport identities for non-convex radial "
                    "costs: solvers, path constructions, and verification.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("solve-mk", help="solve the discrete transport LP")
    p.add_argument("--p0", required=True)
    p.add_argument("--p1", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--max-arc-length", type=float, default=None)
    p.set_defaults(func=_cmd_solve_mk)

    p = sub.add_parser("eval", help="evaluate an ensemble or bounded triple")
    p.add_argument("--objective", required=True,
                   choices=["plain", "L1", "L2", "TV"])
    p.add_argument("--ensemble")
    p.add_argument("--triple")
    p.add_argument("--cost", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("build-optimal", help="construct an optimal ensemble")
    p.add_argument("--theorem", required=True, choices=["2.1", "2.6"])
    p.add_argument("--p0", required=True)
    p.add_argument("--p1", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_build_optimal)

    p = sub.add_parser("oracle", help="brute-force single-pair path oracle")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--objective", default="L1",
                   choices=["plain", "L1", "L2", "conv"])
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--speeds", default="0,0.5,1,2,4")
    p.add_argument("--cap", type=float, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("dual", help="infimal convolution / control identity")
    p.add_argument("--f", required=True)
    p.add_argument("--p0", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--grid", default=None)
    p.add_argument("--i", type=int, default=1, choices=[1, 2])
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("verify", help="run a theorem-verification suite")
    p.add_argument("--config", default=None)
    p.add_argument("--theorem", default=None, choices=list(harness.THEOREMS))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--n-atoms", type=int, default=4)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--cost", default="power:0.5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("plot", help="emit CSV plot data from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--kind", required=True)
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AssumptionRefused, ConfigInvalid, UnknownKind) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except LagotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
