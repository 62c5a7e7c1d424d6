"""Command-line interface.

Subcommands: solve-mk, eval, build-optimal, oracle, dual, verify, plot.
Exit codes: 0 pass, 1 fail, 2 refused, invalid input or a non-finite result.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import reprlib
import stat
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
from .measures import DiscreteMeasure, json_numbers, make_coupling
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
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc


def _result(payload: dict) -> str:
    try:  # JSON has no NaN or infinity
        return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise LagotError("the result is not finite") from None


def _emit(payload: str, out: str | None) -> None:
    """Writes ``payload`` to stdout, or rewrites ``out`` in place: on ext4 a
    truncating open makes ``close`` start writeback, so a regular file is
    cut to the new length only after the write; other files are not cut."""
    if not out:
        sys.stdout.write(payload)
        return
    with os.fdopen(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(payload.encode())
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def _cmd_solve_mk(args) -> int:
    m0 = _load(args.p0, DiscreteMeasure.from_json)
    m1 = _load(args.p1, DiscreteMeasure.from_json)
    cost = parse_cost(args.cost)
    forbidden = (None if args.max_arc_length is None
                 else arcs_longer_than(m0, m1, args.max_arc_length))
    sol = solve_mk(m0, m1, cost, forbidden_arcs=forbidden)
    _emit(_result({"value": sol.value, "plan": sol.plan.plan.tolist(),
                   "method": "lp"}), args.out)
    return EXIT_PASS


def _triple_from_json(obj: dict) -> BoundedCouplingTriple:
    coupling = make_coupling(DiscreteMeasure.from_json(obj["source"]),
                             DiscreteMeasure.from_json(obj["target"]),
                             json_numbers(obj["plan"], "plan"))
    rows = json_numbers(obj["bounds"], "bounds", 2)
    n, m = coupling.plan.shape
    if rows.shape[1] != 3 or not all(
            i.is_integer() and j.is_integer() and 0 <= i < n and 0 <= j < m
            for i, j, _ in rows.tolist()):
        raise ConfigInvalid(
            f"bounds must be rows [i, j, bound] with integral i in [0, {n})"
            f" and j in [0, {m}), got {reprlib.repr(obj['bounds'])}")
    bounds = {(int(i), int(j)): b for i, j, b in rows.tolist()}
    if len(bounds) != len(rows):
        raise ConfigInvalid("bounds must not repeat a cell")
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
    _emit(_result({"value": value}), args.out)
    return EXIT_PASS


def _cmd_build_optimal(args) -> int:
    if args.seed < 0:
        raise ConfigInvalid(f"seed must be >= 0, got {args.seed}")
    m0 = _load(args.p0, DiscreteMeasure.from_json)
    m1 = _load(args.p1, DiscreteMeasure.from_json)
    cost = parse_cost(args.cost)
    if args.theorem == "2.1":
        rng = np.random.default_rng(args.seed)
        sol = solve_mk(m0, m1, cost)
        ens = build_opt_tilde(sol, lambda i, j: random_interval_set(rng))
        value = eval_tilde(ens, cost, 1)
    else:
        if args.bound is None:
            raise ConfigInvalid("--bound is required for theorem 2.6")
        value, triple = solve_bounded(m0, m1, cost, args.bound)
        ens = build_opt_bounded(triple)
    _emit(_result({"value": value, "ensemble": ens.to_json()}), args.out)
    return EXIT_PASS


def _cmd_oracle(args) -> int:
    cost = parse_cost(args.cost)
    x = np.asarray([float(v) for v in args.x.split(",")])
    y = np.asarray([float(v) for v in args.y.split(",")])
    grid = [float(v) for v in args.speeds.split(",")]
    value = oracle_min_path(x, y, cost, args.objective, args.k, grid,
                            cap=args.cap)
    _emit(_result({"value": value}), args.out)
    return EXIT_PASS


def _cmd_dual(args) -> int:
    m0 = _load(args.p0, DiscreteMeasure.from_json)
    f = _load(args.f, GridFunction.from_json)
    cost = parse_cost(args.cost)
    queries = (_load(args.grid, lambda raw: json_numbers(raw, "grid", 1, 2))
               if args.grid else m0.points)
    rep = verify_control_identity(m0, f, cost, args.i)
    payload = {"fl_values": inf_conv(f, cost, queries), "lhs": rep.lhs,
               "rhs": rep.rhs, "margin": rep.margin, "note": rep.note}
    _emit(_result(payload), args.out)
    return EXIT_PASS


# verify config-file key -> VerifyConfig field, also the dest of its flag
_VERIFY_FIELDS = {"theorem": "theorem", "seed": "seed", "trials": "trials",
                  "n_atoms": "n_atoms", "dim": "dim", "cost": "cost_spec",
                  "tolerance": "tolerance"}


def _cmd_verify(args) -> int:
    def config(raw: dict) -> VerifyConfig:
        """VerifyConfig of the fields a flag or the file sets; file wins."""
        if raw.get("theorem", args.theorem) is None:
            raise ConfigInvalid("no theorem: give --theorem or --config")
        fields = {name: getattr(args, name) for name in _VERIFY_FIELDS.values()
                  if getattr(args, name) is not None}
        if "cost_spec" in fields:
            fields["cost_spec"] = parse_cost(fields["cost_spec"]).to_spec()
        fields.update((_VERIFY_FIELDS[k], v) for k, v in raw.items()
                      if k in _VERIFY_FIELDS)
        return VerifyConfig(**fields)

    cfg = _load(args.config, config) if args.config else config({})
    report = verify(cfg)
    _emit(report.dumps() + "\n", args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _report_from_json(raw: dict) -> Report:
    """A saved report; its curve, when it has one, must be a table of named
    columns whose rows are as long as the columns."""
    curves = raw.get("curves", {})
    if not isinstance(curves, dict):
        raise ConfigInvalid(f"curves must be an object, got {curves!r}")
    if curves:
        columns, rows = curves.get("columns"), curves.get("rows")
        if not (isinstance(columns, list)
                and all(isinstance(c, str) for c in columns)):
            raise ConfigInvalid("curves need a list of column names")
        if not (isinstance(rows, list) and all(
                isinstance(r, list) and len(r) == len(columns) for r in rows)):
            raise ConfigInvalid(
                f"curves need a list of rows of {len(columns)} values")
    return Report(config=raw["config"], trials=raw["trials"],
                  summary=raw["summary"], curves=curves)


def _cmd_plot(args) -> int:
    report = _load(args.report, _report_from_json)
    _emit(emit_plot_data(report, args.kind), args.out)
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as one line on stderr and exits 2."""

    def error(self, message):
        self.exit(EXIT_REFUSED, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``main`` dispatches on the
    subcommand's name, so it holds no handlers and no mutable defaults."""
    parser = _Parser(
        prog="lagot",
        description="Discrete transport identities for non-convex radial "
                    "costs: solvers, path constructions, and verification.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: _Parser(
                                    parents=[common], **kw))

    p = sub.add_parser("solve-mk", help="solve the discrete transport LP")
    p.add_argument("--p0", required=True)
    p.add_argument("--p1", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--max-arc-length", type=float, default=None)

    p = sub.add_parser("eval", help="evaluate an ensemble or bounded triple")
    p.add_argument("--objective", required=True,
                   choices=["plain", "L1", "L2", "TV"])
    p.add_argument("--ensemble")
    p.add_argument("--triple")
    p.add_argument("--cost", required=True)

    p = sub.add_parser("build-optimal", help="construct an optimal ensemble")
    p.add_argument("--theorem", required=True, choices=["2.1", "2.6"])
    p.add_argument("--p0", required=True)
    p.add_argument("--p1", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("oracle", help="brute-force single-pair path oracle")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--objective", default="L1",
                   choices=["plain", "L1", "L2", "conv"])
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--speeds", default="0,0.5,1,2,4")
    p.add_argument("--cap", type=float, default=None)

    p = sub.add_parser("dual", help="infimal convolution / control identity")
    p.add_argument("--f", required=True)
    p.add_argument("--p0", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--grid", default=None)
    p.add_argument("--i", type=int, default=1, choices=[1, 2])

    p = sub.add_parser("verify", help="run a theorem-verification suite")
    p.add_argument("--config", default=None)
    p.add_argument("--theorem", default=None, choices=list(harness.THEOREMS))
    p.add_argument("--trials", type=int)
    p.add_argument("--n-atoms", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--cost", dest="cost_spec", metavar="COST")
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float, dest="tolerance", metavar="TOL")

    p = sub.add_parser("plot", help="emit CSV plot data from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--kind", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # a non-finite result is refused where it is printed, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            return globals()["_cmd_" + args.command.replace("-", "_")](args)
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
