"""Seeded theorem-verification suites and report assembly.

Each suite refuses a cost outside its own hypotheses (a failure under the
wrong hypotheses would be meaningless), then draws deterministic random
instances and yields the checks of the identity or inequality it targets.
``verify`` alone turns the checks into margins and pass flags.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import costs as costmod
from .costs import (A1I, A1III, A2I, CostFunction, check_a1, check_a2,
                    default_a1_grids)
from .duality import GridFunction, verify_control_identity
from .ensembles import (BoundedCouplingTriple, EnsembleMember,
                        TransportEnsemble, build_opt_bounded, build_opt_tilde,
                        eval_bounded, eval_tilde, eval_tv, induced_triple,
                        oracle_min_path, solve_bounded)
from .errors import AssumptionRefused, ConfigInvalid, UnknownKind
from .measures import Coupling, DiscreteMeasure, random_measure
from .mk_solver import solve_mk, t_p
from .paths import (SteppedPath, compress, cost_li, cost_plain, detour_path,
                    fast_path, linear_path, n1, n2, random_interval_set,
                    stretch, sup_norm)

ORACLE_GRID = (0.0, 0.5, 1.0, 2.0, 4.0)
FORMAT_VERSION = 1
# least gap by which prop2_3's detour must beat the direct transport value
STRICT_MARGIN = 1e-6
# check kind -> whether (value, bound) holds; every comparison with NaN is
# false, so a NaN check holds for no kind
_HOLDS = {"eq": lambda v, b: abs(v) <= b, "le": lambda v, b: v <= b,
          "ge": lambda v, b: v >= b, "gt": lambda v, b: v > b}


@dataclass(frozen=True)
class VerifyConfig:
    theorem: str
    seed: int = 0
    trials: int = 20
    n_atoms: int = 4
    dim: int = 2
    cost_spec: dict = field(default_factory=lambda: {"name": "power",
                                                     "params": [0.5]})
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ConfigInvalid(f"unknown theorem {self.theorem!r}")
        if self.trials < 1:
            raise ConfigInvalid("trials must be >= 1")
        if self.n_atoms < 1 or self.dim < 1:
            raise ConfigInvalid("n_atoms and dim must be >= 1")
        if not 0 < self.tolerance < np.inf:
            raise ConfigInvalid("tolerance must be positive and finite")

    def to_json(self) -> dict:
        return {"theorem": self.theorem, "seed": self.seed,
                "trials": self.trials, "n_atoms": self.n_atoms,
                "dim": self.dim, "cost": self.cost_spec,
                "tolerance": self.tolerance,
                "strict_margin": STRICT_MARGIN}


@dataclass(frozen=True)
class Report:
    config: dict
    trials: list
    summary: dict
    curves: dict

    def to_json(self) -> dict:
        return {"format_version": FORMAT_VERSION, "config": self.config,
                "trials": self.trials, "summary": self.summary,
                "curves": self.curves}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @property
    def passed(self) -> bool:
        return bool(self.summary["passed"])


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _rand_measure(rng, n_atoms: int, dim: int) -> DiscreteMeasure:
    """Random measure of 1..n_atoms atoms in the box [-2, 2]^dim."""
    return random_measure(rng, int(rng.integers(1, n_atoms + 1)), dim, 2.0)


def _rand_path(rng, dim: int) -> SteppedPath:
    """Random unit-horizon stepped path of 1-4 pieces with displacement at
    least 1e-3."""
    while True:
        k = int(rng.integers(1, 5))
        durations = rng.dirichlet(np.ones(k))
        velocities = rng.normal(0.0, 2.0, size=(k, dim))
        p = SteppedPath(start=rng.uniform(-1, 1, size=dim), horizon=1.0,
                        durations=durations, velocities=velocities)
        if np.linalg.norm(p.displacement) >= 1e-3:
            return p


def _rand_bounded_triple(rng, n_atoms: int, dim: int) -> BoundedCouplingTriple:
    """Random coupling with a finite-support bound law, M >= |x - y| per
    cell."""
    m0 = _rand_measure(rng, n_atoms, dim)
    m1 = _rand_measure(rng, n_atoms, dim)
    plan = np.outer(m0.weights, m1.weights)
    coupling = Coupling(source=m0, target=m1, plan=plan)
    levels = np.sort(rng.uniform(0.5, 2.0, size=3))
    bounds = {}
    for i, j, _ in coupling.cells(threshold=0.0):
        disp = coupling.displacement(i, j)
        level = float(levels[int(rng.integers(0, 3))])
        bounds[(i, j)] = max(disp, level * (1.0 + disp))
    return BoundedCouplingTriple(coupling=coupling, bound_assignment=bounds)


def _rand_bounded_ensemble(rng, dim: int) -> TransportEnsemble:
    """Random admissible ensemble: each member's bound dominates its
    sup-speed."""
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    members = []
    for w in weights:
        p = _rand_path(rng, dim)
        bound = sup_norm(p) * float(1.0 + rng.uniform(0.0, 1.0))
        members.append(EnsembleMember(weight=float(w), path=p, bound=bound))
    return TransportEnsemble(tuple(members))


def _sublinear(theorem: str, cost: CostFunction):
    """The (A1) report of ``cost``; refuses a cost that is not sublinear
    (A1i) on the sampled grids."""
    a1 = check_a1(cost, *default_a1_grids())
    if not a1.ok(A1I):
        raise AssumptionRefused(
            f"{theorem} needs sublinearity; witness {a1.checks[A1I].witness}")
    return a1


# ---------------------------------------------------------------------------
# suites: each refuses a cost outside its hypotheses, then yields (digest
# input, values, checks, curve rows) per trial; a check is (name, value,
# kind, bound) with kind a key of _HOLDS
# ---------------------------------------------------------------------------

def _oracle_margin(pairs, cost: CostFunction) -> float:
    """Worst gap of the grid path oracle over cost(|y - x|) across the
    (x, y) pairs that move; 0 when none does."""
    margin = np.inf
    for x, y in pairs:
        disp = float(np.linalg.norm(y - x))
        if disp > 0.0:
            o = oracle_min_path(x, y, cost, "L1", 4, ORACLE_GRID)
            margin = min(margin, o - float(cost.eval(disp)))
    return float(margin) if np.isfinite(margin) else 0.0


def _suite_thm2_1(cfg, cost, rngs):
    _sublinear("thm2_1", cost)
    for rng in rngs:
        m0 = _rand_measure(rng, cfg.n_atoms, cfg.dim)
        m1 = _rand_measure(rng, cfg.n_atoms, cfg.dim)
        sol = solve_mk(m0, m1, cost)
        ens = build_opt_tilde(sol, lambda i, j: random_interval_set(rng))
        v1 = eval_tilde(ens, cost, 1)
        oracle_margin = _oracle_margin(
            ((m0.points[i], m1.points[j]) for i, j, _ in sol.plan.cells()),
            cost)
        yield ([m0.to_json(), m1.to_json()],
               {"transport": sol.value, "modified_1": v1},
               [("equality", v1 - sol.value, "eq", cfg.tolerance),
                ("oracle", oracle_margin, "ge", -cfg.tolerance)], ())


def _suite_thm2_2(cfg, cost, rngs):
    a1 = _sublinear("thm2_2", cost)
    a2 = check_a2(cost, np.logspace(-1, 1.5, 30))
    if not a2.ok(A2I):
        raise AssumptionRefused(
            f"thm2_2 needs a non-decreasing cost; "
            f"witness {a2.checks[A2I].witness}")
    if not a1.ok(A1III):
        raise AssumptionRefused("thm2_2 needs positivity of the cost")
    for rng in rngs:
        m0 = _rand_measure(rng, cfg.n_atoms, cfg.dim)
        m1 = _rand_measure(rng, cfg.n_atoms, cfg.dim)
        sol = solve_mk(m0, m1, cost)
        ens = build_opt_tilde(sol, lambda i, j: random_interval_set(rng))
        v1 = eval_tilde(ens, cost, 1)
        v2 = eval_tilde(ens, cost, 2)
        n_gap = max(abs(n1(m.path) - n2(m.path)) for m in ens.members)
        rand_margin = np.inf
        for _ in range(5):
            p = _rand_path(rng, cfg.dim)
            rand_margin = min(rand_margin,
                              cost_li(p, cost, 1) - cost_li(p, cost, 2))
        yield ([m0.to_json(), m1.to_json()],
               {"modified_1": v1, "modified_2": v2},
               [("equality", v1 - v2, "eq", cfg.tolerance),
                ("n_gap", n_gap, "le", 1e-12),
                ("ordering", float(rand_margin), "ge", -1e-12)], ())


def _suite_prop2_3(cfg, cost, rngs):
    if cost.r0 is None:
        raise AssumptionRefused(
            "prop2_3 needs a cost strictly decreasing past some r0")
    tail = np.linspace(cost.r0, 4.0 * cost.r0 + 1.0, 20)
    if not np.all(np.diff(np.atleast_1d(cost.eval(tail))) < 0):
        raise AssumptionRefused("cost is not decreasing past its r0")
    dim = max(2, cfg.dim)
    span = 2.0 * (cost.r0 or 1.0)
    x0 = np.zeros(dim)
    x1 = np.zeros(dim)
    x1[0] = span
    direct = float(cost.eval(span))                      # transport value
    detour = cost_li(detour_path(x0, x1), cost, 2)       # beats it
    yield ([list(x0), list(x1), cost.name],
           {"transport": direct, "detour_modified_2": detour},
           [("gap", direct - detour, "ge", STRICT_MARGIN)], ())


def _suite_cor2_4(cfg, cost, rngs):
    _sublinear("cor2_4", cost)
    for rng in rngs:
        m0 = _rand_measure(rng, cfg.n_atoms, cfg.dim)
        grid_pts = rng.uniform(-2.0, 2.0, size=(5, cfg.dim))
        f = GridFunction(points=grid_pts,
                         values=rng.uniform(0.0, 2.0, size=5))
        rep = verify_control_identity(m0, f, cost, 1)
        oracle_margin = _oracle_margin(
            ((m0.points[k], f.points[j]) for k, j in rep.selected), cost)
        yield ([m0.to_json(), f.to_json()],
               {"lhs": rep.lhs, "rhs": rep.rhs},
               [("equality", rep.margin, "eq", cfg.tolerance),
                ("oracle", oracle_margin, "ge", -cfg.tolerance)], ())


def _suite_thm2_6(cfg, cost, rngs):
    _sublinear("thm2_6", cost)
    for rng in rngs:
        triple = _rand_bounded_triple(rng, cfg.n_atoms, cfg.dim)
        built = build_opt_bounded(triple)
        lhs = eval_bounded(built, cost)
        rhs = eval_tv(triple, cost)
        rand_margin = np.inf
        for _ in range(4):
            ens = _rand_bounded_ensemble(rng, cfg.dim)
            rand_margin = min(rand_margin,
                              eval_bounded(ens, cost)
                              - eval_tv(induced_triple(ens), cost))
        yield (triple.coupling.source.to_json(),
               {"dynamic": lhs, "static": rhs},
               [("equality", lhs - rhs, "eq", cfg.tolerance),
                ("ordering", float(rand_margin), "ge", -cfg.tolerance)], ())


def _suite_cor2_7(cfg, cost, rngs):
    _sublinear("cor2_7", cost)
    c_ell = costmod.c_ell(cost, tail_points=np.logspace(4, 8, 5))
    for rng in rngs:
        m0 = _rand_measure(rng, cfg.n_atoms, cfg.dim)
        m1 = _rand_measure(rng, cfg.n_atoms, cfg.dim)
        t1 = t_p(m0, m1, 1.0)
        diam = m0.diameter_to(m1)
        caps = [max(diam, c) for c in (1.0, 10.0, 100.0, 1e4, 1e8)]
        # every cap >= diam admits every arc, so solve_bounded's LP is t1's
        values = [float(cost.eval(R) / R * t1) for R in caps]
        mono = min(values[k] - values[k + 1] for k in range(len(values) - 1))
        lower = min(v - c_ell * t1 for v in values)
        upper = max(values[k] - c_ell * t1
                    - (float(cost.eval(caps[k])) / caps[k] - c_ell) * t1
                    for k in range(len(values)))
        yield ([m0.to_json(), m1.to_json()],
               {"limit": c_ell * t1, "final": values[-1]},
               [("monotone", mono, "ge", -cfg.tolerance),
                ("lower", lower, "ge", -cfg.tolerance),
                ("upper", upper, "le", cfg.tolerance),
                ("final_gap", values[-1] - c_ell * t1, "le", 1e-3)],
               [[float(c), float(v)] for c, v in zip(caps, values)])


def _suite_cor2_8(cfg, cost, rngs):
    _sublinear("cor2_8", cost)
    for rng in rngs:
        m0 = _rand_measure(rng, cfg.n_atoms, cfg.dim)
        m1 = _rand_measure(rng, cfg.n_atoms, cfg.dim)
        t1 = t_p(m0, m1, 1.0)
        diam = max(m0.diameter_to(m1), 1e-6)
        r_grid = diam * np.array([1.0, 1.5, 2.0, 3.0, 4.0])
        values = [solve_bounded(m0, m1, cost, r)[0] for r in r_grid]
        formula = [float(cost.eval(r)) / r * t1 for r in r_grid]
        eq = max(abs(v - f) for v, f in zip(values, formula))
        mono = min(values[k] - values[k + 1] for k in range(len(values) - 1))
        yield ([m0.to_json(), m1.to_json()], {"t1": t1, "diameter": diam},
               [("formula", eq, "le", cfg.tolerance),
                ("monotone", mono, "ge", -cfg.tolerance)],
               [[float(r), float(v)] for r, v in zip(r_grid, values)])


def _suite_eq1_6(cfg, cost, rngs):
    _sublinear("eq1_6", cost)
    if cost.analytic_c_ell != 0.0:
        raise AssumptionRefused(
            "the degenerate unmodified problem needs cost(u)/u -> 0")
    x, y = np.zeros(1), np.ones(1)
    ns = list(range(1, 33))
    values = [cost_plain(fast_path(x, y, n), cost) for n in ns]
    formula = [float(cost.eval(float(n))) / n for n in ns]
    eq = max(abs(v - f) for v, f in zip(values, formula))
    mono = min(values[k] - values[k + 1] for k in range(len(values) - 1))
    yield ([cost.name, ns], {"first": values[0], "last": values[-1]},
           [("formula", eq, "le", cfg.tolerance),
            ("monotone", mono, "ge", -cfg.tolerance),
            ("decay", values[0] - values[-1], "gt", 0.0)],
           [[float(n), float(v)] for n, v in zip(ns, values)])


def _suite_eq1_9(cfg, cost, rngs):
    u = np.linspace(0.0, 4.0, 21)
    vals = np.atleast_1d(cost.eval(u))
    mid = np.atleast_1d(cost.eval((u[:-2] + u[2:]) / 2.0))
    if np.any(mid > (vals[:-2] + vals[2:]) / 2.0 + 1e-12):
        raise AssumptionRefused("the convex-case identity needs a convex cost")
    for span in (0.5, 1.0, 2.0):
        o = oracle_min_path(np.zeros(1), np.array([span]), cost, "conv", 4,
                            ORACLE_GRID)
        target = float(cost.eval(span))
        linear = cost_li(linear_path(np.zeros(1), np.array([span])), cost, 1)
        yield ([cost.name, span], {"oracle": o, "direct": target},
               [("equality", o - target, "eq", cfg.tolerance),
                ("linear", linear - target, "eq", 1e-12)], ())


def _suite_eq1_11(cfg, cost, rngs):
    for t, rng in enumerate(rngs):
        worst_eq = 0.0
        worst_rt = 0.0
        for _ in range(5):
            p = _rand_path(rng, cfg.dim)
            lhs = cost_plain(stretch(p, n1(p)), cost)
            rhs = cost_li(p, cost, 1)
            worst_eq = max(worst_eq, abs(lhs - rhs))
            big_t = float(1.0 + rng.uniform(0.0, 5.0))
            q = compress(stretch(p, big_t))
            worst_rt = max(
                worst_rt,
                float(np.max(np.abs(q.durations - p.durations))),
                float(np.max(np.abs(q.velocities - p.velocities))))
        yield ([cfg.seed, t], {},
               [("time_change", worst_eq, "le", 1e-12),
                ("roundtrip", worst_rt, "le", 1e-12)], ())


# theorem -> (suite, curve columns or None)
_SUITES = {
    "thm2_1": (_suite_thm2_1, None),
    "thm2_2": (_suite_thm2_2, None),
    "prop2_3": (_suite_prop2_3, None),
    "cor2_4": (_suite_cor2_4, None),
    "thm2_6": (_suite_thm2_6, None),
    "cor2_7": (_suite_cor2_7, ("R", "value")),
    "cor2_8": (_suite_cor2_8, ("r", "value")),
    "eq1_6": (_suite_eq1_6, ("n", "value")),
    "eq1_9_0416": (_suite_eq1_9, None),
    "eq1_11_0508": (_suite_eq1_11, None),
}
THEOREMS = tuple(_SUITES)


def verify(cfg: VerifyConfig) -> Report:
    """Run one theorem suite; deterministic given the config.  A trial's
    margins are its checks' values, and it passes when every check holds."""
    cost = costmod.from_spec(cfg.cost_spec)
    suite, columns = _SUITES[cfg.theorem]
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    rngs = (np.random.default_rng(s) for s in seeds)
    trials, rows = [], []
    for t, (key, values, checks, curve) in enumerate(suite(cfg, cost, rngs)):
        trials.append({
            "index": t, "digest": _digest(key), "values": values,
            "margins": {name: v for name, v, _, _ in checks},
            "passed": all(_HOLDS[kind](v, b) for _, v, kind, b in checks)})
        rows.extend(curve)
    curves = ({} if columns is None else
              {"kind": cfg.theorem, "columns": list(columns), "rows": rows})
    margins = [m for tr in trials for m in tr["margins"].values()]
    summary = {
        "n_trials": len(trials),
        "pass_count": sum(1 for tr in trials if tr["passed"]),
        "min_margin": float(min(margins)),
        "max_margin": float(max(margins)),
        "passed": all(tr["passed"] for tr in trials),
    }
    return Report(config=cfg.to_json(), trials=trials, summary=summary,
                  curves=curves)


def emit_plot_data(report: Report, kind: str) -> str:
    """CSV rows for the curve a suite recorded (fast-path decay, cap
    sweeps)."""
    if _SUITES.get(kind, (None, None))[1] is None:
        raise UnknownKind(kind)
    if not report.trials:
        raise ConfigInvalid("empty report")
    if report.curves.get("kind") != kind:
        raise UnknownKind(
            f"report holds {report.curves.get('kind')!r} data, not {kind!r}")
    lines = [",".join(report.curves["columns"])]
    lines.extend(",".join(repr(v) for v in row)
                 for row in report.curves["rows"])
    return "\n".join(lines) + "\n"
