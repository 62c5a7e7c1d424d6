"""Seeded theorem-verification suites and report assembly.

Each suite draws deterministic random instances, evaluates both sides of
the identity (or both ends of the inequality) it targets, and records the
signed margins.  A suite refuses to run when the sampled assumption checks
reject the cost for that identity, because a failure under the wrong
hypotheses would be meaningless.
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
    strict_margin: float = 1e-6

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
                "strict_margin": self.strict_margin}


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


def _rand_path(rng, dim: int, max_pieces: int = 4,
               min_disp: float = 1e-3) -> SteppedPath:
    """Random unit-horizon stepped path with nonzero displacement."""
    while True:
        k = int(rng.integers(1, max_pieces + 1))
        durations = rng.dirichlet(np.ones(k))
        velocities = rng.normal(0.0, 2.0, size=(k, dim))
        p = SteppedPath(start=rng.uniform(-1, 1, size=dim), horizon=1.0,
                        durations=durations, velocities=velocities)
        if np.linalg.norm(p.displacement) >= min_disp:
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


def _gate(theorem: str, cost: CostFunction) -> None:
    """Refuse a suite whose hypotheses the cost fails on sampled grids."""
    r_grid, u_grid = default_a1_grids()
    a1 = check_a1(cost, r_grid, u_grid)
    a2 = check_a2(cost, np.logspace(-1, 1.5, 30))
    need_a1i = theorem in ("thm2_1", "thm2_2", "cor2_4", "thm2_6", "cor2_7",
                           "cor2_8", "eq1_6")
    if need_a1i and not a1.ok(A1I):
        raise AssumptionRefused(
            f"{theorem} needs sublinearity; witness {a1.checks[A1I].witness}")
    if theorem == "thm2_2":
        if not a2.ok(A2I):
            raise AssumptionRefused(
                f"thm2_2 needs a non-decreasing cost; "
                f"witness {a2.checks[A2I].witness}")
        if not a1.ok(A1III):
            raise AssumptionRefused("thm2_2 needs positivity of the cost")
    if theorem == "prop2_3":
        if cost.r0 is None:
            raise AssumptionRefused(
                "prop2_3 needs a cost strictly decreasing past some r0")
        tail = np.linspace(cost.r0, 4.0 * cost.r0 + 1.0, 20)
        vals = np.atleast_1d(cost.eval(tail))
        if not np.all(np.diff(vals) < 0):
            raise AssumptionRefused("cost is not decreasing past its r0")
    if theorem == "eq1_6" and cost.analytic_c_ell != 0.0:
        raise AssumptionRefused(
            "the degenerate unmodified problem needs cost(u)/u -> 0")
    if theorem == "eq1_9_0416":
        u = np.linspace(0.0, 4.0, 21)
        vals = np.atleast_1d(cost.eval(u))
        mid = np.atleast_1d(cost.eval((u[:-2] + u[2:]) / 2.0))
        if np.any(mid > (vals[:-2] + vals[2:]) / 2.0 + 1e-12):
            raise AssumptionRefused("the convex-case identity needs a convex cost")


# ---------------------------------------------------------------------------
# suites: each yields (digest input, values, margins, passed, curve rows) per
# trial; ``verify`` numbers the trials and builds the report
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
    for rng in rngs:
        m0 = _rand_measure(rng, cfg.n_atoms, cfg.dim)
        m1 = _rand_measure(rng, cfg.n_atoms, cfg.dim)
        sol = solve_mk(m0, m1, cost)
        ens = build_opt_tilde(sol, lambda i, j: random_interval_set(rng))
        v1 = eval_tilde(ens, cost, 1)
        eq_margin = v1 - sol.value
        oracle_margin = _oracle_margin(
            ((m0.points[i], m1.points[j]) for i, j, _ in sol.plan.cells()),
            cost)
        yield ([m0.to_json(), m1.to_json()],
               {"transport": sol.value, "modified_1": v1},
               {"equality": eq_margin, "oracle": oracle_margin},
               abs(eq_margin) <= cfg.tolerance
               and oracle_margin >= -cfg.tolerance, ())


def _suite_thm2_2(cfg, cost, rngs):
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
               {"equality": v1 - v2, "n_gap": n_gap,
                "ordering": float(rand_margin)},
               abs(v1 - v2) <= cfg.tolerance and n_gap <= 1e-12
               and rand_margin >= -1e-12, ())


def _suite_prop2_3(cfg, cost, rngs):
    dim = max(2, cfg.dim)
    span = 2.0 * (cost.r0 or 1.0)
    x0 = np.zeros(dim)
    x1 = np.zeros(dim)
    x1[0] = span
    direct = float(cost.eval(span))                      # transport value
    detour = cost_li(detour_path(x0, x1), cost, 2)       # beats it
    gap = direct - detour
    yield ([list(x0), list(x1), cost.name],
           {"transport": direct, "detour_modified_2": detour}, {"gap": gap},
           gap >= cfg.strict_margin, ())


def _suite_cor2_4(cfg, cost, rngs):
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
               {"equality": rep.margin, "oracle": oracle_margin},
               abs(rep.margin) <= cfg.tolerance
               and oracle_margin >= -cfg.tolerance, ())


def _suite_thm2_6(cfg, cost, rngs):
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
               {"equality": lhs - rhs, "ordering": float(rand_margin)},
               abs(lhs - rhs) <= cfg.tolerance
               and rand_margin >= -cfg.tolerance, ())


def _suite_cor2_7(cfg, cost, rngs):
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
        final_gap = values[-1] - c_ell * t1
        yield ([m0.to_json(), m1.to_json()],
               {"limit": c_ell * t1, "final": values[-1]},
               {"monotone": mono, "lower": lower, "upper": upper,
                "final_gap": final_gap},
               mono >= -cfg.tolerance and lower >= -cfg.tolerance
               and upper <= cfg.tolerance and final_gap <= 1e-3,
               [[float(c), float(v)] for c, v in zip(caps, values)])


def _suite_cor2_8(cfg, cost, rngs):
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
               {"formula": eq, "monotone": mono},
               eq <= cfg.tolerance and mono >= -cfg.tolerance,
               [[float(r), float(v)] for r, v in zip(r_grid, values)])


def _suite_eq1_6(cfg, cost, rngs):
    x, y = np.zeros(1), np.ones(1)
    ns = list(range(1, 33))
    values = [cost_plain(fast_path(x, y, n), cost) for n in ns]
    formula = [float(cost.eval(float(n))) / n for n in ns]
    eq = max(abs(v - f) for v, f in zip(values, formula))
    mono = min(values[k] - values[k + 1] for k in range(len(values) - 1))
    yield ([cost.name, ns], {"first": values[0], "last": values[-1]},
           {"formula": eq, "monotone": mono},
           eq <= cfg.tolerance and mono >= -cfg.tolerance
           and values[-1] < values[0],
           [[float(n), float(v)] for n, v in zip(ns, values)])


def _suite_eq1_9(cfg, cost, rngs):
    for span in (0.5, 1.0, 2.0):
        o = oracle_min_path(np.zeros(1), np.array([span]), cost, "conv", 4,
                            ORACLE_GRID)
        target = float(cost.eval(span))
        linear = cost_li(linear_path(np.zeros(1), np.array([span])), cost, 1)
        yield ([cost.name, span], {"oracle": o, "direct": target},
               {"equality": o - target},
               abs(o - target) <= cfg.tolerance
               and abs(linear - target) <= 1e-12, ())


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
               {"time_change": worst_eq, "roundtrip": worst_rt},
               worst_eq <= 1e-12 and worst_rt <= 1e-12, ())


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
    """Run one theorem suite; deterministic given the config."""
    cost = costmod.from_spec(cfg.cost_spec)
    _gate(cfg.theorem, cost)
    suite, columns = _SUITES[cfg.theorem]
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    rngs = [np.random.default_rng(s) for s in seeds]
    trials, rows = [], []
    for t, (key, values, margins, ok, curve) in enumerate(
            suite(cfg, cost, rngs)):
        trials.append({"index": t, "digest": _digest(key), "values": values,
                       "margins": margins, "passed": bool(ok)})
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
