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
from .costs import A1I, A1III, A2I, CostFunction, power_cost, require
from .duality import GridFunction, verify_control_identity
from .ensembles import (BoundedCouplingTriple, EnsembleStack,
                        build_opt_bounded_each, build_opt_tilde_each,
                        eval_bounded_each, eval_tilde_each, eval_tv_each,
                        eval_tv_induced_each, oracle_min_path,
                        solve_bounded_each)
from .errors import AssumptionRefused, ConfigInvalid, LagotError, UnknownKind
from .measures import (DiscreteMeasure, flat_dirichlet, make_coupling,
                       pairwise_distances, random_measure, row_sum)
# solve_mk and t_p stay bound here for perfbench's import-site test
from .mk_solver import solve_mk, solve_mk_each, t_p  # noqa: F401
from .paths import (PathBlock, block_of, compress, cost_li, cost_plain,
                    detour_path, fast_path, lengths, linear_path, n1, n2,
                    random_interval_set, stretch)

ORACLE_GRID = (0.0, 0.5, 1.0, 2.0, 4.0)
FORMAT_VERSION = 1
# least gap by which prop2_3's detour must beat the direct transport value
STRICT_MARGIN = 1e-6
# the largest trial count, atom count and dimension a VerifyConfig admits; a
# larger one is refused before anything is drawn or allocated
LIMITS = {"trials": 10 ** 5, "n_atoms": 10 ** 3, "dim": 10 ** 3}
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
        for name in ("seed", "trials", "n_atoms", "dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigInvalid(
                    f"{name} must be an integer, got {value!r}")
        spec = self.cost_spec
        if not (isinstance(spec, dict) and isinstance(spec.get("name"), str)):
            raise ConfigInvalid(
                f'cost must be {{"name": ..., "params": [...]}}, got {spec!r}')
        try:
            costmod.from_spec(spec)
        except (LagotError, TypeError, ValueError) as exc:
            raise ConfigInvalid(f"cost {spec!r}: {exc}") from exc
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ConfigInvalid("trials must be >= 1")
        if self.n_atoms < 1 or self.dim < 1:
            raise ConfigInvalid("n_atoms and dim must be >= 1")
        for name, top in LIMITS.items():
            if getattr(self, name) > top:
                raise ConfigInvalid(
                    f"{name} must be <= {top}, got {getattr(self, name)}")
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or \
                not 0 < tol < np.inf:
            raise ConfigInvalid(
                f"tolerance must be positive and finite, got {tol!r}")

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


def _rand_pairs(cfg, rngs) -> list:
    """Two random measures, m0 then m1, from each generator in turn."""
    return [tuple(_rand_measure(rng, cfg.n_atoms, cfg.dim) for _ in range(2))
            for rng in rngs]


def _rand_rows(rng, dim: int, n: int, extra: bool = False) -> tuple:
    """n random unit-horizon rows (start, 1.0, durations, velocities) of
    1-4 pieces, each with displacement at least 1e-3; with ``extra``, also
    the uniform [0, 1) number drawn after each row."""
    rows, drawn = [], []
    while len(rows) < n:
        k = int(rng.integers(1, 5))
        durations = flat_dirichlet(rng, k)
        velocities = rng.normal(0.0, 2.0, size=(k, dim))
        start = rng.uniform(-1, 1, size=dim)
        # each coordinate added first to last, as row_sum adds it; the
        # length is never below the largest |coordinate|, so a long one
        # decides without the kernel calls and only a short one is measured
        disp = [0.0] * dim
        for d, v in zip(durations.tolist(), velocities.tolist()):
            disp = [a + d * b for a, b in zip(disp, v)]
        if max(map(abs, disp)) >= 1e-3 or lengths(
                row_sum((durations[:, None] * velocities).T)) >= 1e-3:
            rows.append((start, 1.0, durations, velocities))
            if extra:  # what rng.uniform(0.0, 1.0) returns
                drawn.append(rng.random())
    return rows, drawn


def _rand_paths(rngs, dim: int, n: int,
                extra: bool = False) -> tuple[PathBlock, np.ndarray]:
    """The n rows of _rand_rows from each generator in turn as one block,
    and the numbers drawn."""
    rows, drawn = zip(*[_rand_rows(rng, dim, n, extra) for rng in rngs])
    return block_of(*zip(*sum(rows, []))), np.array(sum(drawn, []))


def _rand_bounded_triple(rng, n_atoms: int, dim: int) -> BoundedCouplingTriple:
    """Random coupling with a finite-support bound law, M >= |x - y| per
    cell."""
    m0 = _rand_measure(rng, n_atoms, dim)
    m1 = _rand_measure(rng, n_atoms, dim)
    coupling = make_coupling(m0, m1, np.outer(m0.weights, m1.weights))
    levels = np.sort(rng.uniform(0.5, 2.0, size=3))
    ii, jj = coupling.support
    disp = coupling.distances[ii, jj]
    level = levels[rng.integers(0, 3, size=len(ii))]  # one pick per cell
    bounds = np.maximum(disp, level * (1.0 + disp))
    return BoundedCouplingTriple(coupling=coupling, bound_assignment=dict(
        zip(zip(ii.tolist(), jj.tolist()), bounds.tolist())))


def _rand_bounded_ensembles(rngs, dim: int, n: int) -> EnsembleStack:
    """n random admissible ensembles from each generator in turn, drawn as
    n one at a time would be, all in one stack: each member's bound
    dominates its sup-speed."""
    weights, rows, drawn = [], [], []
    for rng in rngs:
        for _ in range(n):
            weights.append(flat_dirichlet(rng, int(rng.integers(1, 4))))
            more, after = _rand_rows(rng, dim, len(weights[-1]), extra=True)
            rows += more
            drawn += after
    paths = block_of(*zip(*rows))
    bounds = paths.speeds.max(axis=1) * (1.0 + np.array(drawn))
    cuts = np.cumsum([0] + [len(w) for w in weights]).tolist()
    return EnsembleStack(paths, np.concatenate(weights), bounds, cuts)


# ---------------------------------------------------------------------------
# suites: each refuses a cost outside its hypotheses, draws every trial from
# its own generator, evaluates all trials as one block, then yields (digest
# input, values, checks, curve rows) per trial; a check is (name, value,
# kind, bound) with kind a key of _HOLDS
# ---------------------------------------------------------------------------

def _per_trial(values, cuts, reduce) -> list:
    """reduce(values[lo:hi]) as a float for each trial's run of rows."""
    return [float(reduce(values[lo:hi])) for lo, hi in zip(cuts, cuts[1:])]


def _oracle_margins(trials, cost: CostFunction) -> list:
    """Per trial (xs, ys, ii, jj), the worst gap of the grid path oracle
    over cost(|y - x|) across the cells (i, j) = (ii[r], jj[r]) whose xs[i]
    moves to a different ys[j], every trial's cells scored in one oracle
    call; 0 for a trial where none moves."""
    cuts = np.cumsum([0] + [len(t[2]) for t in trials]).tolist()
    xs, ys = (np.concatenate([t[k][t[k + 2]] for t in trials]) for k in (0, 1))
    dist = pairwise_distances(xs, ys, paired=True)
    gaps, moving = np.full(len(dist), np.inf), dist > 0.0
    gaps[moving] = (oracle_min_path(xs[moving], ys[moving], cost, "L1", 4,
                                    ORACLE_GRID) - cost.eval(dist[moving]))
    return [0.0 if g == np.inf else g for g in _per_trial(gaps, cuts, np.min)]


def _opt_tilde_trials(cfg, cost, rngs) -> tuple:
    """Per generator, two random measures, their optimal plan (all in one
    block) and a random moving set per plan cell; the measure pairs, the
    solutions, and every plan's build_opt_tilde ensemble in one stack."""
    rngs = list(rngs)
    pairs = _rand_pairs(cfg, rngs)
    sols = solve_mk_each(pairs, cost)
    sets = [[random_interval_set(rng) for _ in sol.plan.support[0]]
            for rng, sol in zip(rngs, sols)]
    return pairs, sols, build_opt_tilde_each(sols, sets)


def _suite_thm2_1(cfg, cost, rngs):
    require(cost, "thm2_1", A1I)
    pairs, sols, stack = _opt_tilde_trials(cfg, cost, rngs)
    v1 = eval_tilde_each(stack, cost, 1)
    oracle = _oracle_margins([(s.plan.source.points, s.plan.target.points,
                               *s.plan.support) for s in sols], cost)
    for (m0, m1), sol, v, margin in zip(pairs, sols, v1, oracle):
        yield ([m0.to_json(), m1.to_json()],
               {"transport": sol.value, "modified_1": v},
               [("equality", v - sol.value, "eq", cfg.tolerance),
                ("oracle", margin, "ge", -cfg.tolerance)], ())


def _suite_thm2_2(cfg, cost, rngs):
    require(cost, "thm2_2", A1I, A2I, A1III)
    rngs = list(rngs)
    pairs, sols, stack = _opt_tilde_trials(cfg, cost, rngs)
    paths = _rand_paths(rngs, cfg.dim, 5)[0]
    v1, v2 = (eval_tilde_each(stack, cost, i) for i in (1, 2))
    n_gap = _per_trial(np.abs(n1(stack.paths) - n2(stack.paths)),
                       stack.cuts, np.max)
    rand_margin = _per_trial(cost_li(paths, cost, 1) - cost_li(paths, cost, 2),
                             range(0, 5 * len(rngs) + 1, 5), np.min)
    for (m0, m1), a, b, gap, rand in zip(pairs, v1, v2, n_gap, rand_margin):
        yield ([m0.to_json(), m1.to_json()],
               {"modified_1": a, "modified_2": b},
               [("equality", a - b, "eq", cfg.tolerance),
                ("n_gap", gap, "le", 1e-12),
                ("ordering", rand, "ge", -1e-12)], ())


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
    detour = float(cost_li(detour_path(x0, x1), cost, 2)[0])  # beats it
    yield ([list(x0), list(x1), cost.name],
           {"transport": direct, "detour_modified_2": detour},
           [("gap", direct - detour, "ge", STRICT_MARGIN)], ())


def _suite_cor2_4(cfg, cost, rngs):
    require(cost, "cor2_4", A1I)
    drawn = []
    for rng in rngs:
        m0 = _rand_measure(rng, cfg.n_atoms, cfg.dim)
        grid_pts = rng.uniform(-2.0, 2.0, size=(5, cfg.dim))
        f = GridFunction(points=grid_pts,
                         values=rng.uniform(0.0, 2.0, size=5))
        drawn.append((m0, f, verify_control_identity(m0, f, cost, 1)))
    oracle = _oracle_margins([(m0.points, f.points,
                               *np.transpose(rep.selected))
                              for m0, f, rep in drawn], cost)
    for (m0, f, rep), margin in zip(drawn, oracle):
        yield ([m0.to_json(), f.to_json()],
               {"lhs": rep.lhs, "rhs": rep.rhs},
               [("equality", rep.margin, "eq", cfg.tolerance),
                ("oracle", margin, "ge", -cfg.tolerance)], ())


def _suite_thm2_6(cfg, cost, rngs):
    require(cost, "thm2_6", A1I)
    rngs = list(rngs)
    triples = [_rand_bounded_triple(rng, cfg.n_atoms, cfg.dim)
               for rng in rngs]
    rand = _rand_bounded_ensembles(rngs, cfg.dim, 4)
    gaps = [v - tv for v, tv in zip(eval_bounded_each(rand, cost),
                                    eval_tv_induced_each(rand, cost))]
    dynamic = eval_bounded_each(build_opt_bounded_each(triples), cost)
    for t, (triple, lhs, rhs) in enumerate(
            zip(triples, dynamic, eval_tv_each(triples, cost))):
        yield (triple.coupling.source.to_json(),
               {"dynamic": lhs, "static": rhs},
               [("equality", lhs - rhs, "eq", cfg.tolerance),
                ("ordering", float(min(np.inf, *gaps[4 * t:4 * t + 4])),
                 "ge", -cfg.tolerance)], ())


def _suite_cor2_7(cfg, cost, rngs):
    require(cost, "cor2_7", A1I)
    c_ell = costmod.c_ell(cost)
    pairs = _rand_pairs(cfg, rngs)
    for (m0, m1), sol in zip(pairs, solve_mk_each(pairs, power_cost(1.0))):
        t1, diam = sol.value, float(sol.plan.distances.max())
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
    require(cost, "cor2_8", A1I)
    pairs = _rand_pairs(cfg, rngs)
    grids = [max(float(pairwise_distances(m0.points, m1.points).max()), 1e-6)
             * np.array([1.0, 1.5, 2.0, 3.0, 4.0]) for m0, m1 in pairs]
    for (m0, m1), r_grid, ladder in zip(
            pairs, grids, solve_bounded_each(pairs, cost, grids)):
        # rung 1, the diameter, admits every arc, so its coupling is the
        # power:1.0 optimum, priced at the distances: t1 bit for bit (as
        # long as a rung stays at or above the diameter)
        c, diam = ladder[0][1].coupling, float(r_grid[0])
        t1 = float((c.plan * c.distances).sum())
        values = [v for v, _ in ladder]
        formula = [float(cost.eval(r)) / r * t1 for r in r_grid]
        eq = max(abs(v - f) for v, f in zip(values, formula))
        mono = min(values[k] - values[k + 1] for k in range(len(values) - 1))
        yield ([m0.to_json(), m1.to_json()], {"t1": t1, "diameter": diam},
               [("formula", eq, "le", cfg.tolerance),
                ("monotone", mono, "ge", -cfg.tolerance)],
               [[float(r), float(v)] for r, v in zip(r_grid, values)])


def _suite_eq1_6(cfg, cost, rngs):
    require(cost, "eq1_6", A1I)
    if cost.analytic_c_ell != 0.0:
        raise AssumptionRefused(
            "the degenerate unmodified problem needs cost(u)/u -> 0")
    ns = list(range(1, 33))
    values = cost_plain(fast_path(np.zeros(1), np.ones(1), ns), cost).tolist()
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
        linear = float(cost_li(linear_path(np.zeros(1), np.array([span])),
                               cost, 1)[0])
        yield ([cost.name, span], {"oracle": o, "direct": target},
               [("equality", o - target, "eq", cfg.tolerance),
                ("linear", linear - target, "eq", 1e-12)], ())


def _suite_eq1_11(cfg, cost, rngs):
    paths, drawn = _rand_paths(rngs, cfg.dim, 5, extra=True)
    cuts = range(0, len(paths.counts) + 1, 5)
    lhs = cost_plain(stretch(paths, n1(paths)), cost)
    worst_eq = _per_trial(np.abs(lhs - cost_li(paths, cost, 1)), cuts, np.max)
    # 5.0 * u is what rng.uniform(0.0, 5.0) returns for the same draw u
    back = compress(stretch(paths, 1.0 + 5.0 * drawn))
    moved = np.hstack([abs(back.durations - paths.durations),
                       abs(back.velocities - paths.velocities).max(axis=2)])
    worst_rt = _per_trial(moved, cuts, np.max)
    for t, (eq, rt) in enumerate(zip(worst_eq, worst_rt)):
        yield ([cfg.seed, t], {},
               [("time_change", eq, "le", 1e-12),
                ("roundtrip", rt, "le", 1e-12)], ())


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


def _trial_generators(seeds: np.random.SeedSequence, n: int):
    """One generator per trial, spawned from ``seeds`` on the first draw,
    so that a suite that draws nothing spawns none."""
    yield from map(np.random.default_rng, seeds.spawn(n))


def verify(cfg: VerifyConfig) -> Report:
    """Run one theorem suite; deterministic given the config.  A trial's
    margins are its checks' values, and it passes when every check holds."""
    cost = costmod.from_spec(cfg.cost_spec)
    suite, columns = _SUITES[cfg.theorem]
    seeds = np.random.SeedSequence(cfg.seed)
    trials, rows = [], []
    for t, (key, values, checks, curve) in enumerate(
            suite(cfg, cost, _trial_generators(seeds, cfg.trials))):
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
