"""Weighted path families realizing couplings, and their evaluators.

A transport ensemble is the discrete stand-in for a random path: finitely
many (weight, path, optional speed bound) members.  Expectations are exact
weighted sums.  The builders construct the ensembles that attain the
transport identities (stop-and-go over an optimal plan; speed-capped
stop-and-go over a bounded coupling), and the path oracle certifies at
grid scale that no stepped path beats them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .costs import CostFunction, power_cost
from .errors import (BoundViolated, DimensionMismatch, Infeasible,
                     InfeasibleBound, MissingBound, NoFeasiblePath)
from .measures import (WEIGHT_SUM_TOL, Coupling, DiscreteMeasure,
                       make_coupling, pairwise_distances, validate_measure)
from .mk_solver import MKSolution, solve_mk
from .paths import (IntervalSet, SteppedPath, cost_li, cost_plain,
                    stop_and_go, sup_norm)

_BOUND_TOL = 1e-12
_FEAS_TOL = 1e-9


def _exceeds(value, bound: float):
    """value > bound beyond rounding, relative to the bound; elementwise
    for an array of values."""
    return value > bound + _BOUND_TOL * bound


@dataclass(frozen=True)
class EnsembleMember:
    weight: float
    path: SteppedPath
    bound: Optional[float] = None


@dataclass(frozen=True)
class TransportEnsemble:
    """Finite weighted family of paths; weights sum to 1 within 1e-12 and
    any declared speed bound dominates the member's sup-speed."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        total = sum(m.weight for m in members)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:  # also fails on NaN
            raise ValueError(f"member weights sum to {total!r}, not 1")
        for m in members:
            if m.weight <= 0:
                raise ValueError("member weights must be positive")
            if m.path.dim != members[0].path.dim:
                raise DimensionMismatch(
                    f"member paths of dim {members[0].path.dim} vs "
                    f"{m.path.dim}")
            if m.bound is None:
                continue
            if not np.isfinite(m.bound):
                raise BoundViolated(f"speed bound {m.bound} is not finite")
            if _exceeds(sup_norm(m.path), m.bound):
                raise BoundViolated(
                    f"sup speed {sup_norm(m.path)} exceeds bound {m.bound}")
        object.__setattr__(self, "members", members)

    def to_json(self) -> dict:
        return {"members": [
            {"weight": m.weight, "path": m.path.to_json(),
             **({"bound": m.bound} if m.bound is not None else {})}
            for m in self.members]}

    @staticmethod
    def from_json(obj: dict) -> "TransportEnsemble":
        return TransportEnsemble(tuple(
            EnsembleMember(weight=float(m["weight"]),
                           path=SteppedPath.from_json(m["path"]),
                           bound=m.get("bound"))
            for m in obj["members"]))


@dataclass(frozen=True)
class BoundedCouplingTriple:
    """Coupling plus a per-cell speed bound M >= |x_i - y_j| on every cell
    carrying mass."""

    coupling: Coupling
    bound_assignment: dict  # (i, j) -> M

    def __post_init__(self):
        dist = self.coupling.distances
        for i, j, mass in self.coupling.cells():
            if (i, j) not in self.bound_assignment:
                raise MissingBound(f"cell ({i}, {j}) carries mass but no bound")
            m_ij = self.bound_assignment[(i, j)]
            if not np.isfinite(m_ij):
                raise InfeasibleBound(
                    f"cell ({i}, {j}): bound {m_ij} is not finite")
            if _exceeds(dist[i, j], m_ij):
                raise InfeasibleBound(
                    f"cell ({i}, {j}): displacement exceeds bound {m_ij}")


def endpoint_marginals(e: TransportEnsemble) -> tuple[DiscreteMeasure,
                                                      DiscreteMeasure]:
    """Laws of the start and end points of the ensemble."""
    dim = e.members[0].path.dim
    starts = [(m.path.start, m.weight) for m in e.members]
    ends = [(m.path.end, m.weight) for m in e.members]
    return validate_measure(starts, dim), validate_measure(ends, dim)


def eval_tilde(e: TransportEnsemble, cost: CostFunction, i: int) -> float:
    """Expected modified running cost (the i = 1 or 2 functional); cost_li
    rejects members whose horizon is not 1."""
    return float(sum(m.weight * cost_li(m.path, cost, i) for m in e.members))


def eval_bounded(e: TransportEnsemble, cost: CostFunction) -> float:
    """Expected plain running cost; e checked each speed when it was built."""
    for m in e.members:
        if m.bound is None:
            raise MissingBound("every member needs a speed bound")
    return float(sum(m.weight * cost_plain(m.path, cost) for m in e.members))


def eval_tv(t: BoundedCouplingTriple, cost: CostFunction) -> float:
    """Static bounded-transport value: mass * cost(M)/M * |x - y| over the
    cells with positive bound; M = 0 cells contribute nothing."""
    total = 0.0
    dist = t.coupling.distances
    for i, j, mass in t.coupling.cells():
        m_ij = t.bound_assignment[(i, j)]
        if m_ij > 0:
            total += mass * (cost.eval(m_ij) / m_ij) * float(dist[i, j])
    return float(total)


def induced_triple(e: TransportEnsemble) -> BoundedCouplingTriple:
    """Coupling-with-bounds read off a bounded ensemble's endpoint cells.

    Members sharing an endpoint pair must carry the same bound for the
    cell map to be well defined.
    """
    src, tgt = endpoint_marginals(e)
    plan = np.zeros((src.n_atoms, tgt.n_atoms))
    bounds: dict = {}
    src_index = {tuple(p): k for k, p in enumerate(src.points)}
    tgt_index = {tuple(p): k for k, p in enumerate(tgt.points)}
    for m in e.members:
        if m.bound is None:
            raise MissingBound("every member needs a speed bound")
        i = src_index[tuple(m.path.start)]
        j = tgt_index[tuple(m.path.end)]
        plan[i, j] += m.weight
        if (i, j) in bounds and bounds[(i, j)] != m.bound:
            raise MissingBound("conflicting bounds on one endpoint cell")
        bounds[(i, j)] = float(m.bound)
    return BoundedCouplingTriple(coupling=make_coupling(src, tgt, plan),
                                 bound_assignment=bounds)


def build_opt_tilde(sol: MKSolution,
                    set_gen: Callable[[int, int], IntervalSet],
                    ) -> TransportEnsemble:
    """One stop-and-go member per positive-mass cell of an optimal plan.

    Any positive-measure moving set per cell yields the same modified
    cost, equal to the plan's transport value.
    """
    members = []
    plan = sol.plan
    for i, j, mass in plan.cells():
        x = plan.source.points[i]
        y = plan.target.points[j]
        members.append(EnsembleMember(
            weight=mass, path=stop_and_go(x, y, set_gen(i, j))))
    return TransportEnsemble(tuple(members))


def build_opt_bounded(t: BoundedCouplingTriple) -> TransportEnsemble:
    """Per cell, move at exactly the bound speed M on [0, |x-y|/M] and rest;
    the plain cost then matches the static bounded value cell by cell.
    t checked M >= |x - y| on every cell when it was built."""
    members = []
    c = t.coupling
    for i, j, mass in c.cells():
        disp = float(c.distances[i, j])
        m_ij = float(t.bound_assignment[(i, j)])
        # stop_and_go rests when x = y whatever the set; M = 0 admits no other
        moving = min(1.0, disp / m_ij) if disp > 0.0 else 1.0
        path = stop_and_go(c.source.points[i], c.target.points[j],
                           IntervalSet(((0.0, moving),)))
        members.append(EnsembleMember(weight=mass, path=path, bound=m_ij))
    return TransportEnsemble(tuple(members))


@functools.lru_cache
def _feasible_multisets(grid: tuple, K: int) -> np.ndarray:
    """Read-only table of the size-K multisets of the signed unit grid
    whose mean is 1: the speed assignments, in units of the displacement,
    that end at the target."""
    signed = np.unique(np.concatenate([grid, np.negative(grid)]))
    combos = np.array(list(
        itertools.combinations_with_replacement(signed, K))).reshape(-1, K)
    table = combos[np.abs(combos.mean(axis=1) - 1.0) <= _FEAS_TOL]
    table.setflags(write=False)
    return table


def oracle_min_path(x, y, cost: CostFunction, objective: str, K: int,
                    speed_grid, cap: Optional[float] = None) -> float:
    """Exhaustive minimum over K equal-duration pieces with signed speeds
    from the grid scaled by the displacement.

    Motion is restricted to the line through x and y: off-axis velocity
    only raises the speed without helping the endpoint constraint, and the
    cost depends on the speed alone.  |y - x| is the shared kernel's.
    Objectives: ``plain``, ``L1``, ``L2``, and ``conv`` (the convex-case
    modified integrand (1/N1) * cost(N1 * speed)).
    """
    if K < 1 or K > 8:
        raise ValueError("K must be in 1..8")
    grid = tuple(sorted(set(float(g) for g in speed_grid)))
    if len(grid) > 6:
        raise ValueError("speed grid limited to 6 values")
    if not np.all(np.asarray(grid) >= 0):  # also fails on NaN
        raise ValueError("speed grid values are magnitudes, >= 0")
    x, y = (np.atleast_2d(np.asarray(p, dtype=float)) for p in (x, y))
    delta = float(pairwise_distances(x, y)[0, 0])
    if cap is not None and np.isnan(cap):
        raise ValueError("the speed cap must not be NaN")
    if delta == 0.0:
        return 0.0
    speeds = np.abs(_feasible_multisets(grid, K) * delta)
    if cap is not None:
        speeds = speeds[~_exceeds(speeds, cap).any(axis=1)]
    if len(speeds) == 0:
        raise NoFeasiblePath("no speed assignment meets the endpoint")
    if objective == "plain":
        values = np.asarray(cost.eval(speeds), dtype=float).mean(axis=1)
    elif objective in ("L1", "L2"):
        smax = speeds.max(axis=1)
        denom = delta if objective == "L1" else speeds.mean(axis=1)
        ni = np.maximum(smax / denom, 1.0)
        values = ni * np.asarray(cost.eval(speeds / ni[:, None]),
                                 dtype=float).mean(axis=1)
    elif objective == "conv":
        n1 = np.maximum(speeds.max(axis=1) / delta, 1.0)
        values = (1.0 / n1) * np.asarray(
            cost.eval(speeds * n1[:, None]), dtype=float).mean(axis=1)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return float(values.min())


def arcs_longer_than(m0: DiscreteMeasure, m1: DiscreteMeasure,
                     r: float) -> Callable[[int, int], bool]:
    """``forbidden_arcs`` callback for solve_mk: arc (i, j) is forbidden
    when |x_i - y_j| > r, with the distances of the shared kernel."""
    if np.isnan(r):
        raise ValueError("the arc length cap must not be NaN")
    too_long = pairwise_distances(m0.points, m1.points) > r
    return lambda i, j: bool(too_long[i, j])


def solve_bounded(m0: DiscreteMeasure, m1: DiscreteMeasure,
                  cost: CostFunction, r: float,
                  ) -> tuple[float, BoundedCouplingTriple]:
    """Bounded-velocity transport with the constant speed cap r.

    Solves the |x-y|-cost LP restricted to arcs of length <= r, weighs the
    optimal expected displacement by cost(r)/r, and returns that value with
    the optimal coupling bounded by r on every cell; build_opt_bounded(triple)
    turns it into capped stop-and-go paths.  When r dominates the support
    diameter the value is cost(r)/r times the first-order transport cost.
    """
    if not np.isfinite(r):
        raise ValueError(f"the speed cap must be finite, got {r!r}")
    if r <= 0:
        raise Infeasible("the speed cap must be positive")
    sol = solve_mk(m0, m1, power_cost(1.0),
                   forbidden_arcs=arcs_longer_than(m0, m1, r))
    bounds = {(i, j): float(r) for i, j, _ in sol.plan.cells()}
    triple = BoundedCouplingTriple(coupling=sol.plan, bound_assignment=bounds)
    return float(cost.eval(r) / r * sol.value), triple
