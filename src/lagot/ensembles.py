"""Weighted path families realizing couplings, and their evaluators.

A transport ensemble is the discrete stand-in for a random path: finitely
many (weight, path, optional speed bound) members, held with others end to
end in one EnsembleStack.  Expectations are exact weighted sums, one per
ensemble.  The builders construct the ensembles that attain the
transport identities (stop-and-go over an optimal plan; speed-capped
stop-and-go over a bounded coupling), and the path oracle certifies at
grid scale that no stepped path beats them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .costs import CostFunction, power_cost
from .errors import (BoundViolated, ConfigInvalid, DimensionMismatch,
                     Infeasible, InfeasibleBound, MissingBound,
                     NoFeasiblePath)
from .measures import (WEIGHT_SUM_TOL, Coupling, DiscreteMeasure,
                       arc_lengths, expectations, freeze, joined,
                       json_rows, pairwise_distances, read_only)
from .mk_solver import MKSolution, solve_mk
from .paths import IntervalSet, PathBlock, cost_li, cost_plain, stop_and_go

_BOUND_TOL = 1e-12
_FEAS_TOL = 1e-9


def _member(cuts: list, r: int) -> str:
    """``member k: ``, the prefix of a fault at row r of a stack cut at
    ``cuts``, k counted from the first row of r's ensemble."""
    return f"member {r - cuts[bisect.bisect_right(cuts, r) - 1]}: "


def _exceeds(value, bound: float):
    """value > bound beyond rounding, relative to the bound; elementwise
    for an array of values."""
    return value > bound + _BOUND_TOL * bound


@dataclass(frozen=True, eq=False)
class EnsembleStack:
    """Finite weighted families of paths end to end in one PathBlock
    ``paths``: ensemble s is rows cuts[s] to cuts[s + 1] - 1 with those
    entries of the (k,) ``weights``, which sum to 1 within 1e-12 in each
    ensemble, and of the (k,) speed ``bounds``, each finite and dominating
    its row's sup-speed, or NaN where none is declared (given as NaN or
    None, for one row or all).  Without ``cuts`` it is the one ensemble
    [0, k].  The one check of an ensemble; each fault is looked for over
    the whole stack before the next, and one at a member names it, counted
    within its ensemble.
    """

    paths: PathBlock
    weights: np.ndarray
    bounds: Optional[Sequence] = None
    cuts: Optional[list] = None

    def __post_init__(self):
        if self.cuts is None:
            object.__setattr__(self, "cuts", [0, len(self.paths.starts)])
        weights = np.array(self.weights, dtype=float)
        bounds = np.full(len(self.paths.starts), np.nan) \
            if self.bounds is None else \
            np.array(self.bounds, dtype=float)  # a None entry reads NaN
        # counted from the last run's first row, as that run alone counts
        counts = tuple(len(a) - self.cuts[-2]
                       for a in (weights, bounds, self.paths.starts))
        if min(counts) < max(counts):
            raise DimensionMismatch("%d weights and %d bounds for %d paths"
                                    % counts)
        for lo, hi in zip(self.cuts, self.cuts[1:]):
            total = float(weights[lo:hi].sum())
            if not abs(total - 1.0) <= WEIGHT_SUM_TOL:  # also fails on NaN
                raise ValueError(f"member weights sum to {total!r}, not 1")
        sup = self.paths.speeds.max(axis=1)
        for cls, fault, what in (
                (ValueError, weights <= 0, "weight {w} must be positive"),
                (BoundViolated, np.isinf(bounds),
                 "speed bound {b} is not finite"),
                (BoundViolated, _exceeds(sup, bounds),  # false on NaN
                 "sup speed {s} exceeds bound {b}")):
            if fault.any():
                r = int(fault.argmax())
                raise cls(_member(self.cuts, r) + what.format(
                    w=weights[r], b=bounds[r], s=sup[r]))
        freeze(self, weights=weights, bounds=bounds)

    @property
    def members(self) -> range:
        """The stack's rows; kept because perfbench's tracer counts a
        builder's members as ``len(result.members)``."""
        return range(len(self.weights))

    def to_json(self) -> dict:
        """The object of a one-ensemble stack: one entry per member."""
        return {"members": [
            {"weight": w, "path": path,
             **({} if math.isnan(b) else {"bound": b})}
            for w, path, b in zip(self.weights.tolist(), self.paths.to_json(),
                                  self.bounds.tolist())]}

    @staticmethod
    def from_json(obj: dict) -> "EnsembleStack":
        """The one ensemble of ``to_json``'s object, each field read as one
        array."""
        members = obj["members"]
        if not len(members):
            raise ConfigInvalid("members must not be empty")
        paths = PathBlock.from_json([m["path"] for m in members])
        weights = json_rows([m["weight"] for m in members], "weight",
                            "members", 0)
        bounds = json_rows([m.get("bound", np.nan) for m in members],
                           "bound", "members", 0)
        nan = np.isnan(bounds) & ["bound" in m for m in members]
        if nan.any():
            raise BoundViolated(
                f"member {int(nan.argmax())}: speed bound nan is not finite")
        return EnsembleStack(paths, weights, bounds)


@dataclass(frozen=True, eq=False)
class BoundedCouplingTriple:
    """Coupling plus read-only (k,) speed ``bounds``, one M >= |x_i - y_j|
    per cell of ``coupling.support``, in that order.  Checks the count,
    then finiteness, then displacement, each over all cells first."""

    coupling: Coupling
    bounds: np.ndarray

    def __post_init__(self):
        ii, jj = self.coupling.support
        dist = self.coupling.distances[ii, jj]
        bounds = np.array(self.bounds, dtype=float)
        if bounds.shape != dist.shape:
            raise DimensionMismatch(
                f"bounds of shape {bounds.shape} for {len(dist)} cells")
        for fault, what in ((~np.isfinite(bounds), "bound {} is not finite"),
                            (_exceeds(dist, bounds),
                             "displacement exceeds bound {}")):
            if fault.any():
                r = int(fault.argmax())
                raise InfeasibleBound(f"cell ({ii[r]}, {jj[r]}): "
                                      + what.format(bounds[r].item()))
        freeze(self, bounds=bounds)


def eval_tilde(s: EnsembleStack, cost: CostFunction, i: int) -> list:
    """Expected modified running cost (the i = 1 or 2 functional) of each
    ensemble of a stack, from one cost_li call; cost_li rejects rows whose
    horizon is not 1."""
    return expectations(s.weights, cost_li(s.paths, cost, i), s.cuts)


def eval_bounded(s: EnsembleStack, cost: CostFunction) -> list:
    """Expected plain running cost of each ensemble of a stack, from one
    cost_plain call; the stack checked each speed when it was built."""
    if np.isnan(s.bounds).any():
        raise MissingBound("every member needs a speed bound")
    return expectations(s.weights, cost_plain(s.paths, cost), s.cuts)


def _cost_at_caps(cost: CostFunction, caps) -> np.ndarray:
    """cost(r) at each speed cap r; refuses a cap where it is not finite."""
    values = cost.eval(caps)
    if not np.isfinite(values).all():
        bad = np.ravel(caps)[~np.isfinite(np.ravel(values))]
        raise InfeasibleBound(f"{cost.name} cost is not finite at the speed "
                              f"cap r = {float(bad[0])!r}")
    return values


def _tv_sums(mass, bounds, dist, cuts, cost: CostFunction) -> list:
    """Sum of mass * cost(M)/M * dist over each run cuts[s] to
    cuts[s + 1] - 1 of cells; a cell whose M is not positive adds 0.0,
    which leaves the sum's bits alone, and its cost is never taken."""
    pos, ratio = bounds > 0, np.zeros(len(bounds))
    m = bounds[pos]
    ratio[pos] = _cost_at_caps(cost, m) / m
    return expectations(mass * ratio, dist, cuts)


def eval_tv(triples: Sequence[BoundedCouplingTriple],
            cost: CostFunction) -> list:
    """Static bounded-transport value of each triple, from one cost call:
    mass * cost(M)/M * |x - y| over the cells with positive bound; M = 0
    cells contribute nothing."""
    cells = [(c.plan[ii, jj], t.bounds, c.distances[ii, jj])
             for t in triples for c in [t.coupling] for ii, jj in [c.support]]
    return _tv_sums(*joined(cells), cost)


def eval_tv_induced(s: EnsembleStack, cost: CostFunction) -> list:
    """The static bounded form E[cost(M)/M * |X_1 - X_0|] of each ensemble
    of a stack: weight * cost(M)/M * |end - start| summed over its members
    in order, with M the member's bound and a member at M = 0 adding 0.0;
    in exact arithmetic eval_tv of the triple that the ensemble induces on
    its endpoint cells.  Every distance from one paired kernel call.
    Refuses a member without a bound, then, at the stack's first member, a
    distance that overflows, a displacement over its bound and a
    non-finite cost."""
    if np.isnan(s.bounds).any():
        raise MissingBound("every member needs a speed bound")
    dist = pairwise_distances(s.paths.starts, s.paths.ends, True)
    if (over := _exceeds(dist, s.bounds)).any():
        r = int(over.argmax())
        raise InfeasibleBound(
            f"{_member(s.cuts, r)}displacement exceeds bound {s.bounds[r]}")
    return _tv_sums(s.weights, s.bounds, dist, s.cuts, cost)


def build_opt_tilde(sols: Sequence[MKSolution],
                    sets: Sequence[list]) -> EnsembleStack:
    """One stop-and-go row per positive-mass cell of each optimal plan, all
    in one stack, with sets[s] the moving sets of plan s's positive cells
    in support order.

    Any positive-measure moving set per cell yields the same modified
    cost, equal to the plan's transport value.
    """
    plans = [s.plan for s in sols]
    xs, ys, weights, cuts = joined([
        (p.source.points[ii], p.target.points[jj], p.plan[ii, jj])
        for p in plans for ii, jj in [p.support]])
    paths = stop_and_go(xs, ys, [a for one in sets for a in one])
    return EnsembleStack(paths, weights, None, cuts)


def build_opt_bounded(triples: Sequence[BoundedCouplingTriple],
                      ) -> EnsembleStack:
    """Per cell of each triple, move at exactly the bound speed M on
    [0, |x-y|/M] and rest, all in one stack; the plain cost then matches
    the static bounded value cell by cell.  Each triple checked
    M >= |x - y| on every cell when it was built."""
    xs, ys, disp, bounds, weights, cuts = joined([
        (c.source.points[ii], c.target.points[jj], c.distances[ii, jj],
         t.bounds, c.plan[ii, jj])
        for t in triples for c in [t.coupling] for ii, jj in [c.support]])
    # stop_and_go rests when x = y whatever the set; M = 0 admits no other
    moving = np.minimum(1.0, np.divide(disp, bounds, out=np.ones_like(disp),
                                       where=disp > 0.0))
    paths = stop_and_go(xs, ys, [IntervalSet(((0.0, m),))
                                 for m in moving.tolist()])
    return EnsembleStack(paths, weights, bounds, cuts)


@functools.lru_cache
def _feasible_multisets(grid: tuple, K: int) -> np.ndarray:
    """Read-only table of the size-K multisets of the signed unit grid
    whose mean is 1: the speed assignments, in units of the displacement,
    that end at the target."""
    signed = np.unique(np.concatenate([grid, np.negative(grid)]))
    combos = np.array(list(
        itertools.combinations_with_replacement(signed, K))).reshape(-1, K)
    return read_only(combos[np.abs(combos.mean(axis=1) - 1.0) <= _FEAS_TOL])


def oracle_min_path(x, y, cost: CostFunction, objective: str, K: int,
                    speed_grid, cap: Optional[float] = None):
    """Exhaustive minimum over K equal-duration pieces with signed speeds
    from the grid scaled by the displacement.

    Motion is restricted to the line through x and y: off-axis velocity
    only raises the speed without helping the endpoint constraint, and the
    cost depends on the speed alone.  |y - x| is the shared kernel's.
    Objectives: ``plain``, ``L1``, ``L2``, and ``conv`` (the convex-case
    modified integrand (1/N1) * cost(N1 * speed)).  Given (n, dim) arrays
    of endpoints, returns the (n,) minima of the n pairs, all scored
    against one table; one pair of points is the one-row case, a float.
    """
    if K < 1 or K > 8:
        raise ValueError("K must be in 1..8")
    grid = tuple(sorted(set(float(g) for g in speed_grid)))
    if len(grid) > 6:
        raise ValueError("speed grid limited to 6 values")
    if not np.all(np.asarray(grid) >= 0):  # also fails on NaN
        raise ValueError("speed grid values are magnitudes, >= 0")
    xs, ys = (np.atleast_2d(np.asarray(p, dtype=float)) for p in (x, y))
    delta = pairwise_distances(xs, ys, paired=True)
    if cap is not None and np.isnan(cap):
        raise ValueError("the speed cap must not be NaN")
    out, moving = np.zeros(len(delta)), delta > 0.0
    delta = delta[moving]
    if not moving.any():
        return float(out[0]) if np.ndim(x) < 2 else out
    speeds = np.abs(_feasible_multisets(grid, K) * delta[:, None, None])
    ok = ~_exceeds(speeds, np.inf if cap is None else cap).any(axis=2)
    if not ok.any(axis=1).all():
        raise NoFeasiblePath("no speed assignment meets the endpoint")
    if not ok.all():
        # a row over the cap is scored as the pair's first admitted row, so
        # the minimum is the admitted rows' and no cost is taken past the
        # cap, where it may overflow
        first = speeds[np.arange(len(ok)), ok.argmax(axis=1)]
        speeds = np.where(ok[..., None], speeds, first[:, None])
    if objective == "plain":
        values = cost.eval(speeds).mean(axis=2)
    elif objective in ("L1", "L2"):
        smax = speeds.max(axis=2)
        denom = delta[:, None] if objective == "L1" else speeds.mean(axis=2)
        ni = np.maximum(smax / denom, 1.0)
        values = ni * cost.eval(speeds / ni[..., None]).mean(axis=2)
    elif objective == "conv":
        n1 = np.maximum(speeds.max(axis=2) / delta[:, None], 1.0)
        values = (1.0 / n1) * cost.eval(speeds * n1[..., None]).mean(axis=2)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    out[moving] = values.min(axis=1)
    return float(out[0]) if np.ndim(x) < 2 else out


def arcs_longer_than(m0: DiscreteMeasure, m1: DiscreteMeasure,
                     r: float) -> Callable[[int, int], bool]:
    """``forbidden_arcs`` callback for solve_mk: arc (i, j) is forbidden
    when |x_i - y_j| > r, with the distances of the shared kernel."""
    if np.isnan(r):
        raise ValueError("the arc length cap must not be NaN")
    too_long = pairwise_distances(m0.points, m1.points) > r
    return lambda i, j: bool(too_long[i, j])


def solve_bounded_each(pairs, cost: CostFunction, ladders) -> list:
    """solve_bounded of each (m0, m1) pair with its ladder of caps, as lists
    of (value, triple); every cap is checked, then the cost is taken at every
    rung in one call and every arc length in one kernel call."""
    caps = [np.atleast_1d(np.asarray(r, dtype=float)).tolist()
            for r in ladders]
    for rk in itertools.chain(*caps):
        if not math.isfinite(rk):
            raise ValueError(f"the speed cap must be finite, got {rk!r}")
        if rk <= 0:
            raise Infeasible("the speed cap must be positive")
    cost_rs = iter(_cost_at_caps(cost, sum(caps, [])).tolist())
    dist, cuts = arc_lengths(pairs)
    out = [[] for _ in pairs]
    for (m0, m1), lo, hi, ladder, rungs in zip(pairs, cuts, cuts[1:], caps,
                                               out):
        lengths, solved = dist[lo:hi].reshape(m0.n_atoms, m1.n_atoms), {}
        for rk in ladder:
            arcs = lengths <= rk
            key = arcs.tobytes()
            if key not in solved:
                solved[key] = solve_mk(
                    m0, m1, power_cost(1.0),
                    forbidden_arcs=lambda i, j: not arcs[i, j])
            sol = solved[key]
            bounds = np.full(len(sol.plan.support[0]), rk)
            rungs.append((next(cost_rs) / rk * sol.value,
                          BoundedCouplingTriple(sol.plan, bounds)))
    return out


def solve_bounded(m0: DiscreteMeasure, m1: DiscreteMeasure,
                  cost: CostFunction, r):
    """Bounded-velocity transport with the constant speed cap r.

    Solves the |x-y|-cost LP restricted to arcs of length <= r, weighs the
    optimal expected displacement by cost(r)/r, and returns that value with
    the optimal coupling bounded by r on every cell;
    build_opt_bounded([triple]) turns it into capped stop-and-go paths.
    When r dominates the support diameter the value is cost(r)/r times the
    first-order transport cost.
    The one-cap case of solve_bounded_each.
    """
    return solve_bounded_each([(m0, m1)], cost, [[r]])[0][0]
