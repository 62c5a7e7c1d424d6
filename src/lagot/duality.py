"""Infimal convolution with the radial cost and the terminal-cost identity.

f^c(x) = min over grid y of cost(|y - x|) + f(y).  The terminal-cost
control value starting from a discrete measure decomposes atom by atom
into exactly this convolution, which is the finite skeleton of the
continuous identity; the atomic setting is checked as such (the continuous
statement assumes an absolutely continuous initial law, which no discrete
measure satisfies — the report says so up front).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import A1I, A1III, A2I, CostFunction, require
from .measures import (DiscreteMeasure, expectation, freeze, json_numbers,
                       pairwise_distances)


@dataclass(frozen=True)
class GridFunction:
    """Real function given on a finite set of candidate points."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2:
            raise ValueError("grid points must be a list of numbers or of"
                             f" lists of numbers, got {points.ndim} levels")
        values = np.asarray(self.values, dtype=float)
        if len(points) != len(values):
            raise ValueError("one value per point required")
        if len(points) == 0:
            raise ValueError("grid must be nonempty")
        if not (np.isfinite(points).all() and np.isfinite(values).all()):
            raise ValueError("grid points and values must be finite")
        if len({tuple(p) for p in points}) != len(points):
            raise ValueError("grid points must be distinct")
        freeze(self, points=points, values=values)

    @staticmethod
    def from_json(obj: dict) -> "GridFunction":
        return GridFunction(points=json_numbers(obj["points"], "points", 1, 2),
                            values=json_numbers(obj["values"], "values", 1))

    def to_json(self) -> dict:
        return {"points": self.points.tolist(), "values": self.values.tolist()}


def _candidates(f: GridFunction, cost: CostFunction, points) -> np.ndarray:
    """cost(|y - x|) + f(y): a row per point x, a column per grid point y."""
    return cost.eval(pairwise_distances(points, f.points)) + f.values


def inf_conv(f: GridFunction, cost: CostFunction, query_points) -> list[float]:
    """f^c at each query point: min over the grid of cost(|y-x|) + f(y)."""
    queries = np.asarray(query_points, dtype=float)
    if queries.ndim == 1:  # 1-D points; an empty list fits any grid
        queries = queries.reshape(-1, 1 if queries.size else f.points.shape[1])
    return _candidates(f, cost, queries).min(axis=1).tolist()


@dataclass(frozen=True)
class ControlIdentityReport:
    lhs: float
    rhs: float
    margin: float
    selected: list  # (atom index, grid index) optimal terminal choices
    note: str


def verify_control_identity(m0: DiscreteMeasure, f: GridFunction,
                            cost: CostFunction, i: int,
                            ) -> ControlIdentityReport:
    """Check the terminal-cost identity atom by atom.

    LHS: per start atom, the cheapest terminal grid point when moving there
    costs exactly cost(|y - x|) (the per-pair value of the modified path
    problem).  RHS: the weighted infimal convolution.  Both read the same
    grid candidates; independence comes from the cor2_4 suite's path oracle.
    """
    needed = {1: (A1I,), 2: (A1I, A2I, A1III)}.get(i)
    if needed is None:
        raise ValueError("i must be 1 or 2")
    require(cost, "the control identity", *needed)
    candidates = _candidates(f, cost, m0.points)
    best = candidates.argmin(axis=1)
    per_atom = candidates[np.arange(len(best)), best]
    selected = [(k, int(j)) for k, j in enumerate(best)]
    # both sides reduce through the same weighted sum so that the atomwise
    # selection and the infimal convolution agree bit for bit
    lhs = expectation(m0.weights, per_atom)
    rhs = expectation(m0.weights, inf_conv(f, cost, m0.points))
    return ControlIdentityReport(
        lhs=lhs, rhs=rhs, margin=lhs - rhs, selected=selected,
        note=("atomic-measure skeleton: the continuous identity assumes an "
              "absolutely continuous initial law; here the atomwise "
              "infimal-convolution structure is what is verified"))
