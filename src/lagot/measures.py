"""Finitely supported probability measures and discrete couplings.

A measure is a list of (point, weight) atoms in R^d; a coupling is a
nonnegative plan matrix whose row/column sums reproduce the two marginals.
Everything here is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyMeasure, WeightSumMismatch

WEIGHT_SUM_TOL = 1e-12
PLAN_MARGIN_TOL = 1e-10


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) matrix of |a_i - b_j|; every distance between supports is
    read from here, so a cap equal to the diameter admits the longest arc."""
    return np.linalg.norm(a[:, None] - b[None], axis=2)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on R^d.

    ``points`` has shape (n, dim), ``weights`` shape (n,); weights sum to 1
    within 1e-12 and every point is distinct (duplicates are merged by
    :func:`validate_measure` before construction).
    """

    dim: int
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def diameter_to(self, other: "DiscreteMeasure") -> float:
        """Largest |x - y| over support pairs (x from self, y from other)."""
        return float(pairwise_distances(self.points, other.points).max())

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [
                {"x": list(map(float, x)), "w": float(w)}
                for x, w in zip(self.points, self.weights)
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "DiscreteMeasure":
        atoms = [(a["x"], a["w"]) for a in obj["atoms"]]
        return validate_measure(atoms, int(obj["dim"]))


def validate_measure(raw, dim: int) -> DiscreteMeasure:
    """Merge duplicate points, check weights, and build a DiscreteMeasure.

    Duplicate points (exact coordinate equality) are merged by summing
    weights.  Raises EmptyMeasure, DimensionMismatch, or WeightSumMismatch;
    a non-finite coordinate or weight raises ValueError.
    """
    raw = list(raw)
    if not raw:
        raise EmptyMeasure("measure needs at least one atom")
    merged: dict[tuple, float] = {}
    order: list[tuple] = []
    for point, weight in raw:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if p.shape != (dim,):
            raise DimensionMismatch(f"point {point!r} does not have length {dim}")
        if not (np.all(np.isfinite(p)) and np.isfinite(weight)):
            raise ValueError(f"non-finite atom {point!r}, weight {weight!r}")
        if weight < 0:
            raise WeightSumMismatch(f"negative weight {weight!r}")
        key = tuple(p.tolist())
        if key not in merged:
            merged[key] = 0.0
            order.append(key)
        merged[key] += float(weight)
    total = sum(merged.values())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumMismatch(f"weights sum to {total!r}, not 1")
    keys = [k for k in order if merged[k] > 0.0]
    if not keys:
        raise EmptyMeasure("all atoms have zero weight")
    points = np.array(keys, dtype=float)
    weights = np.array([merged[k] for k in keys], dtype=float)
    return DiscreteMeasure(dim=dim, points=points, weights=weights)


@dataclass(frozen=True)
class Coupling:
    """Transport plan between two discrete measures.

    ``plan`` is (n, m) nonnegative; row sums match ``source`` weights and
    column sums match ``target`` weights within 1e-10.
    """

    source: DiscreteMeasure
    target: DiscreteMeasure
    plan: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "plan", np.asarray(self.plan, dtype=float))
        self.plan.setflags(write=False)

    def displacement(self, i: int, j: int) -> float:
        return float(np.linalg.norm(self.target.points[j] - self.source.points[i]))

    def cells(self, threshold: float = 0.0):
        """Yield (i, j, mass) for every cell with mass > threshold."""
        for i in range(self.plan.shape[0]):
            for j in range(self.plan.shape[1]):
                mass = float(self.plan[i, j])
                if mass > threshold:
                    yield i, j, mass


def make_coupling(source: DiscreteMeasure, target: DiscreteMeasure,
                  plan) -> Coupling:
    plan = np.asarray(plan, dtype=float)
    if plan.shape != (source.n_atoms, target.n_atoms):
        raise DimensionMismatch(
            f"plan shape {plan.shape} vs ({source.n_atoms}, {target.n_atoms})")
    if np.any(plan < -PLAN_MARGIN_TOL):
        raise WeightSumMismatch("plan has negative entries")
    # not (gap <= tol): a NaN cell makes its row and column gaps NaN
    row_gap = np.max(np.abs(plan.sum(axis=1) - source.weights))
    if not row_gap <= PLAN_MARGIN_TOL:
        raise WeightSumMismatch("plan row sums do not match source weights")
    col_gap = np.max(np.abs(plan.sum(axis=0) - target.weights))
    if not col_gap <= PLAN_MARGIN_TOL:
        raise WeightSumMismatch("plan column sums do not match target weights")
    return Coupling(source=source, target=target, plan=plan)


def marginals(c: Coupling) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Reconstruct the two marginal measures from the plan itself."""
    row = c.plan.sum(axis=1)
    col = c.plan.sum(axis=0)
    src = validate_measure(zip(c.source.points, row), c.source.dim)
    tgt = validate_measure(zip(c.target.points, col), c.target.dim)
    return src, tgt


def random_measure(seed, n_atoms: int, dim: int,
                   box_radius: float) -> DiscreteMeasure:
    """Seeded random measure: points uniform in the centered box, weights
    uniform on the simplex.  A Generator as ``seed`` is drawn from as is."""
    if n_atoms < 1:
        raise EmptyMeasure("n_atoms must be >= 1")
    if box_radius <= 0:
        raise ValueError(f"box_radius must be positive, got {box_radius!r}")
    rng = np.random.default_rng(seed)
    points = rng.uniform(-box_radius, box_radius, size=(n_atoms, dim))
    weights = rng.dirichlet(np.ones(n_atoms))
    return validate_measure(zip(points, weights), dim)
