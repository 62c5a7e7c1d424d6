"""Finitely supported probability measures and discrete couplings.

A measure is a list of (point, weight) atoms in R^d; a coupling is a
nonnegative plan matrix whose row/column sums reproduce the two marginals.
Everything here is immutable after construction.
"""

from __future__ import annotations

import functools
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigInvalid, DimensionMismatch, EmptyMeasure,
                     WeightSumMismatch)

WEIGHT_SUM_TOL = 1e-12
PLAN_MARGIN_TOL = 1e-10


def pairwise_distances(a: np.ndarray, b: np.ndarray,
                       paired: bool = False) -> np.ndarray:
    """(n, m) matrix of |a_i - b_j|, or with ``paired`` the (n,) |a_i - b_i|
    of n points each, the same bits as the matrix's diagonal; every distance
    between two points is read from here, so a cap equal to the diameter
    admits the longest arc.  Points of two dimensions, or paired rows of two
    lengths, raise DimensionMismatch; a distance that overflows, or a
    non-finite point, raises ValueError."""
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"dim {a.shape[1]} vs {b.shape[1]}")
    if paired and len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} points paired with {len(b)}")
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.linalg.norm(a - b if paired else a[:, None] - b[None],
                              axis=-1)
    if not np.isfinite(dist).all():
        raise ValueError("a distance between two points is not finite")
    return dist


def arc_lengths(pairs) -> tuple[np.ndarray, list]:
    """|x_i - y_j| of every arc (i, j) of every (m0, m1) pair, row by row and
    pair after pair, from one kernel call, each with its pair's own matrix
    bits, and the cuts between the pairs; the pairs share one dim."""
    if len(pairs) < 2:
        dist = [pairwise_distances(m0.points, m1.points) for m0, m1 in pairs]
        return (dist[0].ravel(), [0, dist[0].size]) if dist else ([], [0])
    ii, jj, cuts, i0, j0 = [], [], [0], 0, 0
    for m0, m1 in pairs:
        (n, a), (m, b) = m0.points.shape, m1.points.shape
        if a != b or a != pairs[0][0].points.shape[1]:
            raise DimensionMismatch(f"dim {a} vs {b}" if a != b else
                                    "the pairs of a block differ in dim")
        ii += [i for i in range(i0, i0 + n) for _ in range(m)]
        jj += list(range(j0, j0 + m)) * n
        i0, j0 = i0 + n, j0 + m
        cuts.append(len(ii))
    xs, ys = (np.concatenate([p[k].points for p in pairs]) for k in (0, 1))
    return pairwise_distances(xs[ii], ys[jj], paired=True), cuts


def read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def freeze(obj, **fields) -> None:
    """Set the fields of a frozen dataclass, their arrays read-only."""
    for name, value in fields.items():
        object.__setattr__(obj, name, read_only(value))


def row_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of each row over axis 1, added first to last, so that a padded
    row sums to the bits of the row alone at any width and on any CPU."""
    return np.cumsum(terms, axis=1)[:, -1]


def expectation(weights: np.ndarray, values) -> float:
    """Sum of weight * value over members or atoms, added first to last."""
    return expectations(weights, values, [0, len(weights)])[0]


def expectations(weights: np.ndarray, values, cuts) -> list:
    """``expectation`` of each run cuts[s] to cuts[s + 1] - 1 of entries."""
    terms = (weights * values).tolist()
    return [float(sum(terms[lo:hi])) for lo, hi in zip(cuts, cuts[1:])]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on R^d.

    ``points`` has shape (n, dim), ``weights`` shape (n,); weights sum to 1
    within 1e-12 and every point is distinct (measure_of merges repeats).
    """

    dim: int
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        freeze(self, points=np.asarray(self.points, dtype=float),
               weights=np.asarray(self.weights, dtype=float))

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def diameter_to(self, other: "DiscreteMeasure") -> float:
        """Largest |x - y| over support pairs (x from self, y from other)."""
        return float(pairwise_distances(self.points, other.points).max())

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [{"x": x, "w": w} for x, w in
                      zip(self.points.tolist(), self.weights.tolist())],
        }

    @staticmethod
    def from_json(obj: dict) -> "DiscreteMeasure":
        """Measure of ``to_json``'s object, each field read as one array."""
        dim = json_numbers(obj["dim"], "dim", 0).item()
        if not (dim >= 1 and dim.is_integer()):  # also false for NaN
            raise ConfigInvalid(
                f"dim must be a positive integer, got {obj['dim']!r}")
        atoms = obj["atoms"]
        x = json_rows([a["x"] for a in atoms], "x", "atoms", 0, 1)
        w = json_rows([a["w"] for a in atoms], "w", "atoms", 0)
        return measure_of(x, w, int(dim))


def validate_measure(raw, dim: int) -> DiscreteMeasure:
    """measure_of the points and weights of (point, weight) pairs."""
    raw = list(raw)
    return measure_of([p for p, _ in raw], [w for _, w in raw], dim)


def measure_of(points, weights, dim: int) -> DiscreteMeasure:
    """The measure of (n, dim) points, or in dim 1 (n,) numbers, and (n,)
    weights, checked in one vectorised pass.

    Duplicate points (exact coordinate equality) are merged by summing
    weights, in order, and zero-weight atoms dropped.  Raises EmptyMeasure,
    DimensionMismatch, or WeightSumMismatch; a non-finite coordinate or
    weight raises ValueError.
    """
    points = np.array(points, dtype=float)
    points = points[:, None] if points.ndim == 1 else points
    weights = np.array(weights, dtype=float)
    if len(weights) == 0:
        raise EmptyMeasure("measure needs at least one atom")
    if points.shape != (len(weights), dim):
        raise DimensionMismatch(
            f"points of shape {points.shape} for {len(weights)} weights "
            f"in dim {dim}")
    if not (np.isfinite(points).all() and np.isfinite(weights).all()):
        r = int(np.argmin(np.isfinite(points).all(axis=1)
                          & np.isfinite(weights)))
        raise ValueError(f"non-finite atom {points[r].tolist()!r}, "
                         f"weight {weights[r].item()!r}")
    listed = weights.tolist()
    if min(listed) < 0:
        raise WeightSumMismatch(f"negative weight {min(listed)!r}")
    merged: dict = {}  # each point's weights summed in order
    for p, w in zip(map(tuple, points.tolist()), listed):
        merged[p] = merged.get(p, 0.0) + w
    total = sum(merged.values())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumMismatch(f"weights sum to {total!r}, not 1")
    if len(merged) == len(listed) and min(listed) > 0.0:  # no repeat or zero
        return DiscreteMeasure(dim=dim, points=points, weights=weights)
    kept = [(p, w) for p, w in merged.items() if w > 0.0]
    if not kept:
        raise EmptyMeasure("all atoms have zero weight")
    return DiscreteMeasure(dim=dim, points=np.array([p for p, _ in kept]),
                           weights=np.array([w for _, w in kept]))


def json_numbers(value, field: str, *depths: int) -> np.ndarray:
    """float array of a JSON number or nested list of numbers, nested as
    deep as one of ``depths`` when any is given; a boolean, string or null
    in it, lists of two lengths side by side, or another depth raises
    ConfigInvalid naming ``field``."""
    def numeric(v):  # JSON gives bool, never a subclass of int, for true
        level = [v]  # all items one level deep, in one pass per level
        while (kinds := {*map(type, level)}) == {list}:
            level = [x for sub in level for x in sub]
        return kinds <= {int, float} or list in kinds and all(
            map(numeric, level))

    if not numeric(value):
        raise ConfigInvalid(
            f"{field} must hold numbers only, got {reprlib.repr(value)}")
    try:
        arr = np.asarray(value, dtype=float)
    except ValueError:  # lists of two lengths side by side
        arr = None
    if arr is None or depths and arr.ndim not in depths:
        forms = ("a number", "a flat list of numbers",  # by nesting depth
                 "a list of equal-length lists of numbers")
        raise ConfigInvalid(
            f"{field} must be {' or '.join(forms[d] for d in depths or (2,))}"
            f", got {reprlib.repr(value)}")
    return arr


def json_rows(rows: list, field: str, noun: str, *depths: int) -> np.ndarray:
    """json_numbers of a list of ``rows``, each as deep as one of ``depths``;
    a refusal names the first row at fault, or ``noun`` if lengths differ."""
    try:
        return json_numbers(rows, field, *(d + 1 for d in depths))
    except ConfigInvalid:  # a bare number's shape sums to 0, a list's to n
        dims = [sum(json_numbers(r, field, *depths).shape) for r in rows]
        raise ConfigInvalid(f"{noun} of dim {min(dims)} vs {max(dims)}")


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
        freeze(self, plan=np.asarray(self.plan, dtype=float))

    @functools.cached_property
    def distances(self) -> np.ndarray:
        """(n, m) read-only matrix of |x_i - y_j| from the shared kernel,
        built on first read."""
        return read_only(pairwise_distances(self.source.points,
                                            self.target.points))

    @functools.cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the cells with positive mass, row by
        row; found on first read."""
        return np.nonzero(self.plan > 0.0)

    def cells(self):
        """(i, j, mass) for every cell with positive mass, row by row."""
        ii, jj = self.support
        return zip(ii.tolist(), jj.tolist(), self.plan[ii, jj].tolist())


def make_coupling(source: DiscreteMeasure, target: DiscreteMeasure,
                  plan) -> Coupling:
    plan = np.asarray(plan, dtype=float)
    if plan.shape != (source.n_atoms, target.n_atoms):
        raise DimensionMismatch(
            f"plan shape {plan.shape} vs ({source.n_atoms}, {target.n_atoms})")
    if plan.min() < -PLAN_MARGIN_TOL:
        raise WeightSumMismatch("plan has negative entries")
    # not (gap <= tol): a NaN cell makes its row and column gaps NaN
    row_gap = np.abs(plan.sum(axis=1) - source.weights).max()
    if not row_gap <= PLAN_MARGIN_TOL:
        raise WeightSumMismatch("plan row sums do not match source weights")
    col_gap = np.abs(plan.sum(axis=0) - target.weights).max()
    if not col_gap <= PLAN_MARGIN_TOL:
        raise WeightSumMismatch("plan column sums do not match target weights")
    return Coupling(source=source, target=target, plan=plan)


def flat_dirichlet(rng: np.random.Generator, k: int) -> np.ndarray:
    """``rng.dirichlet(np.ones(k))`` bit for bit and state for state, from
    one cheaper call: numpy draws each gamma(1) as a standard exponential,
    sums them first to last from 0.0 and scales by the reciprocal."""
    e = rng.standard_exponential(k)
    return e * (1.0 / functools.reduce(float.__add__, e.tolist(), 0.0))


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
    return measure_of(points, flat_dirichlet(rng, n_atoms), dim)
