"""Piecewise-constant-velocity paths and the explicit constructions.

A stepped path is a start point plus a finite sequence of (duration,
velocity) pieces on [0, horizon].  The two dimensionless functionals
n1 and n2 (horizon * sup-speed over displacement, resp. over path length)
and the modified running costs built from them are evaluated exactly as
finite sums; the optimal paths of the transport identities are all of this
form, so nothing is lost by restricting to it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .costs import CostFunction
from .errors import (BadHorizon, CoincidentPoints, DegenerateSet,
                     DimensionMismatch, DimensionTooSmall)
from .measures import pairwise_distances

DURATION_TOL = 1e-12


@dataclass(frozen=True)
class SteppedPath:
    """Absolutely continuous path with piecewise-constant velocity.

    ``durations`` (k,) are positive and sum to the finite ``horizon``;
    ``start`` and ``velocities`` (k, dim) are finite.
    """

    start: np.ndarray
    horizon: float
    durations: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        start = np.atleast_1d(np.asarray(self.start, dtype=float))
        durations = np.asarray(self.durations, dtype=float)
        velocities = np.asarray(self.velocities, dtype=float)
        if velocities.ndim == 1:
            velocities = velocities[:, None]
        if len(durations) != len(velocities):
            raise ValueError("one velocity per piece required")
        if np.any(durations <= 0):
            raise ValueError("durations must be positive")
        if not (np.isfinite(velocities).all() and np.isfinite(start).all()):
            raise ValueError("start and velocities must be finite")
        # also fails on NaN durations and on a NaN or infinite horizon
        if not (abs(durations.sum() - self.horizon)
                <= DURATION_TOL * max(1.0, self.horizon) < np.inf):
            raise BadHorizon(
                f"durations sum to {durations.sum()}, horizon {self.horizon}")
        if velocities.shape[1] != len(start):
            raise DimensionMismatch(f"velocities of dim {velocities.shape[1]} "
                                    f"vs a start of dim {len(start)}")
        for arr in (start, durations, velocities):
            arr.setflags(write=False)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "velocities", velocities)

    @property
    def dim(self) -> int:
        return len(self.start)

    @property
    def end(self) -> np.ndarray:
        return self.start + self.durations @ self.velocities

    @property
    def displacement(self) -> np.ndarray:
        return self.durations @ self.velocities

    @functools.cached_property
    def speeds(self) -> np.ndarray:
        """(k,) read-only |v| of each piece, measured on first read."""
        speeds = lengths(self.velocities)
        speeds.setflags(write=False)
        return speeds

    def position(self, t: float) -> np.ndarray:
        """Position at time t in [0, horizon]."""
        if t < -DURATION_TOL or t > self.horizon + DURATION_TOL:
            raise BadHorizon(f"t={t} outside [0, {self.horizon}]")
        pos = self.start.copy()
        remaining = t
        for dt, v in zip(self.durations, self.velocities):
            step = min(dt, remaining)
            if step <= 0:
                break
            pos = pos + step * v
            remaining -= step
        return pos

    def to_json(self) -> dict:
        return {
            "start": list(map(float, self.start)),
            "horizon": float(self.horizon),
            "pieces": [
                {"dt": float(dt), "v": list(map(float, v))}
                for dt, v in zip(self.durations, self.velocities)
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "SteppedPath":
        return SteppedPath(
            start=np.asarray(obj["start"], dtype=float),
            horizon=float(obj.get("horizon", 1.0)),
            durations=np.asarray([p["dt"] for p in obj["pieces"]], dtype=float),
            velocities=np.asarray([p["v"] for p in obj["pieces"]], dtype=float),
        )


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint open subintervals of [0,1], sorted."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        prev = 0.0
        for a, b in ivs:
            if a < -DURATION_TOL or b > 1.0 + DURATION_TOL or a >= b:
                raise ValueError(f"bad interval ({a}, {b})")
            if a < prev - DURATION_TOL:
                raise ValueError("intervals must be sorted and disjoint")
            prev = b
        object.__setattr__(self, "intervals", ivs)

    @property
    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)


def lengths(vectors: np.ndarray) -> np.ndarray:
    """Euclidean lengths along the last axis, taken after the exact scaling
    by the power of two that brings the largest entry into [0.5, 1): the
    plain norm bit for bit wherever no square underflows or overflows."""
    exp = math.frexp(np.abs(vectors).max())[1]
    return np.ldexp(np.linalg.norm(np.ldexp(vectors, -exp), axis=-1), exp)


def sup_norm(p: SteppedPath) -> float:
    """Essential supremum of the speed (zero-duration pieces never occur)."""
    return float(p.speeds.max())


def l1_norm(p: SteppedPath) -> float:
    """Total path length: integral of the speed."""
    return float(p.durations @ p.speeds)


def n1(p: SteppedPath) -> float:
    """horizon * sup-speed / |displacement|, or 1 for a closed path.

    The path counts as closed when its displacement is within k * 2**-53
    times its length, the rounding bound of the k-piece sum: below that the
    computed displacement is rounding noise, and dividing by it would turn
    an exact zero into a quotient near 1e16."""
    disp = float(lengths(p.displacement))
    if disp <= len(p.speeds) * 2.0 ** -53 * l1_norm(p):
        return 1.0
    return p.horizon * sup_norm(p) / disp


def n2(p: SteppedPath) -> float:
    """horizon * sup-speed / path length, or 1 for a motionless path."""
    length = l1_norm(p)
    if length == 0.0:
        return 1.0
    return p.horizon * sup_norm(p) / length


def cost_plain(p: SteppedPath, cost: CostFunction) -> float:
    """Integral of cost(speed) along the path."""
    return float(p.durations @ np.atleast_1d(cost.eval(p.speeds)))


def cost_li(p: SteppedPath, cost: CostFunction, i: int) -> float:
    """Modified running cost N_i * integral of cost(speed / N_i).

    Defined on unit-horizon paths only.
    """
    if abs(p.horizon - 1.0) > DURATION_TOL:
        raise BadHorizon("the modified cost is defined on horizon-1 paths")
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    ni = n1(p) if i == 1 else n2(p)
    return float(ni * (p.durations @ np.atleast_1d(cost.eval(p.speeds / ni))))


def stop_and_go(x, y, A: IntervalSet) -> SteppedPath:
    """Path from x to y moving at constant velocity exactly on A.

    Velocity is (y-x)/|A| on A and 0 off A; if x == y the constant path is
    returned regardless of A.  Raises DegenerateSet when x != y and |A| = 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    dim = len(x)
    zero = np.zeros(dim)
    if np.array_equal(x, y):
        return SteppedPath(start=x, horizon=1.0, durations=np.array([1.0]),
                           velocities=zero[None, :])
    total = A.measure
    if total <= 0:
        raise DegenerateSet("moving endpoints need a set of positive measure")
    v = (y - x) / total
    durations = []
    velocities = []
    cursor = 0.0
    for a, b in A.intervals:
        if a > cursor + DURATION_TOL:
            durations.append(a - cursor)
            velocities.append(zero)
        durations.append(b - a)
        velocities.append(v)
        cursor = b
    if cursor < 1.0 - DURATION_TOL:
        durations.append(1.0 - cursor)
        velocities.append(zero)
    durations = np.asarray(durations)
    # absorb rounding so the horizon constraint holds exactly
    durations = durations * (1.0 / durations.sum())
    return SteppedPath(start=x, horizon=1.0, durations=durations,
                       velocities=np.asarray(velocities))


def linear_path(x, y) -> SteppedPath:
    """Constant-velocity path from x to y on [0,1]."""
    return stop_and_go(x, y, IntervalSet(((0.0, 1.0),)))


def fast_path(x, y, n: int) -> SteppedPath:
    """Traverse the displacement at speed n*|y-x| in time 1/n, then rest.

    The plain cost of this path is cost(n*|y-x|)/n, which vanishes as n
    grows whenever cost(u)/u does: the degenerate unmodified problem.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return stop_and_go(x, y, IntervalSet(((0.0, 1.0 / n),)))


def detour_path(x0, x1) -> SteppedPath:
    """Two-leg constant-speed path through an apex equidistant from both ends.

    The apex sits at distance C = 1 + |x1-x0|/2 from each endpoint, placed
    at the midpoint plus a perpendicular offset in the first available
    orthogonal direction.  Both legs take time 1/2 at speed 2C, so the
    speed is constant and n2 = 1.  Needs dim >= 2 and distinct endpoints.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    if len(x0) < 2:
        raise DimensionTooSmall("the apex needs at least two dimensions")
    delta = x1 - x0
    dist = float(pairwise_distances(x0[None], x1[None])[0, 0])
    if dist == 0.0:
        raise CoincidentPoints("detour needs distinct endpoints")
    big_c = 1.0 + dist / 2.0
    height = np.sqrt(big_c ** 2 - (dist / 2.0) ** 2)
    u = delta / dist
    # first coordinate axis not parallel to the segment, orthogonalized
    k = int(np.argmin(np.abs(u)))
    e = np.zeros_like(u)
    e[k] = 1.0
    w = e - (e @ u) * u
    w = w / lengths(w)
    apex = x0 + delta / 2.0 + height * w
    return SteppedPath(start=x0, horizon=1.0,
                       durations=np.array([0.5, 0.5]),
                       velocities=np.stack([2.0 * (apex - x0),
                                            2.0 * (x1 - apex)]))


def stretch(p: SteppedPath, T: float) -> SteppedPath:
    """Reparametrize a unit-horizon path onto [0, T]: durations scale by T,
    velocities by 1/T.  The n-functionals over the new horizon are
    unchanged, and at T = n1(p) the plain cost of the stretched path equals
    the modified cost of the original."""
    if abs(p.horizon - 1.0) > DURATION_TOL:
        raise BadHorizon("stretch starts from a horizon-1 path")
    if T < 1.0 - DURATION_TOL:
        raise BadHorizon("stretch needs T >= 1")
    return SteppedPath(start=p.start, horizon=T, durations=p.durations * T,
                       velocities=p.velocities / T)


def compress(q: SteppedPath) -> SteppedPath:
    """Inverse of stretch: map a path on [0, T], T >= 1, back to [0, 1]."""
    T = q.horizon
    if T < 1.0 - DURATION_TOL:
        raise BadHorizon("compress needs horizon >= 1")
    return SteppedPath(start=q.start, horizon=1.0, durations=q.durations / T,
                       velocities=q.velocities * T)


def random_interval_set(rng: np.random.Generator) -> IntervalSet:
    """Seeded random union of 1-3 disjoint intervals with total length at
    least 0.05; used to exercise the stop-and-go constructions."""
    while True:
        k = int(rng.integers(1, 4))
        cuts = np.sort(rng.uniform(0.0, 1.0, size=2 * k))
        intervals = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]
        intervals = [(a, b) for a, b in intervals if b - a > 1e-9]
        s = IntervalSet(tuple(intervals)) if intervals else None
        if s is not None and s.measure >= 0.05:
            return s
