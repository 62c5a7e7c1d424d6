"""Piecewise-constant-velocity paths and the explicit constructions.

A stepped path is a start point plus a finite sequence of (duration,
velocity) pieces on [0, horizon].  The two dimensionless functionals
n1 and n2 (horizon * sup-speed over displacement, resp. over path length)
and the modified running costs built from them are evaluated exactly as
finite sums; the optimal paths of the transport identities are all of this
form, so nothing is lost by restricting to it.

Paths are held k at a time as one zero-padded ``PathBlock``, a
``SteppedPath`` being a one-row block; each functional evaluates all rows
of a block in one array expression and returns one value or row per row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .costs import CostFunction
from .errors import (BadHorizon, CoincidentPoints, ConfigInvalid,
                     DegenerateSet, DimensionMismatch, DimensionTooSmall)
from .measures import (freeze, json_numbers, json_rows, pairwise_distances,
                       read_only, row_sum)

DURATION_TOL = 1e-12


@dataclass(frozen=True)
class PathBlock:
    """k stepped paths as zero-padded arrays.

    ``starts`` (k, dim), ``horizons`` (k,), ``durations`` (k, P),
    ``velocities`` (k, P, dim) and ``counts`` (k,).  Row r uses its first
    counts[r] pieces, whose durations are positive and sum to the finite
    horizon; every later entry is zero.  Values are finite.
    """

    starts: np.ndarray
    horizons: np.ndarray
    durations: np.ndarray
    velocities: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        starts, horizons, durations, velocities = (
            np.asarray(a, dtype=float) for a in (
                self.starts, self.horizons, self.durations, self.velocities))
        counts = np.asarray(self.counts, dtype=int)
        if durations.shape != velocities.shape[:2] or not durations.shape[1]:
            raise ValueError("a path needs pieces, one velocity per piece")
        rows = len(starts), len(horizons), len(durations), len(counts)
        if min(rows) < max(rows):
            raise DimensionMismatch("%d starts, %d horizons, %d rows of "
                                    "pieces and %d counts" % rows)
        # first, so that a NaN or infinite duration or horizon fails here
        sums, tol = row_sum(durations), DURATION_TOL * np.fmax(1.0, horizons)
        bad = ~((np.abs(sums - horizons) <= tol) & (tol < np.inf))
        if bad.any():
            raise BadHorizon(f"durations sum to {float(sums[bad][0])}, "
                             f"horizon {float(horizons[bad][0])}")
        pad = np.arange(durations.shape[1]) >= counts[:, None]
        if not (np.sign(durations) == ~pad).all():
            raise ValueError("durations must be positive, and zero on padding")
        if velocities[pad].any():
            raise ValueError("padding velocities must be zero")
        if not (np.isfinite(velocities).all() and np.isfinite(starts).all()):
            raise ValueError("start and velocities must be finite")
        if velocities.shape[2] != starts.shape[1]:
            raise DimensionMismatch(f"velocities of dim {velocities.shape[2]} "
                                    f"vs a start of dim {starts.shape[1]}")
        freeze(self, starts=starts, horizons=horizons, durations=durations,
               velocities=velocities, counts=counts)

    @functools.cached_property
    def speeds(self) -> np.ndarray:
        """(k, P) |v| of each piece, measured on first read; padding reads
        0.  This and the two below are read-only."""
        return read_only(lengths(self.velocities))

    @functools.cached_property
    def displacements(self) -> np.ndarray:
        """(k, dim) sum of duration * velocity over each row's pieces."""
        return read_only(row_sum(self.durations[..., None] * self.velocities))

    @functools.cached_property
    def ends(self) -> np.ndarray:
        return read_only(self.starts + self.displacements)

    def take(self, lo: int, hi: int) -> "PathBlock":
        """Rows lo to hi - 1 as a block viewing these arrays, padded to
        their longest row, and viewing the speeds too once measured;
        unchecked, as this block was checked when it was built."""
        width = self.counts[lo:hi].max()
        view = object.__new__(PathBlock)
        freeze(view, starts=self.starts[lo:hi],
               horizons=self.horizons[lo:hi], counts=self.counts[lo:hi],
               durations=self.durations[lo:hi, :width],
               velocities=self.velocities[lo:hi, :width])
        if "speeds" in vars(self):  # lengths measures vector by vector
            vars(view)["speeds"] = self.speeds[lo:hi, :width]
        return view

    def to_json(self) -> list:
        """One JSON object per row: its start, horizon and pieces."""
        return [{"start": start, "horizon": horizon,
                 "pieces": [{"dt": dt, "v": v} for dt, v in
                            zip(durations[:c], velocities[:c])]}
                for start, horizon, durations, velocities, c in zip(
                    self.starts.tolist(), self.horizons.tolist(),
                    self.durations.tolist(), self.velocities.tolist(),
                    self.counts.tolist())]

    @staticmethod
    def from_json(rows) -> "PathBlock":
        """Block of ``to_json``'s rows, one read per field; horizon 1."""
        raw = [obj["start"] for obj in rows]
        counts = [len(obj["pieces"]) for obj in rows]
        for name, empty in (("start", [] in raw), ("pieces", 0 in counts)):
            if empty:
                raise ConfigInvalid(f"{name} must not be empty")
        starts = json_rows(raw, "start", "member paths", 1)
        horizons = json_rows([obj.get("horizon", 1.0) for obj in rows],
                             "horizon", "member paths", 0)
        flat = [p for obj in rows for p in obj["pieces"]]
        return block_of_pieces(starts, horizons, counts,
                               json_numbers([p["dt"] for p in flat], "dt", 1),
                               json_numbers([p["v"] for p in flat], "v", 2))


def block_of(starts, horizons, durations, velocities) -> PathBlock:
    """Block of the rows given as sequences: starts (dim,), durations
    (k_r,) and velocities (k_r, dim), zero-padded to the longest row."""
    return block_of_pieces(starts, horizons, [len(d) for d in durations],
                           *map(np.concatenate, (durations, velocities)))


def block_of_pieces(starts, horizons, counts, durations,
                    velocities) -> PathBlock:
    """Block of rows whose pieces, counts[r] for row r, come end to end,
    zero-padded to the longest row through one boolean mask."""
    counts = np.asarray(counts)
    mask = np.arange(counts.max()) < counts[:, None]
    pad_d = np.zeros(mask.shape)
    pad_v = np.zeros(mask.shape + velocities.shape[1:])
    pad_d[mask], pad_v[mask] = durations, velocities
    return PathBlock(starts, horizons, pad_d, pad_v, counts)


class SteppedPath(PathBlock):
    """Absolutely continuous path with piecewise-constant velocity: the
    one-row block of ``start`` (dim,), ``horizon``, ``durations`` (k,) and
    ``velocities`` (k, dim), or (k,) in one dimension."""

    def __init__(self, start, horizon, durations, velocities):
        v = np.array(velocities, dtype=float)
        super().__init__(np.atleast_1d(np.array(start, dtype=float))[None],
                         [horizon], np.array(durations, dtype=float)[None],
                         (v[:, None] if v.ndim == 1 else v)[None], [len(v)])


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint open subintervals of [0,1], sorted."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple([(float(a), float(b)) for a, b in self.intervals])
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
    """Euclidean lengths along the last axis, each vector taken after the
    exact scaling by the power of two that brings its largest entry into
    [0.5, 1): the plain norm bit for bit wherever no square underflows or
    overflows, and scale-free vector by vector."""
    exp = np.frexp(np.abs(vectors).max(axis=-1))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(vectors, -exp[..., None]),
                                   axis=-1), exp)


def sup_norm(b: PathBlock) -> np.ndarray:
    """Essential supremum of each row's speed (zero-duration pieces never
    occur)."""
    return b.speeds.max(axis=1)


def l1_norm(b: PathBlock) -> np.ndarray:
    """Each row's length: the integral of its speed."""
    return row_sum(b.durations * b.speeds)


def n1(b: PathBlock) -> np.ndarray:
    """horizon * sup-speed / |displacement| of each row, or 1 for a closed
    row.

    A row counts as closed when its displacement is within k * 2**-53
    times its length, the rounding bound of the k-piece sum: below that the
    computed displacement is rounding noise, and dividing by it would turn
    an exact zero into a quotient near 1e16."""
    disp = lengths(b.displacements)
    closed = disp <= b.counts * 2.0 ** -53 * l1_norm(b)
    ratio = b.horizons * sup_norm(b) / np.where(closed, 1.0, disp)
    return np.where(closed, 1.0, ratio)


def n2(b: PathBlock) -> np.ndarray:
    """horizon * sup-speed / length of each row, or 1 for a motionless
    row."""
    length = l1_norm(b)
    still = length == 0.0
    ratio = b.horizons * sup_norm(b) / np.where(still, 1.0, length)
    return np.where(still, 1.0, ratio)


def cost_plain(b: PathBlock, cost: CostFunction) -> np.ndarray:
    """Integral of cost(speed) along each row."""
    return row_sum(b.durations * cost.eval(b.speeds))


def cost_li(b: PathBlock, cost: CostFunction, i: int) -> np.ndarray:
    """Modified running cost N_i * integral of cost(speed / N_i) of each
    row.

    Defined on unit-horizon paths only.
    """
    if np.any(np.abs(b.horizons - 1.0) > DURATION_TOL):
        raise BadHorizon("the modified cost is defined on horizon-1 paths")
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    ni = n1(b) if i == 1 else n2(b)
    return ni * row_sum(b.durations * cost.eval(b.speeds / ni[:, None]))


def stop_and_go(x, y, A) -> PathBlock:
    """Block of the paths from x[r] to y[r] moving at constant velocity
    exactly on the set A[r], for (k, dim) endpoints and k sets.

    Velocity is (y-x)/|A| on A and 0 off A; if x == y the constant path is
    returned regardless of A.  Raises DegenerateSet when x != y and |A| = 0.
    """
    xs, ys = (np.atleast_2d(np.asarray(p, dtype=float)) for p in (x, y))
    if len(A) != len(xs):
        raise DimensionMismatch(f"{len(A)} sets for {len(xs)} paths")
    pieces, totals = [], []
    for move, one in zip((xs != ys).any(axis=1).tolist(), A):
        row, cursor = [], 0.0
        total = one.measure if move else 1.0
        if total <= 0:
            raise DegenerateSet("moving endpoints need a set of positive "
                                "measure")
        for a, b in one.intervals if move else ():
            if a > cursor + DURATION_TOL:
                row.append((a - cursor, False))
            row.append((b - a, True))
            cursor = b
        if cursor < 1.0 - DURATION_TOL:
            row.append((1.0 - cursor, False))
        pieces.append(row)
        totals.append(total)
    counts = [len(row) for row in pieces]
    durations = np.zeros((len(counts), max(counts)))
    on = np.zeros(durations.shape, dtype=bool)
    for r, row in enumerate(pieces):
        durations[r, :counts[r]], on[r, :counts[r]] = zip(*row)
    # absorb rounding so the horizon constraint holds exactly
    durations = durations * (1.0 / row_sum(durations))[:, None]
    v = (ys - xs) / np.asarray(totals)[:, None]
    return PathBlock(xs, np.ones(len(counts)), durations,
                     np.where(on[..., None], v[:, None, :], 0.0), counts)


def linear_path(x, y) -> PathBlock:
    """One-row block of the constant-velocity path from x to y on [0,1]."""
    return stop_and_go(x, y, [IntervalSet(((0.0, 1.0),))])


def fast_path(x, y, ns) -> PathBlock:
    """Block of one path per n in ``ns``: traverse the displacement at
    speed n*|y-x| in time 1/n, then rest.

    The plain cost of such a path is cost(n*|y-x|)/n, which vanishes as n
    grows whenever cost(u)/u does: the degenerate unmodified problem.
    """
    if min(ns) < 1:
        raise ValueError("n must be >= 1")
    return stop_and_go(np.tile(x, (len(ns), 1)), np.tile(y, (len(ns), 1)),
                       [IntervalSet(((0.0, 1.0 / n),)) for n in ns])


def detour_path(x0, x1) -> SteppedPath:
    """One-row block of the two-leg constant-speed path through an apex
    equidistant from both ends.

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


def stretch(b: PathBlock, T) -> PathBlock:
    """Reparametrize unit-horizon rows onto [0, T]: durations scale by T,
    velocities by 1/T, with T one per row or one for all.  The
    n-functionals over the new horizon are unchanged, and at T = n1(b) the
    plain cost of the stretched row equals the modified cost of the
    original."""
    T = np.broadcast_to(np.asarray(T, dtype=float), b.horizons.shape)
    if np.any(np.abs(b.horizons - 1.0) > DURATION_TOL):
        raise BadHorizon("stretch starts from a horizon-1 path")
    if np.any(T < 1.0 - DURATION_TOL):
        raise BadHorizon("stretch needs T >= 1")
    return PathBlock(b.starts, T, b.durations * T[:, None],
                     b.velocities / T[:, None, None], b.counts)


def compress(b: PathBlock) -> PathBlock:
    """Inverse of stretch: map rows on [0, T], T >= 1, back to [0, 1]."""
    T = b.horizons
    if np.any(T < 1.0 - DURATION_TOL):
        raise BadHorizon("compress needs horizon >= 1")
    return PathBlock(b.starts, np.ones_like(T), b.durations / T[:, None],
                     b.velocities * T[:, None, None], b.counts)


def random_interval_set(rng: np.random.Generator) -> IntervalSet:
    """Seeded random union of 1-3 disjoint intervals with total length at
    least 0.05; used to exercise the stop-and-go constructions."""
    while True:
        k = int(rng.integers(1, 4))
        cuts = sorted(rng.random(2 * k).tolist())  # uniform(0.0, 1.0)'s
        intervals = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]
        intervals = [(a, b) for a, b in intervals if b - a > 1e-9]
        s = IntervalSet(tuple(intervals)) if intervals else None
        if s is not None and s.measure >= 0.05:
            return s
