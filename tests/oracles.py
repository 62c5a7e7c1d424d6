"""Independent reference solvers and checks for the tests."""

import itertools
import math

import numpy as np

from lagot import mk_solver
from lagot.costs import _EQ_TOL, A1I, A1III, A2I, power_cost
from lagot.ensembles import (_BOUND_TOL, BoundedCouplingTriple,
                             EnsembleStack, _cost_at_caps)
from lagot.errors import Infeasible, InfeasibleBound, MissingBound
from lagot.measures import (Coupling, DiscreteMeasure, expectations,
                            make_coupling, measure_of, pairwise_distances,
                            row_sum)
from lagot.mk_solver import _FORBIDDEN_FLOW_TOL, _RC_TOL, MKSolution
from lagot.paths import (IntervalSet, PathBlock, block_of, lengths,
                         stop_and_go)


def brute_force_mk(m0: DiscreteMeasure, m1: DiscreteMeasure,
                   cost) -> MKSolution:
    """Exact minimum over all permutation plans.

    Only equal-weight instances with matching atom counts n <= 8 are
    accepted; every permutation corresponds to a vertex of the Birkhoff
    polytope, which is where the optimum of the LP lies.
    """
    n = m0.n_atoms
    assert n == m1.n_atoms, "both measures need the same number of atoms"
    assert n <= 8, f"brute force is limited to n <= 8, got {n}"
    for w in (m0.weights, m1.weights):
        assert np.max(np.abs(w - 1.0 / n)) <= 1e-12, "weights must all be 1/n"
    c = np.asarray(cost.eval(pairwise_distances(m0.points, m1.points)),
                   dtype=float)
    best = min(itertools.permutations(range(n)),
               key=lambda perm: sum(c[i, perm[i]] for i in range(n)))
    plan = np.zeros((n, n))
    plan[np.arange(n), best] = 1.0 / n
    return MKSolution(value=float(sum(c[i, best[i]] for i in range(n)) / n),
                      plan=make_coupling(m0, m1, plan))


def check_a1_per_r(cost, r_grid, u_grid) -> dict:
    """``lagot.costs.check_a1`` as a loop over r, one cost evaluation per
    r: the first r that fails gives the (A1i) witness, at its first u."""
    r_grid = np.asarray(r_grid, dtype=float)
    u_grid = np.asarray(u_grid, dtype=float)
    lu = np.atleast_1d(cost.eval(u_grid))
    scale = 1.0 + float(np.max(np.abs(lu)))
    a1i = None
    for r in r_grid:
        lru = np.atleast_1d(cost.eval(r * u_grid))
        bad = np.flatnonzero(lru - r * lu < -_EQ_TOL * scale)
        if bad.size:
            k = int(bad[0])
            a1i = (float(r), float(u_grid[k]), float(lru[k]), float(r * lu[k]))
            break
    if cost.eval(0.0) != 0.0:
        a1i = (0.0, cost.eval(0.0))
    nonpos = np.flatnonzero(lu <= 0)
    a1iii = None
    if nonpos.size:
        a1iii = (float(u_grid[nonpos[0]]), float(lu[nonpos[0]]))
    return {A1I: a1i, A1III: a1iii}


def check_a2_per_pair(cost, u_grid) -> dict:
    """``lagot.costs.check_a2`` as a loop over neighbouring pairs of the
    sorted grid: the first pair that decreases gives the (A2i) witness."""
    vals = cost.eval(u_grid).tolist()
    for k, (u, u2) in enumerate(zip(u_grid[:-1], u_grid[1:])):
        if vals[k + 1] - vals[k] < -_EQ_TOL:
            return {A2I: (float(u), float(u2), vals[k], vals[k + 1])}
    return {A2I: None}


# The transportation simplex as it was before its pivots moved to Python
# floats: numpy flow and potentials, and Bland pricing by ``np.argwhere``
# over the whole reduced-cost matrix.  lagot's simplex must return the same
# (flow, basis) bit for bit.

def _northwest_corner(supply, demand):
    n, m = len(supply), len(demand)
    a = supply.copy()
    b = demand.copy()
    flow = np.zeros((n, m))
    basis = []
    i = j = 0
    while True:
        q = min(a[i], b[j])
        flow[i, j] = q
        basis.append((i, j))
        a[i] -= q
        b[j] -= q
        if i == n - 1 and j == m - 1:
            break
        if j == m - 1:
            i += 1
        elif i == n - 1:
            j += 1
        elif a[i] <= 0.0:
            i += 1
        else:
            j += 1
    return flow, basis


def _basis_tree(basis, cost, n, m):
    """One breadth-first walk of the basis tree from row 0; rows are nodes
    ``0..n-1``, columns ``n..n+m-1``, neighbours come in basis order.
    Returns potentials u, v (u[0] = 0, u_i + v_j = cost[i, j] on the basis)
    and each node's parent, as a (node, cell) pair, and depth."""
    adj = [[] for _ in range(n + m)]
    for i, j in basis:
        adj[i].append(n + j)
        adj[n + j].append(i)
    pot = [np.nan] * (n + m)
    parent = [None] * (n + m)
    depth = [-1] * (n + m)
    pot[0], depth[0] = 0.0, 0
    order = [0]
    for k in order:
        for w in adj[k]:
            if depth[w] < 0:
                cell = (k, w - n) if k < n else (w, k - n)
                pot[w] = cost[cell] - pot[k]
                parent[w], depth[w] = (k, cell), depth[k] + 1
                order.append(w)
    return np.array(pot[:n]), np.array(pot[n:]), parent, depth


def _tree_path(parent, depth, i0, j0, n):
    """Cells along the unique basis-tree path from row i0 to column j0,
    found by climbing both ends to their common ancestor."""
    a, b = i0, n + j0
    up_a, up_b = [], []
    while a != b:
        if depth[a] >= depth[b]:
            a, cell = parent[a]
            up_a.append(cell)
        else:
            b, cell = parent[b]
            up_b.append(cell)
    return up_a + up_b[::-1]


def reference_simplex(supply, demand, cost, scale, pivots=None):
    """Minimize sum(flow * cost) over the transportation polytope.

    Returns (flow, basis).  Deterministic: Bland smallest-index entering
    and leaving rules.  Reduced costs above -_RC_TOL * scale count as
    nonnegative; ``scale`` is the largest |cost| of an allowed arc, never
    big-M.  A list given as ``pivots`` gets each pivot's (entering,
    leaving) cells appended, in order.
    """
    n, m = cost.shape
    flow, basis = _northwest_corner(np.asarray(supply, float),
                                    np.asarray(demand, float))
    max_iters = 20000 * (n + m)
    for _ in range(max_iters):
        u, v, parent, depth = _basis_tree(basis, cost, n, m)
        reduced = cost - u[:, None] - v[None, :]
        basis_set = set(basis)
        entering = None
        # Bland: lexicographically smallest violating cell
        neg = np.argwhere(reduced < -_RC_TOL * scale)
        for i, j in neg:
            if (int(i), int(j)) not in basis_set:
                entering = (int(i), int(j))
                break
        if entering is None:
            return flow, basis
        path = _tree_path(parent, depth, entering[0], entering[1], n)
        # cycle: entering (+), then alternating - / + along the tree path
        minus = path[0::2]
        plus = path[1::2]
        theta = min(flow[c] for c in minus)
        leaving = min(c for c in minus if flow[c] <= theta)
        if pivots is not None:
            pivots.append((entering, leaving))
        flow[entering] += theta
        for c in plus:
            flow[c] += theta
        for c in minus:
            flow[c] -= theta
        flow[leaving] = 0.0
        basis[basis.index(leaving)] = entering
    raise RuntimeError("transportation simplex failed to terminate")



def ensembles_of(s: EnsembleStack) -> list:
    """Each ensemble of a stack as a one-ensemble stack of its rows: a
    checked PathBlock of the sliced arrays, trimmed to its widest row."""
    p, out = s.paths, []
    for lo, hi in zip(s.cuts, s.cuts[1:]):
        width = p.counts[lo:hi].max()
        rows = PathBlock(p.starts[lo:hi], p.horizons[lo:hi],
                         p.durations[lo:hi, :width],
                         p.velocities[lo:hi, :width])
        out.append(EnsembleStack(rows, s.weights[lo:hi], s.bounds[lo:hi]))
    return out


def expectation(weights: np.ndarray, values) -> float:
    """Sum of weight * value over all entries, added first to last."""
    return expectations(weights, values, [0, len(weights)])[0]


def induced_triple_per_ensemble(e: EnsembleStack) -> BoundedCouplingTriple:
    """The coupling-with-bounds that a bounded ensemble induces on its
    endpoint cells, whose eval_tv ``lagot.ensembles.eval_tv_induced``
    equals in exact arithmetic, and bit for bit when no two members share a
    start: the endpoint laws from measure_of, atoms numbered by dict
    lookups of their points, the plan filled member by member, and each
    cell's one bound, on which the members sharing the cell must agree."""
    src, tgt = (measure_of(p, e.weights, e.paths.starts.shape[1])
                for p in (e.paths.starts, e.paths.ends))
    if np.isnan(e.bounds).any():
        raise MissingBound("every member needs a speed bound")
    src_index = {p: k for k, p in enumerate(map(tuple, src.points.tolist()))}
    tgt_index = {p: k for k, p in enumerate(map(tuple, tgt.points.tolist()))}
    ii = [src_index[p] for p in map(tuple, e.paths.starts.tolist())]
    jj = [tgt_index[p] for p in map(tuple, e.paths.ends.tolist())]
    plan = np.zeros((src.n_atoms, tgt.n_atoms))
    bounds: dict = {}
    for i, j, w, m in zip(ii, jj, e.weights.tolist(), e.bounds.tolist()):
        plan[i, j] += w
        if bounds.setdefault((i, j), m) != m:
            raise MissingBound("conflicting bounds on one endpoint cell")
    coupling = Coupling(src, tgt, plan)
    return BoundedCouplingTriple(coupling, [
        bounds[c] for c in zip(*(k.tolist() for k in coupling.support))])


def eval_tv_per_triple(t: BoundedCouplingTriple, cost) -> float:
    """``lagot.ensembles.eval_tv`` of one triple over its positive-bound
    cells only."""
    c, pos = t.coupling, t.bounds > 0
    m_ij = t.bounds[pos]
    return expectation(c.plan[c.support][pos]
                       * (_cost_at_caps(cost, m_ij) / m_ij),
                       c.distances[c.support][pos])


def eval_tv_induced_per_member(e: EnsembleStack, cost) -> float:
    """``lagot.ensembles.eval_tv_induced`` of one ensemble, member by
    member: each member's |end - start| from its own 1 x 1 kernel matrix,
    and weight * cost(M)/M times it summed over the members of positive
    bound M, first to last."""
    if np.isnan(e.bounds).any():
        raise MissingBound("every member needs a speed bound")
    dist = np.array([pairwise_distances(x[None], y[None])[0, 0]
                     for x, y in zip(e.paths.starts, e.paths.ends)])
    for r, (d, m) in enumerate(zip(dist.tolist(), e.bounds.tolist())):
        if d > m + _BOUND_TOL * m:
            raise InfeasibleBound(
                f"member {r}: displacement exceeds bound {m}")
    pos = e.bounds > 0
    m_r = e.bounds[pos]
    return expectation(e.weights[pos] * (_cost_at_caps(cost, m_r) / m_r),
                       dist[pos])


def build_opt_bounded_per_triple(t: BoundedCouplingTriple,
                                 ) -> EnsembleStack:
    """``lagot.ensembles.build_opt_bounded`` of one triple, built directly
    as a one-ensemble stack rather than through the block builder."""
    c = t.coupling
    ii, jj = c.support
    disp, bounds = c.distances[ii, jj], t.bounds
    moving = np.minimum(1.0, np.divide(disp, bounds, out=np.ones_like(disp),
                                       where=disp > 0.0))
    paths = stop_and_go(c.source.points[ii], c.target.points[jj],
                        [IntervalSet(((0.0, m),)) for m in moving.tolist()])
    return EnsembleStack(paths, c.plan[ii, jj], bounds)


# ---------------------------------------------------------------------------
# the static solvers as lagot first made them, one LP at a time: each with
# its own kernel call, cost call, mask, scale and big-M around the same
# simplex; references that pin the block solvers to the same bits
# ---------------------------------------------------------------------------

def solve_mk_per_pair(m0: DiscreteMeasure, m1: DiscreteMeasure, cost,
                      forbidden_arcs=None) -> MKSolution:
    """``lagot.mk_solver.solve_mk`` of one pair, priced on its own."""
    dist = pairwise_distances(m0.points, m1.points)
    c = np.asarray(cost.eval(dist), dtype=float)
    mask = np.zeros(c.shape, bool) if forbidden_arcs is None else np.array(
        [[bool(forbidden_arcs(i, j)) for j in range(m1.n_atoms)]
         for i in range(m0.n_atoms)])
    scale = float(np.max(np.abs(c[~mask]), initial=0.0)) or 1.0
    work = np.where(mask, (m0.n_atoms + m1.n_atoms + 1) * scale * 1e3, c)
    flow, _ = mk_solver._transportation_simplex(m0.weights, m1.weights,
                                                work, scale)
    flow = np.where(flow < 0, 0.0, flow)
    if float(flow[mask].sum()) > _FORBIDDEN_FLOW_TOL:
        raise Infeasible("no feasible plan avoids the forbidden arcs")
    plan = make_coupling(m0, m1, flow)
    dist.setflags(write=False)
    plan.__dict__["distances"] = dist
    return MKSolution(value=float((flow * c).sum()), plan=plan)


def solve_bounded_per_ladder(m0: DiscreteMeasure, m1: DiscreteMeasure, cost,
                             r):
    """``lagot.ensembles.solve_bounded`` of one ladder (or one cap), with
    its own kernel and cost calls, over solve_mk_per_pair."""
    caps = np.atleast_1d(np.asarray(r, dtype=float)).tolist()
    for rk in caps:
        if not math.isfinite(rk):
            raise ValueError(f"the speed cap must be finite, got {rk!r}")
        if rk <= 0:
            raise Infeasible("the speed cap must be positive")
    cost_rs = _cost_at_caps(cost, caps).tolist()
    dist, solved, out = pairwise_distances(m0.points, m1.points), {}, []
    for rk, cost_r in zip(caps, cost_rs):
        arcs = dist <= rk
        key = arcs.tobytes()
        if key not in solved:
            solved[key] = solve_mk_per_pair(
                m0, m1, power_cost(1.0),
                forbidden_arcs=lambda i, j: not arcs[i, j])
        sol = solved[key]
        out.append((cost_r / rk * sol.value,
                    BoundedCouplingTriple(sol.plan,
                                          [rk] * len(sol.plan.support[0]))))
    return out[0] if np.ndim(r) == 0 else out


# ---------------------------------------------------------------------------
# the seeded draws as lagot first made them, through the costlier numpy
# calls: references that pin the cheaper calls to the same streams, value
# for value and state for state
# ---------------------------------------------------------------------------

def random_measure_per_call(rng, n_atoms: int, dim: int,
                            box_radius: float) -> DiscreteMeasure:
    """``lagot.measures.random_measure`` with ``rng.dirichlet`` weights."""
    points = rng.uniform(-box_radius, box_radius, size=(n_atoms, dim))
    return measure_of(points, rng.dirichlet(np.ones(n_atoms)), dim)


def rand_measure_per_call(rng, n_atoms: int, dim: int) -> DiscreteMeasure:
    """``lagot.harness._rand_measure`` over random_measure_per_call."""
    return random_measure_per_call(rng, int(rng.integers(1, n_atoms + 1)),
                                   dim, 2.0)


def rand_rows_per_call(rng, dim: int, n: int, extra: bool = False) -> tuple:
    """``lagot.harness._rand_rows`` with ``rng.dirichlet`` durations, every
    displacement summed by the row_sum kernel, and each extra number drawn
    by ``rng.uniform(0.0, 1.0)``."""
    rows, drawn = [], []
    while len(rows) < n:
        k = int(rng.integers(1, 5))
        durations = rng.dirichlet(np.ones(k))
        velocities = rng.normal(0.0, 2.0, size=(k, dim))
        start = rng.uniform(-1, 1, size=dim)
        disp = row_sum((durations[:, None] * velocities).T)
        if max(map(abs, disp.tolist())) >= 1e-3 or lengths(disp) >= 1e-3:
            rows.append((start, 1.0, durations, velocities))
            drawn.extend([rng.uniform(0.0, 1.0)] if extra else [])
    return rows, drawn


def rand_bounded_triple_per_call(rng, n_atoms: int,
                                 dim: int) -> BoundedCouplingTriple:
    """``lagot.harness._rand_bounded_triple`` with one scalar
    ``rng.integers`` level pick and one Python ``max`` per cell."""
    m0 = rand_measure_per_call(rng, n_atoms, dim)
    m1 = rand_measure_per_call(rng, n_atoms, dim)
    coupling = make_coupling(m0, m1, np.outer(m0.weights, m1.weights))
    levels = np.sort(rng.uniform(0.5, 2.0, size=3))
    bounds = []
    for i, j in zip(*(k.tolist() for k in coupling.support)):
        disp = float(coupling.distances[i, j])
        level = float(levels[int(rng.integers(0, 3))])
        bounds.append(max(disp, level * (1.0 + disp)))
    return BoundedCouplingTriple(coupling, bounds)


def rand_bounded_ensembles_per_call(rngs, dim: int, n: int) -> EnsembleStack:
    """``lagot.harness._rand_bounded_ensembles`` with ``rng.dirichlet``
    weights over rand_rows_per_call."""
    weights, rows, drawn = [], [], []
    for rng in rngs:
        for _ in range(n):
            weights.append(rng.dirichlet(np.ones(int(rng.integers(1, 4)))))
            more, after = rand_rows_per_call(rng, dim, len(weights[-1]),
                                             extra=True)
            rows += more
            drawn += after
    paths = block_of(*zip(*rows))
    bounds = paths.speeds.max(axis=1) * (1.0 + np.array(drawn))
    cuts = np.cumsum([0] + [len(w) for w in weights]).tolist()
    return EnsembleStack(paths, np.concatenate(weights), bounds, cuts)


def random_interval_set_per_call(rng) -> IntervalSet:
    """``lagot.paths.random_interval_set`` with ``rng.uniform`` cuts sorted
    by ``np.sort``."""
    while True:
        k = int(rng.integers(1, 4))
        cuts = np.sort(rng.uniform(0.0, 1.0, size=2 * k))
        intervals = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]
        intervals = [(a, b) for a, b in intervals if b - a > 1e-9]
        s = IntervalSet(tuple(intervals)) if intervals else None
        if s is not None and s.measure >= 0.05:
            return s
