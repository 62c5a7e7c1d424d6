"""Exact discrete optimal transport for radial costs.

The transportation LP is solved in-repo by the classical transportation
(network) simplex with Bland's smallest-index rule on both the entering and
the leaving variable, which rules out cycling.  Pricing is a Python scan
that stops at the first entering cell or, above _ARRAY_SCAN_CELLS cells
(measured break-even: 500-700), one array expression over all cells.  The
basis tree and its dual potentials are kept across pivots: a pivot walks
again only the subtree that its leaving cell cuts off.  Forbidden arcs are
priced with a big-M penalty and a positive flow on any of them at
optimality means the constrained instance is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .costs import CostFunction, power_cost
from .errors import Infeasible
from .measures import Coupling, DiscreteMeasure, arc_lengths, make_coupling

_RC_TOL = 1e-11
_FORBIDDEN_FLOW_TOL = 1e-9
_ARRAY_SCAN_CELLS = 650


@dataclass(frozen=True)
class MKSolution:
    value: float
    plan: Coupling


def _northwest_corner(supply, demand):
    """North-west corner start: the flow as a list of rows, and the basis."""
    n, m = len(supply), len(demand)
    a, b = list(supply), list(demand)
    flow = [[0.0] * m for _ in range(n)]
    basis = []
    i = j = 0
    while True:
        q = min(a[i], b[j])
        flow[i][j] = q
        basis.append((i, j))
        a[i] -= q
        b[j] -= q
        if i == n - 1 and j == m - 1:
            break
        if j == m - 1 or (i < n - 1 and a[i] <= 0.0):
            i += 1
        else:
            j += 1
    return flow, basis


def _walk(top, adj, pot, parent, depth):
    """Set pot, parent and depth below ``top``, whose own are set, walking
    breadth-first: a node's neighbours but its parent hang under it."""
    order = [top]
    for k in order:
        up, below = pot[k], depth[k] + 1
        skip = parent[k][0] if parent[k] else None
        for w, cell, c in adj[k]:
            if w != skip:
                pot[w], parent[w], depth[w] = c - up, (k, cell), below
                order.append(w)


def _basis_tree(basis, cost, n, m):
    """One full walk of the basis tree from row 0; rows are nodes
    ``0..n-1``, columns ``n..n+m-1``.  Returns the potentials as one list,
    u_i at node i and v_j at node n + j (u_0 = 0, u_i + v_j = cost[i][j] on
    the basis), each node's parent, as a (node, cell) pair, its depth, and
    the adjacency lists of (node, cell, cost) that :func:`_pivot` keeps."""
    adj = [[] for _ in range(n + m)]
    for cell in basis:
        i, j = cell
        adj[i].append((n + j, cell, cost[i][j]))
        adj[n + j].append((i, cell, cost[i][j]))
    pot, parent, depth = [0.0] * (n + m), [None] * (n + m), [0] * (n + m)
    _walk(0, adj, pot, parent, depth)
    return pot, parent, depth, adj


def _pivot(basis, tree, cost, n, entering, leaving):
    """Swap ``leaving`` for ``entering`` in the basis and in its tree.

    The leaving cell's edge cuts off the subtree under its deeper end, and
    the entering cell joins that subtree to the rest.  Only the cut subtree
    is walked again, from the entering cell's end inside it, so each node
    gets the parent, depth and potential (the alternating cost sum along
    its root path) that a full walk of the new basis gives, bit for bit."""
    pot, parent, depth, adj = tree
    basis[basis.index(leaving)] = entering
    (i, j), (a, b) = leaving, entering
    for k in (i, n + j):
        adj[k] = [e for e in adj[k] if e[1] != leaving]
    c = cost[a][b]
    adj[a].append((n + b, entering, c))
    adj[n + b].append((a, entering, c))
    cut, x = (i if depth[i] > depth[n + j] else n + j), a
    while depth[x] > depth[cut]:
        x = parent[x][0]
    inner, outer = (a, n + b) if x == cut else (n + b, a)
    pot[inner], parent[inner], depth[inner] = (
        c - pot[outer], (outer, entering), depth[outer] + 1)
    _walk(inner, adj, pot, parent, depth)


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


def _entering(cost, pot, n, free, tol):
    """Bland: the first non-basis (``free``) cell, row by row, whose reduced
    cost (c - u_i) - v_j is below tol; None at optimality."""
    v = pot[n:]
    for i, row in enumerate(cost):
        ui = pot[i]
        for j, vj in enumerate(v):
            if (row[j] - ui) - vj < tol and free[i][j]:
                return i, j
    return None


def _entering_array(cost, pot, n, free, tol):
    """_entering as one array expression masked by the boolean matrix
    ``free``; numpy rounds each difference as Python does: the same cell."""
    hit = ((cost - np.array(pot[:n])[:, None]) - pot[n:] < tol) & free
    k = int(hit.argmax())
    return divmod(k, cost.shape[1]) if hit.flat[k] else None


def _transportation_simplex(supply, demand, cost, scale):
    """Minimize sum(flow * cost) over the transportation polytope.

    Returns (flow, basis).  Deterministic: Bland smallest-index entering
    and leaving rules.  Reduced costs above -_RC_TOL * scale count as
    nonnegative; ``scale`` is the largest |cost| of an allowed arc, never
    big-M.  Pivots run on Python floats, whose IEEE arithmetic is numpy's.
    """
    n, m = cost.shape
    c = cost.tolist()
    flow, basis = _northwest_corner(np.asarray(supply, float).tolist(),
                                    np.asarray(demand, float).tolist())
    tree, free = _basis_tree(basis, c, n, m), [[True] * m for _ in range(n)]
    for i, j in basis:
        free[i][j] = False
    pot, parent, depth, _ = tree
    scan, prices, free = ((_entering, c, free) if n * m <= _ARRAY_SCAN_CELLS
                          else (_entering_array, cost, np.array(free)))
    for _ in range(20000 * (n + m)):
        entering = scan(prices, pot, n, free, -_RC_TOL * scale)
        if entering is None:
            return np.array(flow), basis
        path = _tree_path(parent, depth, entering[0], entering[1], n)
        # cycle: entering (+), then alternating - / + along the tree path
        minus = path[0::2]
        theta = min(flow[i][j] for i, j in minus)
        leaving = min(e for e in minus if flow[e[0]][e[1]] <= theta)
        for i, j in [entering] + path[1::2]:
            flow[i][j] += theta
        for i, j in minus:
            flow[i][j] -= theta
        (i, j), (a, b) = leaving, entering
        flow[i][j], free[i][j], free[a][b] = 0.0, True, False
        _pivot(basis, tree, c, n, entering, leaving)
    raise RuntimeError("transportation simplex failed to terminate")


def _solve(m0, m1, dist, c, mask) -> MKSolution:
    """One LP on its slice of a block, the arcs where mask holds forbidden."""
    # tolerance and big-M both scale with the allowed arcs, so scaling every
    # point scales the optimum and leaves the pivots alone
    scale = float(np.max(np.abs(c if mask is None else c[~mask]),
                         initial=0.0)) or 1.0
    work = c if mask is None else np.where(
        mask, (m0.n_atoms + m1.n_atoms + 1) * scale * 1e3, c)
    flow, _ = _transportation_simplex(m0.weights, m1.weights, work, scale)
    flow = np.where(flow < 0, 0.0, flow)
    if mask is not None and float(flow[mask].sum()) > _FORBIDDEN_FLOW_TOL:
        raise Infeasible("no feasible plan avoids the forbidden arcs")
    plan = make_coupling(m0, m1, flow)
    dist.setflags(write=False)  # the cached Coupling.distances: the matrix
    plan.__dict__["distances"] = dist  # priced here, not a second kernel call
    return MKSolution(value=float((flow * c).sum()), plan=plan)


def solve_mk_each(pairs, cost: CostFunction, forbidden_arcs=None) -> list:
    """solve_mk of each (m0, m1) pair, pair k with ``forbidden_arcs[k]``
    when given: one kernel call and one cost call price every arc of every
    pair, then each LP is solved on its own slice."""
    dist, cuts = arc_lengths(pairs)
    c = np.asarray(cost.eval(dist), dtype=float)
    sols = []
    for (m0, m1), lo, hi, arcs in zip(pairs, cuts, cuts[1:],
                                      forbidden_arcs or [None] * len(pairs)):
        n, m = m0.n_atoms, m1.n_atoms
        mask = None if arcs is None else np.array(
            [[bool(arcs(i, j)) for j in range(m)] for i in range(n)])
        sols.append(_solve(m0, m1, dist[lo:hi].reshape(n, m),
                           c[lo:hi].reshape(n, m), mask))
    return sols


def solve_mk(m0: DiscreteMeasure, m1: DiscreteMeasure, cost: CostFunction,
             forbidden_arcs: Optional[Callable[[int, int], bool]] = None,
             ) -> MKSolution:
    """Exact optimum of the transportation LP with cost(|x_i - y_j|) arcs.

    ``forbidden_arcs(i, j)`` excludes arcs; Infeasible is raised when no
    plan avoids them.  The one-pair case of solve_mk_each.
    """
    return solve_mk_each([(m0, m1)], cost, [forbidden_arcs])[0]


def t_p(m0: DiscreteMeasure, m1: DiscreteMeasure, p: float) -> float:
    """Transport value under the power cost u**p; any p > 0 is allowed
    since the LP itself is cost-agnostic."""
    return solve_mk(m0, m1, power_cost(p)).value
