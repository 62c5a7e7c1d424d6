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
from .measures import (Coupling, DiscreteMeasure, arc_lengths, make_coupling,
                       read_only)

_RC_TOL = 1e-11
_FORBIDDEN_FLOW_TOL = 1e-9
_ARRAY_SCAN_CELLS = 650


@dataclass(frozen=True)
class MKSolution:
    """The optimum ``value`` and ``plan``; from the simplex also the final
    ``basis`` cells, the read-only dual ``potentials`` (u, v) of the priced
    matrix (big-M on forbidden arcs) and the ``pivots`` made, else None."""
    value: float
    plan: Coupling
    basis: Optional[tuple] = None
    potentials: Optional[tuple] = None
    pivots: Optional[int] = None


class _Tree(list):
    """A basis as the list of its cells, swapped in place through ``slot``
    (cell -> index), and its tree from row 0; rows are nodes 0..n-1, columns
    n..n+m-1, each with ``pot`` (u_0 = 0), ``parent``, ``up`` cell, its cost
    ``cup``, ``depth`` and ``kids``."""


def _northwest_corner(a, b, cost):
    """North-west corner start from the supply and demand lists a and b,
    used up: the flow as a list of rows, and the basis as its _Tree, each
    cell hanging a new node from the one it shares with the cell before."""
    n, m, tree, i, j = len(a), len(b), _Tree(), 0, 0
    flow, kids = [[0.0] * m for _ in range(n)], [[] for _ in range(n + m)]
    pot, depth = [0.0] * (n + m), [0] * (n + m)
    parent, up, cup = [None] * (n + m), [None] * (n + m), [None] * (n + m)
    new, old = n, 0  # column 0 hangs from row 0
    for _ in range(n + m - 1):  # each cell moves on by a row or a column
        q, cell, cup[new] = min(a[i], b[j]), (i, j), cost[i][j]
        flow[i][j], parent[new], up[new] = q, old, cell
        pot[new], depth[new] = cup[new] - pot[old], depth[old] + 1
        tree.append(cell)
        kids[old].append(new)
        a[i], b[j] = a[i] - q, b[j] - q
        if j == m - 1 or (i < n - 1 and a[i] <= 0.0):
            i, new, old = i + 1, i + 1, n + j
        else:
            j, new, old = j + 1, n + j + 1, i
    tree.pot, tree.depth, tree.parent, tree.up, tree.cup, tree.kids = (
        pot, depth, parent, up, cup, kids)
    tree.slot = {cell: k for k, cell in enumerate(tree)}
    return flow, tree


def _pivot(tree, entering, c, inner, outer, top):
    """Swap the cell over node ``top`` for ``entering``, of cost c, which
    joins ``inner``, under top, to ``outer``: the subtree under top is cut
    off, turned over along the path from inner to top, hung from outer and
    walked again, so each node gets the depth and potential (the
    alternating cost sum on its root path) of a full walk, bit for bit."""
    pot, depth, parent, up, cup, kids = (tree.pot, tree.depth, tree.parent,
                                         tree.up, tree.cup, tree.kids)
    k = tree.slot.pop(up[top])
    tree[k], tree.slot[entering] = entering, k
    pot[inner], depth[inner] = c - pot[outer], depth[outer] + 1
    x, p, cell = inner, outer, entering
    while p != top:
        xp, xu, xc = parent[x], up[x], cup[x]
        kids[xp].remove(x)
        kids[p].append(x)
        parent[x], up[x], cup[x] = p, cell, c
        x, p, cell, c = xp, x, xu, xc
    order = [inner]
    for k in order:
        if kids[k]:
            u, below = pot[k], depth[k] + 1
            for w in kids[k]:
                pot[w], depth[w] = cup[w] - u, below
            order += kids[k]


def _cycle(tree, flow, i0, j0, n):
    """The cells of the tree path from row i0 to column j0 that gain what
    the entering cell (i0, j0) gains, and those that lose it, each as its
    (flow, cell, node under it, end of (i0, j0) that it cuts off), from one
    climb from both ends: a cell climbed from its end's side loses."""
    parent, up, depth = tree.parent, tree.up, tree.depth
    a, b, plus, minus = i0, n + j0, [], []
    while a != b:
        if depth[a] >= depth[b]:
            x, a, end = a, parent[a], i0
        else:
            x, b, end = b, parent[b], n + j0
        cell = up[x]
        if (x < n) == (end < n):
            minus.append((flow[cell[0]][cell[1]], cell, x, end))
        else:
            plus.append(cell)
    return plus, minus


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

    Returns (flow, basis), the basis as its _Tree, whose ``pivots`` counts
    the pivots made.  Deterministic: Bland smallest-index entering and
    leaving rules.  Reduced costs above -_RC_TOL * scale count as
    nonnegative; ``scale`` is the largest |cost| of an allowed arc, never
    big-M.  Pivots run on Python floats, whose IEEE arithmetic is numpy's.
    """
    n, m = cost.shape
    c = cost.tolist()
    flow, tree = _northwest_corner(np.asarray(supply, float).tolist(),
                                   np.asarray(demand, float).tolist(), c)
    free = [[True] * m for _ in range(n)]
    for i, j in tree:
        free[i][j] = False
    scan, prices, free = ((_entering, c, free) if n * m <= _ARRAY_SCAN_CELLS
                          else (_entering_array, cost, np.array(free)))
    for tree.pivots in range(20000 * (n + m)):
        entering = scan(prices, tree.pot, n, free, -_RC_TOL * scale)
        if entering is None:
            return np.array(flow), tree
        a, b = entering
        plus, minus = _cycle(tree, flow, a, b, n)
        # Bland: the losing cell of least flow, theta, then of least index;
        # it drops to 0.0 and the entering cell, at 0.0, rises to theta
        theta, (i, j), top, inner = min(minus)
        for f, (r, s), _, _ in minus:
            flow[r][s] = f - theta
        for r, s in plus:
            flow[r][s] += theta
        flow[a][b], free[i][j], free[a][b] = theta, True, False
        _pivot(tree, entering, c[a][b], inner, a + n + b - inner, top)
    raise RuntimeError("transportation simplex failed to terminate")


def _solve(m0, m1, dist, c, mask) -> MKSolution:
    """One LP on its slice of a block, the arcs where mask holds forbidden."""
    # tolerance and big-M both scale with the allowed arcs, so scaling every
    # point scales the optimum and leaves the pivots alone
    scale = float(np.max(np.abs(c if mask is None else c[~mask]),
                         initial=0.0)) or 1.0
    work = c if mask is None else np.where(
        mask, (m0.n_atoms + m1.n_atoms + 1) * scale * 1e3, c)
    flow, tree = _transportation_simplex(m0.weights, m1.weights, work, scale)
    if mask is not None and float(flow[mask].sum()) > _FORBIDDEN_FLOW_TOL:
        raise Infeasible("no feasible plan avoids the forbidden arcs")
    plan = make_coupling(m0, m1, flow)
    dist.setflags(write=False)  # the cached Coupling.distances: the matrix
    plan.__dict__["distances"] = dist  # priced here, not a second kernel call
    pot = read_only(np.array(tree.pot))
    return MKSolution(float((flow * c).sum()), plan, tuple(tree),
                      (pot[:len(c)], pot[len(c):]), tree.pivots)


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
