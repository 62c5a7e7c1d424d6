"""Exact discrete optimal transport for radial costs.

The transportation LP is solved in-repo by the classical transportation
(network) simplex with Bland's smallest-index rule on both the entering and
the leaving variable, which rules out cycling; a cell is one int, i*m + j.
It prices a copy of the costs with +inf on the basis cells by a Python scan
that stops at the first entering cell or, above _ARRAY_SCAN_CELLS cells
(break-even: 350-400), by one array expression reading the potentials in
place.  A pivot walks again only the subtree of the kept basis tree that its
leaving cell cuts off.  Big-M prices forbidden arcs, and a positive flow on
any of them at the optimum means that no plan avoids them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .costs import CostFunction, power_cost
from .errors import Infeasible, LagotError
from .measures import (WEIGHT_SUM_TOL, Coupling, DiscreteMeasure, arc_lengths,
                       make_coupling, read_only)

_RC_TOL = 1e-11
_FORBIDDEN_FLOW_TOL = WEIGHT_SUM_TOL  # still a tolerance, not an exact test
_ARRAY_SCAN_CELLS = 360
_PIVOTS_PER_NODE = 20000  # the pivot cap, per row and column of the LP


@dataclass(frozen=True)
class MKSolution:
    """The optimum ``value`` and ``plan``; from the simplex also the final
    ``basis`` cells, the dual potentials ``pot`` of the priced matrix
    (big-M on forbidden arcs; u of the rows, then v of the columns) and the
    ``pivots`` made, else None."""
    value: float
    plan: Coupling
    basis: Optional[tuple] = None
    pot: Optional[list] = None
    pivots: Optional[int] = None


class _Tree(SimpleNamespace):
    """A basis as its tree from row 0: rows are nodes 0..n-1, columns
    n..n+m-1, each with ``pot`` (u_0 = 0), ``parent``, ``up`` cell (the flat
    index k = i*m + j of the basis cell to its parent), ``depth`` and
    ``kids``; the ``up`` cells of nodes 1.. are the basis."""


def _northwest_corner(a, b, cost, prices):
    """North-west corner start from the supply and demand lists a and b,
    used up, and the flat costs: the flat flow and the basis as its _Tree,
    each cell priced at +inf, hanging a new node from the last one's."""
    n, m, i, j = len(a), len(b), 0, 0
    flow, kids = [0.0] * (n * m), [[] for _ in range(n + m)]
    pot, depth = [0.0] * (n + m), [0] * (n + m)
    parent, up = [None] * (n + m), [None] * (n + m)
    new, old = n, 0  # column 0 hangs from row 0
    for _ in range(n + m - 1):  # each cell moves on by a row or a column
        q, k = min(a[i], b[j]), i * m + j
        flow[k], parent[new], up[new] = q, old, k
        pot[new], depth[new] = cost[k] - pot[old], depth[old] + 1
        kids[old].append(new)
        a[i], b[j], prices[i][j] = a[i] - q, b[j] - q, np.inf
        if j == m - 1 or (i < n - 1 and a[i] <= 0.0):
            i, new, old = i + 1, i + 1, n + j
        else:
            j, new, old = j + 1, n + j + 1, i
    return flow, _Tree(pot=pot, depth=depth, parent=parent, up=up, kids=kids)


def _pivot(tree, entering, c, inner, outer, top):
    """Swap the cell over node ``top`` for ``entering``, which joins
    ``inner``, under top, to ``outer``, c being the flat costs: the subtree
    under top is cut off, turned over along the path from inner to top, hung
    from outer and walked again, so each node gets the depth and potential
    (the alternating cost sum on its root path) of a full walk, bit for bit."""
    pot, depth, parent, up, kids = (tree.pot, tree.depth, tree.parent,
                                    tree.up, tree.kids)
    pot[inner], depth[inner] = c[entering] - pot[outer], depth[outer] + 1
    x, p, cell = inner, outer, entering
    while p != top:
        xp, xu = parent[x], up[x]
        kids[xp].remove(x)
        kids[p].append(x)
        parent[x], up[x] = p, cell
        x, p, cell = xp, x, xu
    order = [inner]
    for k in order:
        if kids[k]:
            u, below = pot[k], depth[k] + 1
            for w in kids[k]:
                pot[w], depth[w] = c[up[w]] - u, below
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
        if (x < n) == (end < n):
            minus.append((flow[up[x]], up[x], x, end))
        else:
            plus.append(up[x])
    return plus, minus


def _entering(prices, pot, n, tol, _):
    """Bland: the first cell i*m + j, row by row, whose reduced cost
    (p - u_i) - v_j is below tol (each basis cell is priced at +inf)."""
    v = pot[n:]
    for i, row in enumerate(prices):
        ui = pot[i]
        for j, vj in enumerate(v):
            if (row[j] - ui) - vj < tol:
                return i * len(v) + j
    return None


def _entering_array(prices, pot, n, tol, out):
    """_entering as one array expression into the buffers ``out`` (u and v,
    views of ``pot``'s own buffer, then reduced costs and hits)."""
    u, v, reduced, hit = out
    np.subtract(np.subtract(prices, u, out=reduced), v, out=reduced)
    k = int(np.less(reduced, tol, out=hit).argmax())
    return k if hit.flat[k] else None


def _transportation_simplex(supply, demand, cost, scale):
    """Minimize sum(flow * cost) over the transportation polytope: (flow,
    tree), the basis as its _Tree, whose ``pivots`` counts the pivots made.
    Reduced costs above -_RC_TOL * scale count as nonnegative; ``scale`` is
    the largest |cost| of an allowed arc, never big-M.  Pivots run on Python
    floats, whose IEEE arithmetic is numpy's."""
    (n, m), c, scan, out = cost.shape, cost.ravel().tolist(), _entering, None
    prices = cost.tolist() if n * m <= _ARRAY_SCAN_CELLS else cost.copy()
    flow, tree = _northwest_corner(*(np.asarray(w, float).tolist() for w in
                                     (supply, demand)), c, prices)
    if type(prices) is not list:  # u and v view the potentials _pivot sets
        tree.pot = memoryview(array("d", tree.pot))  # items cheaper than array
        p, flat = np.frombuffer(tree.pot), prices.reshape(-1)
        scan, out = _entering_array, (p[:n, None], p[n:], np.empty((n, m)),
                                      np.empty((n, m), bool))
    for tree.pivots in range(_PIVOTS_PER_NODE * (n + m)):
        e = scan(prices, tree.pot, n, -_RC_TOL * scale, out)
        if e is None:
            return np.array(flow).reshape(n, m), tree
        a, b = divmod(e, m)
        plus, minus = _cycle(tree, flow, a, b, n)
        # Bland: the losing cell of least flow, theta, then of least k (row
        # by row); it drops to 0.0 and the entering one, at 0.0, to theta
        theta, k, top, inner = min(minus)
        for f, s, _, _ in minus:
            flow[s] = f - theta
        for s in plus:
            flow[s] += theta
        flow[e] = theta
        if out is None:
            prices[k // m][k % m], prices[a][b] = c[k], np.inf
        else:
            flat[k], flat[e] = c[k], np.inf
        _pivot(tree, e, c, inner, a + n + b - inner, top)
    raise LagotError("transportation simplex reached its pivot cap unsolved")


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
    plan.__dict__["distances"] = read_only(dist)  # no second kernel call
    return MKSolution(float((flow * c).sum()), plan, tuple(
        divmod(k, m1.n_atoms) for k in sorted(tree.up[1:])), list(tree.pot),
        tree.pivots)


def solve_mk_each(pairs, cost: CostFunction, forbidden_arcs=None) -> list:
    """solve_mk of each (m0, m1) pair, pair k with ``forbidden_arcs[k]``
    when given: one kernel call and one cost call price every arc of every
    pair, then each LP is solved on its own slice."""
    dist, cuts = arc_lengths(pairs)
    c = cost.eval(dist)
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
