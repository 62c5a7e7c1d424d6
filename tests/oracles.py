"""Independent reference solvers and checks for the tests."""

import itertools

import numpy as np

from lagot.costs import _EQ_TOL, A1I, A1III
from lagot.measures import DiscreteMeasure, make_coupling, pairwise_distances
from lagot.mk_solver import MKSolution


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
