"""Independent reference solvers for the tests."""

import itertools

import numpy as np

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
