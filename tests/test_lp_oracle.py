"""solve_mk and solve_bounded against an independent LP (HiGHS via scipy).

scipy is a test-time dependency only; the module is skipped without it.
"""

import numpy as np
import pytest

from lagot.costs import parse_cost, power_cost
from lagot.ensembles import solve_bounded
from lagot.errors import Infeasible
from lagot.measures import validate_measure
from lagot.mk_solver import solve_mk

linprog = pytest.importorskip("scipy.optimize").linprog

REL_TOL = 1e-9
CAP_FACTORS = (0.6, 0.8, 1.0, 1.5)


def highs_value(cost, a, b, allowed=None):
    """Optimal transport value over the allowed arcs, or None when no plan
    uses only allowed arcs."""
    n, m = cost.shape
    if allowed is None:
        allowed = np.ones((n, m), dtype=bool)
    ii, jj = np.nonzero(allowed)
    if len(ii) == 0:
        return None
    a_eq = np.zeros((n + m, len(ii)))
    a_eq[ii, np.arange(len(ii))] = 1.0
    a_eq[n + jj, np.arange(len(ii))] = 1.0
    res = linprog(cost[ii, jj], A_eq=a_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return float(res.fun)


def assert_close(value, ref):
    assert abs(value - ref) <= REL_TOL * max(1.0, abs(ref)), (value, ref)


def distances(m0, m1):
    return np.sqrt(((m0.points[:, None, :] - m1.points[None, :, :]) ** 2)
                   .sum(axis=2))


def random_pair(seed, lo, hi):
    rng = np.random.default_rng(seed)
    out = []
    for n in rng.integers(lo, hi + 1, size=2):
        out.append(validate_measure(
            zip(rng.uniform(-2.0, 2.0, size=(n, 2)),
                rng.dirichlet(np.ones(n))), 2))
    return out


def lattice_pair(seed, n):
    """Equal weights on distinct integer lattice points: many ties."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        cells = rng.choice(25, size=n, replace=False)
        points = np.stack([cells // 5, cells % 5], axis=1).astype(float)
        out.append(validate_measure(zip(points, np.full(n, 1.0 / n)), 2))
    return out


# seeds 49, 53, 56 and 60 put the longest arc in every feasible plan when
# the cap equals the diameter
INSTANCES = ([random_pair(s, 1, 4) for s in range(45, 65)]
             + [random_pair(s, 5, 9) for s in range(4)]
             + [lattice_pair(s, n) for s, n in ((0, 3), (1, 4), (2, 6))])


@pytest.mark.parametrize("k", range(len(INSTANCES)))
@pytest.mark.parametrize("cost_name", ["power:0.5", "remark_iii", "linear"])
def test_solve_mk_matches_highs(k, cost_name):
    m0, m1 = INSTANCES[k]
    cost = parse_cost(cost_name)
    ref = highs_value(np.asarray(cost.eval(distances(m0, m1)), dtype=float),
                      m0.weights, m1.weights)
    assert_close(solve_mk(m0, m1, cost).value, ref)


@pytest.mark.parametrize("k", range(len(INSTANCES)))
def test_capped_solves_match_highs(k):
    m0, m1 = INSTANCES[k]
    d = distances(m0, m1)
    sqrt = power_cost(0.5)
    for r in [f * m0.diameter_to(m1) for f in CAP_FACTORS]:
        allowed = d <= r
        ref = highs_value(d ** 0.5, m0.weights, m1.weights, allowed)
        t1 = highs_value(d, m0.weights, m1.weights, allowed)
        if ref is None:
            with pytest.raises(Infeasible):
                solve_mk(m0, m1, sqrt, forbidden_arcs=lambda i, j: d[i, j] > r)
            with pytest.raises(Infeasible):
                solve_bounded(m0, m1, sqrt, r)
            continue
        sol = solve_mk(m0, m1, sqrt, forbidden_arcs=lambda i, j: d[i, j] > r)
        assert_close(sol.value, ref)
        assert sol.plan.plan[~allowed].sum() == 0.0
        value, _ = solve_bounded(m0, m1, sqrt, r)
        assert_close(value, r ** 0.5 / r * t1)
