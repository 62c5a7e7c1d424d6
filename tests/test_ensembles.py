import itertools
import math

import numpy as np
import pytest

from lagot.costs import builtin, power_cost, quadratic_cost
from lagot.ensembles import (BoundedCouplingTriple, EnsembleMember,
                             TransportEnsemble, build_opt_bounded,
                             build_opt_tilde, endpoint_marginals,
                             eval_bounded, eval_tilde, eval_tv,
                             induced_triple, oracle_min_path, solve_bounded)
from lagot.errors import (BadHorizon, BoundViolated, Infeasible,
                          InfeasibleBound, MissingBound, NoFeasiblePath)
from lagot.measures import Coupling, validate_measure
from lagot.mk_solver import solve_mk
from lagot.paths import (IntervalSet, SteppedPath, cost_li, cost_plain,
                         fast_path, linear_path, l1_norm, n1,
                         random_interval_set, stop_and_go, stretch, sup_norm)

SQRT = builtin("power", [0.5])
REMARK = builtin("remark_iii")
GRID = (0.0, 0.5, 1.0, 2.0, 4.0)


def single(path, bound=None):
    return TransportEnsemble((EnsembleMember(1.0, path, bound),))


def test_endpoint_marginals():
    e = single(linear_path([0.0], [1.0]))
    src, tgt = endpoint_marginals(e)
    assert src.points[0, 0] == 0.0 and tgt.points[0, 0] == 1.0
    two = TransportEnsemble((
        EnsembleMember(0.5, linear_path([0.0], [1.0])),
        EnsembleMember(0.5, linear_path([0.0], [-1.0]))))
    src, tgt = endpoint_marginals(two)
    assert src.n_atoms == 1 and tgt.n_atoms == 2


def test_eval_tilde_examples():
    assert eval_tilde(single(linear_path([0.0], [1.0])), SQRT, 1) == \
        pytest.approx(1.0)
    sg = single(stop_and_go([0.0], [1.0], IntervalSet(((0.0, 0.5),))))
    assert eval_tilde(sg, SQRT, 1) == pytest.approx(1.0)
    from lagot.paths import detour_path
    det = single(detour_path([0.0, 0.0], [2.0, 0.0]))
    assert eval_tilde(det, REMARK, 2) == pytest.approx(4.0 * math.exp(-4.0))


def test_eval_bounded_examples():
    sg = single(stop_and_go([0.0], [1.0], IntervalSet(((0.0, 0.5),))),
                bound=2.0)
    assert eval_bounded(sg, SQRT) == pytest.approx(0.5 * math.sqrt(2.0))
    zero = single(linear_path([0.0], [0.0]), bound=0.0)
    assert eval_bounded(zero, SQRT) == 0.0
    y4 = single(fast_path([0.0], [1.0], 4), bound=4.0)
    assert eval_bounded(y4, SQRT) == pytest.approx(0.5)
    with pytest.raises(MissingBound):
        eval_bounded(single(linear_path([0.0], [1.0])), SQRT)


def test_bound_violation_rejected():
    with pytest.raises(BoundViolated):
        single(linear_path([0.0], [2.0]), bound=1.0)


def test_bound_slack_is_relative_above_one():
    # a speed one rounding step above a large bound is not a violation
    fast = single(linear_path([0.0], [1e4 * (1 + 4e-16)]), bound=1e4)
    assert eval_bounded(fast, SQRT) == pytest.approx(100.0)
    with pytest.raises(BoundViolated):
        single(linear_path([0.0], [1e4 * (1 + 1e-11)]), bound=1e4)
    with pytest.raises(BoundViolated):
        single(linear_path([0.0], [0.5 + 2e-12]), bound=0.5)
    # below one the slack shrinks with the bound: twice a tiny bound is over
    with pytest.raises(BoundViolated):
        single(linear_path([0.0], [2e-12]), bound=1e-12)


def _triple(points0, points1, plan, bounds, dim=1):
    m0 = validate_measure(points0, dim)
    m1 = validate_measure(points1, dim)
    return BoundedCouplingTriple(
        Coupling(source=m0, target=m1, plan=np.asarray(plan, float)), bounds)


def test_eval_tilde_rejects_a_non_unit_horizon():
    e = single(stretch(linear_path([0.0], [1.0]), 2.0))
    for i in (1, 2):
        with pytest.raises(BadHorizon):
            eval_tilde(e, SQRT, i)


def test_triple_rejects_a_bound_below_the_displacement():
    m0, m1 = [((0.0,), 1.0)], [((3.0,), 1.0)]
    with pytest.raises(InfeasibleBound):
        _triple(m0, m1, [[1.0]], {(0, 0): 3.0 * (1 - 1e-9)})
    # a bound equal to |x - y| up to rounding is kept
    assert eval_tv(_triple(m0, m1, [[1.0]], {(0, 0): 3.0}), SQRT) == \
        pytest.approx(math.sqrt(3.0))


def test_eval_tv_examples():
    t = _triple([((0.0,), 1.0)], [((1.0,), 1.0)], [[1.0]], {(0, 0): 2.0})
    assert eval_tv(t, SQRT) == pytest.approx(math.sqrt(2.0) / 2.0)
    m = [((0.0,), 0.5), ((1.0,), 0.5)]
    ident = _triple(m, m, np.diag([0.5, 0.5]), {(0, 0): 3.0, (1, 1): 3.0})
    assert eval_tv(ident, SQRT) == 0.0
    t2 = _triple([((0.0, 0.0), 1.0)], [((2.0, 0.0), 1.0)], [[1.0]],
                 {(0, 0): 4.0}, dim=2)
    assert eval_tv(t2, REMARK) == pytest.approx(2.0 * math.exp(-4.0))


def test_build_opt_tilde_variants():
    m0 = validate_measure([((0.0,), 0.5), ((3.0,), 0.5)], 1)
    m1 = validate_measure([((1.0,), 0.5), ((2.0,), 0.5)], 1)
    sol = solve_mk(m0, m1, SQRT)
    for gen in (lambda i, j: IntervalSet(((0.0, 1.0),)),
                lambda i, j: IntervalSet(((0.0, 0.3),))):
        ens = build_opt_tilde(sol, gen)
        assert eval_tilde(ens, SQRT, 1) == pytest.approx(sol.value, abs=1e-10)
    rng = np.random.default_rng(0)
    ens = build_opt_tilde(sol, lambda i, j: random_interval_set(rng))
    assert eval_tilde(ens, SQRT, 1) == pytest.approx(sol.value, abs=1e-10)
    src, tgt = endpoint_marginals(ens)
    assert np.allclose(sorted(src.points[:, 0]), [0.0, 3.0])


def test_build_opt_bounded_examples():
    t = _triple([((0.0,), 1.0)], [((1.0,), 1.0)], [[1.0]], {(0, 0): 2.0})
    ens = build_opt_bounded(t)
    assert sup_norm(ens.members[0].path) == pytest.approx(2.0)
    assert eval_bounded(ens, SQRT) == pytest.approx(eval_tv(t, SQRT),
                                                    abs=1e-10)
    exact = _triple([((0.0,), 1.0)], [((1.0,), 1.0)], [[1.0]], {(0, 0): 1.0})
    ens = build_opt_bounded(exact)
    assert len(ens.members[0].path.durations) == 1  # linear path
    rest = _triple([((0.0,), 1.0)], [((0.0,), 1.0)], [[1.0]], {(0, 0): 0.0})
    assert eval_bounded(build_opt_bounded(rest), SQRT) == 0.0


def test_optimal_structure():
    # optimal members: length equals displacement, speeds in {0, n1*|disp|}
    m0 = validate_measure([((0.0, 0.0), 0.5), ((2.0, 1.0), 0.5)], 2)
    m1 = validate_measure([((1.0, 0.5), 0.7), ((0.5, -1.0), 0.3)], 2)
    sol = solve_mk(m0, m1, SQRT)
    rng = np.random.default_rng(3)
    ens = build_opt_tilde(sol, lambda i, j: random_interval_set(rng))
    for m in ens.members:
        disp = float(np.linalg.norm(m.path.displacement))
        assert l1_norm(m.path) == pytest.approx(disp, abs=1e-9)
        speeds = np.linalg.norm(m.path.velocities, axis=1)
        top = n1(m.path) * disp
        for s in speeds:
            assert min(abs(s), abs(s - top)) <= 1e-9


def test_induced_triple_roundtrip():
    ens = TransportEnsemble((
        EnsembleMember(0.6, linear_path([0.0], [1.0]), bound=1.5),
        EnsembleMember(0.4, linear_path([0.0], [-2.0]), bound=2.0)))
    t = induced_triple(ens)
    assert eval_tv(t, SQRT) <= eval_bounded(ens, SQRT) + 1e-12


def test_oracle_examples():
    assert oracle_min_path([0.0], [1.0], SQRT, "L1", 4, (0, 1, 2, 4)) == \
        pytest.approx(1.0)
    assert oracle_min_path([0.0], [1.0], SQRT, "plain", 4, GRID, cap=2.0) == \
        pytest.approx(math.sqrt(2.0) / 2.0)
    # with larger speeds allowed, the plain cost keeps falling
    v8 = oracle_min_path([0.0], [1.0], SQRT, "plain", 8,
                         (0, 1, 2, 4, 8))
    assert v8 == pytest.approx(math.sqrt(8.0) / 8.0)
    assert oracle_min_path([0.0], [0.0], SQRT, "plain", 4, GRID) == 0.0
    # cap = displacement admits only the constant speed, at any scale
    assert oracle_min_path([0.0], [1e-12], SQRT, "plain", 4, GRID,
                           cap=1e-12) == 1e-6
    with pytest.raises(NoFeasiblePath):
        oracle_min_path([0.0], [1.0], SQRT, "plain", 2, (0.0, 0.25))


def test_oracle_2d_spot_check():
    # collinear reduction: the 2-d value matches the 1-d one
    a = oracle_min_path([0.0, 0.0], [0.6, 0.8], SQRT, "L1", 4, GRID)
    b = oracle_min_path([0.0], [1.0], SQRT, "L1", 4, GRID)
    assert a == pytest.approx(b)


OBJECTIVES = ("plain", "L1", "L2", "conv")
ORACLE_COSTS = (SQRT, REMARK, builtin("affine_exp", [0.25]),
                builtin("linear"), quadratic_cost())


def _brute_force_minima(x, y, K, grid, cap):
    """{(cost name, objective): minimum} over every ordered K-tuple of signed
    grid speeds, each built as an equal-duration SteppedPath along y - x and
    kept when it ends at y within the cap; {} when none is kept."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    delta = float(np.linalg.norm(y - x))
    signed = sorted({s for g in grid for s in (float(g), -float(g))})
    best = {}
    for tup in itertools.product(signed, repeat=K):
        path = SteppedPath(start=x, horizon=1.0, durations=np.full(K, 1.0 / K),
                           velocities=np.outer(tup, (y - x)))
        if np.linalg.norm(path.end - y) > 1e-9 * delta:
            continue
        if cap is not None and sup_norm(path) > cap + 1e-12:
            continue
        speeds = np.linalg.norm(path.velocities, axis=1)
        big_n = n1(path)
        for cost in ORACLE_COSTS:
            conv = path.durations @ cost.eval(speeds * big_n) / big_n
            for objective, value in (("plain", cost_plain(path, cost)),
                                     ("L1", cost_li(path, cost, 1)),
                                     ("L2", cost_li(path, cost, 2)),
                                     ("conv", conv)):
                key = (cost.name, objective)
                best[key] = min(best.get(key, math.inf), float(value))
    return best


@pytest.mark.parametrize("case", range(12))
def test_oracle_matches_brute_force(case):
    rng = np.random.default_rng(case)
    dim = int(rng.integers(1, 4))
    x = rng.uniform(-2.0, 2.0, dim)
    direction = rng.normal(size=dim)
    delta = 10.0 ** rng.uniform(-1.0, 1.5)
    y = x + delta * direction / np.linalg.norm(direction)
    grid = ((0.0, 0.5, 1.0, 2.0), (0, 1, 2, 4), (0.25, 1.0, 3.0),
            (0.0, 1.5, 0.5))[case % 4]
    K = 2 + case % 3
    cap = (None, 2.0 * float(np.linalg.norm(y - x)),
           float(rng.uniform(0.5, 5.0)))[case // 4]
    want = _brute_force_minima(x, y, K, grid, cap)
    for cost in ORACLE_COSTS:
        for objective in OBJECTIVES:
            if not want:
                with pytest.raises(NoFeasiblePath):
                    oracle_min_path(x, y, cost, objective, K, grid, cap=cap)
                continue
            got = oracle_min_path(x, y, cost, objective, K, grid, cap=cap)
            expect = want[(cost.name, objective)]
            assert abs(got - expect) <= 1e-12 * abs(expect), \
                (cost.name, objective, got, expect)


@pytest.mark.parametrize("p", [0.25, 0.5, 1.0, 2.0])
def test_oracle_power_cost_scale_covariance(p):
    """oracle(delta) = delta**p * oracle(1) for cost u**p: feasibility is
    decided in units of the displacement, so no scale admits standing still."""
    cost = power_cost(p)
    direction = np.array([0.6, -0.8])
    for objective in OBJECTIVES:
        unit = oracle_min_path([0.0], [1.0], cost, objective, 4, GRID)
        for delta in 10.0 ** np.arange(-12.0, 12.5, 1.5):
            for x, y in (([0.0], [delta]), ([0.0, 0.0], delta * direction)):
                got = oracle_min_path(x, y, cost, objective, 4, GRID)
                assert got == pytest.approx(delta ** p * unit, rel=1e-9,
                                            abs=0.0), \
                    (objective, delta)


def test_solve_bounded_examples():
    m0 = validate_measure([((0.0, 0.0), 1.0)], 2)
    m1 = validate_measure([((2.0, 0.0), 1.0)], 2)
    v4, triple4 = solve_bounded(m0, m1, SQRT, 4.0)
    assert v4 == pytest.approx(1.0)
    assert eval_bounded(build_opt_bounded(triple4), SQRT) == \
        pytest.approx(1.0, abs=1e-10)
    v2, _ = solve_bounded(m0, m1, SQRT, 2.0)
    assert v2 == pytest.approx(math.sqrt(2.0))
    assert v2 >= v4
    same, _ = solve_bounded(m0, m0, SQRT, 1.0)
    assert same == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(Infeasible):
        solve_bounded(m0, m1, SQRT, 0.5)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        TransportEnsemble((EnsembleMember(0.5, linear_path([0.0], [1.0])),))
