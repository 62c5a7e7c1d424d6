import itertools
import math
import re

import numpy as np
import pytest

import lagot.ensembles as ensembles
import lagot.harness as harness
from lagot.costs import builtin, parse_cost, power_cost
from lagot.ensembles import (BoundedCouplingTriple, EnsembleStack,
                             build_opt_bounded, build_opt_tilde, eval_bounded,
                             eval_tilde, eval_tv, eval_tv_induced,
                             oracle_min_path, solve_bounded,
                             solve_bounded_each)
from lagot.errors import (AssumptionRefused, BadHorizon, BoundViolated,
                          DimensionMismatch, Infeasible, InfeasibleBound,
                          MissingBound, NoFeasiblePath)
from lagot.harness import (VerifyConfig, _rand_bounded_ensembles,
                           _rand_bounded_triple, verify)
from lagot.measures import (Coupling, measure_of, pairwise_distances,
                            validate_measure)
from lagot.mk_solver import solve_mk
from lagot.paths import (IntervalSet, SteppedPath, block_of, cost_li,
                         cost_plain, fast_path, linear_path, l1_norm, n1,
                         random_interval_set, stop_and_go, stretch, sup_norm)
from oracles import (build_opt_bounded_per_triple, ensembles_of,
                     eval_tv_induced_per_member, eval_tv_per_triple,
                     induced_triple_per_ensemble, solve_bounded_per_ladder)

SQRT = builtin("power", [0.5])
REMARK = builtin("remark_iii")
GRID = (0.0, 0.5, 1.0, 2.0, 4.0)
FULL = IntervalSet(((0.0, 1.0),))
EPS = np.finfo(float).eps


def single(path, bound=None, weight=1.0):
    return EnsembleStack(path, [weight], [bound])


def tilde(sol, gen):
    """build_opt_tilde of one plan, moving on gen(i, j) for cell (i, j)."""
    return build_opt_tilde([sol], [[gen(i, j)
                                    for i, j in zip(*sol.plan.support)]])


def endpoint_laws(e):
    """Laws of the start and end points of an ensemble."""
    return (measure_of(e.paths.starts, e.weights, e.paths.starts.shape[1]),
            measure_of(e.paths.ends, e.weights, e.paths.starts.shape[1]))


def test_endpoint_marginals():
    e = single(linear_path([0.0], [1.0]))
    src, tgt = endpoint_laws(e)
    assert src.points[0, 0] == 0.0 and tgt.points[0, 0] == 1.0
    two = EnsembleStack(stop_and_go([[0.0], [0.0]], [[1.0], [-1.0]],
                                    [FULL, FULL]), [0.5, 0.5])
    src, tgt = endpoint_laws(two)
    assert src.n_atoms == 1 and tgt.n_atoms == 2


def test_eval_tilde_examples():
    assert eval_tilde(single(linear_path([0.0], [1.0])), SQRT, 1)[0] == \
        pytest.approx(1.0)
    sg = single(stop_and_go([[0.0]], [[1.0]], [IntervalSet(((0.0, 0.5),))]))
    assert eval_tilde(sg, SQRT, 1)[0] == pytest.approx(1.0)
    from lagot.paths import detour_path
    det = single(detour_path([0.0, 0.0], [2.0, 0.0]))
    assert eval_tilde(det, REMARK, 2)[0] == \
        pytest.approx(4.0 * math.exp(-4.0))


def test_eval_bounded_examples():
    sg = single(stop_and_go([[0.0]], [[1.0]], [IntervalSet(((0.0, 0.5),))]),
                bound=2.0)
    assert eval_bounded(sg, SQRT)[0] == pytest.approx(0.5 * math.sqrt(2.0))
    zero = single(linear_path([0.0], [0.0]), bound=0.0)
    assert eval_bounded(zero, SQRT) == [0.0]
    y4 = single(fast_path([0.0], [1.0], [4]), bound=4.0)
    assert eval_bounded(y4, SQRT)[0] == pytest.approx(0.5)
    with pytest.raises(MissingBound):
        eval_bounded(single(linear_path([0.0], [1.0])), SQRT)


def test_bound_violation_rejected():
    with pytest.raises(BoundViolated):
        single(linear_path([0.0], [2.0]), bound=1.0)


def test_bound_slack_is_relative_above_one():
    # a speed one rounding step above a large bound is not a violation
    fast = single(linear_path([0.0], [1e4 * (1 + 4e-16)]), bound=1e4)
    assert eval_bounded(fast, SQRT)[0] == pytest.approx(100.0)
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
        _triple(m0, m1, [[1.0]], [3.0 * (1 - 1e-9)])
    # a bound equal to |x - y| up to rounding is kept
    assert eval_tv([_triple(m0, m1, [[1.0]], [3.0])], SQRT)[0] == \
        pytest.approx(math.sqrt(3.0))


def test_triple_checks_count_then_finiteness_then_displacement():
    """One bound per support cell, in support order, kept as a read-only
    copy; each fault is looked for over every cell before the next."""
    m = [((0.0,), 0.5), ((3.0,), 0.5)]
    plan = np.full((2, 2), 0.25)  # displacements 0, 3, 3, 0 in row order
    with pytest.raises(DimensionMismatch):
        _triple(m, m, plan, [3.0, 3.0, 3.0])
    with pytest.raises(DimensionMismatch):
        _triple(m, m, plan, [[3.0, 3.0], [3.0, 3.0]])
    # a bound below its displacement on cell (0, 1), a NaN on cell (1, 1)
    with pytest.raises(InfeasibleBound) as nan:
        _triple(m, m, plan, [3.0, 1.0, 3.0, np.nan])
    assert str(nan.value) == "cell (1, 1): bound nan is not finite"
    with pytest.raises(InfeasibleBound) as inf:
        _triple(m, m, plan, [3.0, 3.0, 3.0, -np.inf])
    assert str(inf.value) == "cell (1, 1): bound -inf is not finite"
    with pytest.raises(InfeasibleBound) as below:
        _triple(m, m, plan, [3.0, 3.0, 2.0, 3.0])
    assert str(below.value) == "cell (1, 0): displacement exceeds bound 2.0"
    given = np.array([0.0, 3.0, 4.0, 1.0])
    t = _triple(m, m, plan, given)
    assert t.bounds.tobytes() == given.tobytes() and given.flags.writeable
    assert t.bounds.dtype == float and not t.bounds.flags.writeable


def test_eval_tv_examples():
    t = _triple([((0.0,), 1.0)], [((1.0,), 1.0)], [[1.0]], [2.0])
    assert eval_tv([t], SQRT)[0] == pytest.approx(math.sqrt(2.0) / 2.0)
    m = [((0.0,), 0.5), ((1.0,), 0.5)]
    ident = _triple(m, m, np.diag([0.5, 0.5]), [3.0, 3.0])
    assert eval_tv([ident], SQRT) == [0.0]
    t2 = _triple([((0.0, 0.0), 1.0)], [((2.0, 0.0), 1.0)], [[1.0]],
                 [4.0], dim=2)
    assert eval_tv([t2], REMARK)[0] == pytest.approx(2.0 * math.exp(-4.0))


def test_build_opt_tilde_variants():
    m0 = validate_measure([((0.0,), 0.5), ((3.0,), 0.5)], 1)
    m1 = validate_measure([((1.0,), 0.5), ((2.0,), 0.5)], 1)
    sol = solve_mk(m0, m1, SQRT)
    for gen in (lambda i, j: IntervalSet(((0.0, 1.0),)),
                lambda i, j: IntervalSet(((0.0, 0.3),))):
        ens = tilde(sol, gen)
        assert eval_tilde(ens, SQRT, 1)[0] == \
            pytest.approx(sol.value, abs=1e-10)
    rng = np.random.default_rng(0)
    ens = tilde(sol, lambda i, j: random_interval_set(rng))
    assert eval_tilde(ens, SQRT, 1)[0] == pytest.approx(sol.value, abs=1e-10)
    src, tgt = endpoint_laws(ens)
    assert np.allclose(sorted(src.points[:, 0]), [0.0, 3.0])


def test_build_opt_bounded_examples():
    t = _triple([((0.0,), 1.0)], [((1.0,), 1.0)], [[1.0]], [2.0])
    ens = build_opt_bounded([t])
    assert sup_norm(ens.paths)[0] == pytest.approx(2.0)
    assert eval_bounded(ens, SQRT)[0] == pytest.approx(eval_tv([t], SQRT)[0],
                                                       abs=1e-10)
    exact = _triple([((0.0,), 1.0)], [((1.0,), 1.0)], [[1.0]], [1.0])
    ens = build_opt_bounded([exact])
    assert ens.paths.counts[0] == 1  # linear path
    rest = _triple([((0.0,), 1.0)], [((0.0,), 1.0)], [[1.0]], [0.0])
    assert eval_bounded(build_opt_bounded([rest]), SQRT) == [0.0]


def test_optimal_structure():
    # optimal members: length equals displacement, speeds in {0, n1*|disp|}
    m0 = validate_measure([((0.0, 0.0), 0.5), ((2.0, 1.0), 0.5)], 2)
    m1 = validate_measure([((1.0, 0.5), 0.7), ((0.5, -1.0), 0.3)], 2)
    sol = solve_mk(m0, m1, SQRT)
    rng = np.random.default_rng(3)
    ens = tilde(sol, lambda i, j: random_interval_set(rng))
    p = ens.paths
    for r, c in enumerate(p.counts.tolist()):
        disp = float(np.linalg.norm(p.displacements[r]))
        assert l1_norm(p)[r] == pytest.approx(disp, abs=1e-9)
        speeds = np.linalg.norm(p.velocities[r, :c], axis=1)
        top = n1(p)[r] * disp
        for s in speeds:
            assert min(abs(s), abs(s - top)) <= 1e-9


def test_induced_triple_roundtrip():
    ens = EnsembleStack(stop_and_go([[0.0], [0.0]], [[1.0], [-2.0]],
                                    [FULL, FULL]), [0.6, 0.4], [1.5, 2.0])
    t = induced_triple_per_ensemble(ens)
    assert eval_tv([t], SQRT)[0] <= eval_bounded(ens, SQRT)[0] + 1e-12
    assert eval_tv_induced(ens, SQRT) == eval_tv([t], SQRT)


def _shared_endpoint_ensemble(rng, dim=None):
    """2-7 resting or full-interval members between a few integer points,
    so that many share a start, an end or both; in dimension 1 or 2 unless
    ``dim`` is given."""
    k, drawn = int(rng.integers(2, 8)), int(rng.integers(1, 3))
    dim = dim or drawn
    xs, ys = rng.integers(0, 2, size=(2, k, dim)).astype(float)
    paths = stop_and_go(xs, ys, [FULL] * k)
    return EnsembleStack(paths, rng.dirichlet(np.ones(k)),
                         2.0 * sup_norm(paths))


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
                builtin("linear"), builtin("quadratic"))


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
        if np.linalg.norm(path.ends[0] - y) > 1e-9 * delta:
            continue
        if cap is not None and sup_norm(path)[0] > cap + 1e-12 * cap:
            continue
        speeds = np.linalg.norm(path.velocities[0], axis=1)
        big_n = n1(path)[0]
        for cost in ORACLE_COSTS:
            conv = path.durations[0] @ cost.eval(speeds * big_n) / big_n
            for objective, value in (("plain", cost_plain(path, cost)[0]),
                                     ("L1", cost_li(path, cost, 1)[0]),
                                     ("L2", cost_li(path, cost, 2)[0]),
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
    _assert_oracle_matches_brute_force(x, y, K, grid, cap)


def test_oracle_matches_brute_force_at_a_tiny_cap():
    """Speed 2|y - x| = 2e-12 exceeds the cap 1e-12 by far more than its
    relative slack: both the oracle and the reference drop it."""
    _assert_oracle_matches_brute_force(np.zeros(1), np.full(1, 1e-12), 2,
                                       (0.0, 1.0, 2.0), 1e-12)


def _assert_oracle_matches_brute_force(x, y, K, grid, cap):
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


def test_oracle_pairs_equal_each_pair_alone():
    """n endpoint pairs in one call give, bit for bit, the minima of the
    pairs one at a time, a resting pair and a cap that drops rows of the
    longer pairs included."""
    rng = np.random.default_rng(7)
    xs, ys = rng.uniform(-2.0, 2.0, size=(2, 6, 2))
    ys[2] = xs[2]
    for cost in ORACLE_COSTS:
        for objective in OBJECTIVES:
            for cap in (None, 6.0):
                got = oracle_min_path(xs, ys, cost, objective, 4, GRID,
                                      cap=cap)
                assert got.tolist() == [
                    oracle_min_path(x, y, cost, objective, 4, GRID, cap=cap)
                    for x, y in zip(xs, ys)], (cost.name, objective, cap)


def test_oracle_pairs_measure_only_their_own_distance():
    """Two resting pairs 2e308 apart: the distance between them overflows,
    but the call never measures it."""
    pts = np.array([[-1e308], [1e308]])
    assert oracle_min_path(pts, pts, SQRT, "plain", 4, GRID).tolist() == \
        [0.0, 0.0]


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
    assert eval_bounded(build_opt_bounded([triple4]), SQRT)[0] == \
        pytest.approx(1.0, abs=1e-10)
    v2, _ = solve_bounded(m0, m1, SQRT, 2.0)
    assert v2 == pytest.approx(math.sqrt(2.0))
    assert v2 >= v4
    same, _ = solve_bounded(m0, m0, SQRT, 1.0)
    assert same == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(Infeasible):
        solve_bounded(m0, m1, SQRT, 0.5)


@pytest.mark.parametrize("deficit", [1e-3, 1e-8, 1e-10])
def test_a_cap_that_admits_no_plan_is_infeasible(deficit):
    """Weights (0.5 + d, 0.5 - d) and (0.5, 0.5) at x = 0 and 10 admit no
    plan on the arcs of length <= 1, whatever the deficit d: the capped LP
    and solve_bounded raise Infeasible, and return no plan on the arc of
    length 10."""
    m0 = measure_of([0.0, 10.0], [0.5 + deficit, 0.5 - deficit], 1)
    m1 = measure_of([0.0, 10.0], [0.5, 0.5], 1)
    with pytest.raises(Infeasible):
        solve_mk(m0, m1, SQRT,
                 forbidden_arcs=ensembles.arcs_longer_than(m0, m1, 1.0))
    with pytest.raises(Infeasible):
        solve_bounded(m0, m1, SQRT, 1.0)


def _ladder_instance(seed):
    """Two seeded measures of 4-6 atoms in the plane, their arc lengths
    sorted and distinct, and the bottleneck cap r*: the least arc length
    at which a capped plan exists.  With that many arcs most caps from r*
    on forbid some (test_a_block_of_ladders_is_each_ladders_reference
    counts them over seeds 0-29)."""
    rng = np.random.default_rng(300 + seed)
    m0, m1 = (measure_of(rng.uniform(-2, 2, (k, 2)),
                         rng.dirichlet(np.ones(k)), 2)
              for k in rng.integers(4, 7, size=2))
    arcs = np.unique(pairwise_distances(m0.points, m1.points))
    for r_star in arcs:
        try:
            solve_bounded(m0, m1, SQRT, r_star)
            return m0, m1, arcs, r_star
        except Infeasible:
            pass
    raise AssertionError("the diameter admits every arc")


@pytest.mark.parametrize("seed", range(30))
def test_cap_ladder_rungs_are_their_scalar_calls(seed, monkeypatch):
    """Caps at the arc lengths, most of them (over the 30 seeds) forbidding
    arcs, then past the diameter, in a shuffled order: each rung is its
    scalar call bit for bit, and one LP is solved per distinct set of
    admitted arcs."""
    m0, m1, arcs, r_star = _ladder_instance(seed)
    caps = np.concatenate([arcs[arcs >= r_star],
                           [1.5 * arcs[-1], 2.0 * arcs[-1]]])
    caps = np.random.default_rng(seed).permutation(np.repeat(caps, 2))
    calls = []
    monkeypatch.setattr(ensembles, "solve_mk",
                        lambda *a, **k: calls.append(1) or solve_mk(*a, **k))
    ladder = solve_bounded_each([(m0, m1)], SQRT, [caps])[0]
    dist = pairwise_distances(m0.points, m1.points)
    assert len(calls) == len({(dist <= r).tobytes() for r in caps})
    assert len(ladder) == len(caps)
    for r, (value, triple) in zip(caps, ladder):
        want, alone = solve_bounded(m0, m1, SQRT, r)
        assert value.hex() == want.hex()
        assert triple.coupling.plan.tobytes() == alone.coupling.plan.tobytes()
        assert triple.bounds.tobytes() == alone.bounds.tobytes()
        assert triple.coupling.distances.tobytes() == dist.tobytes()
        assert (triple.coupling.plan[dist > r] == 0.0).all()


@pytest.mark.parametrize("bad", ["nan", "inf", "zero", "negative", "below"])
def test_a_ladder_raises_what_its_bad_rung_raises_alone(bad):
    m0, m1, arcs, r_star = _ladder_instance(7)
    assert arcs[0] < r_star  # this instance's shortest arc admits no plan
    cap = {"nan": np.nan, "inf": np.inf, "zero": 0.0, "negative": -1.0,
           "below": arcs[arcs < r_star][-1]}[bad]
    with pytest.raises(Exception) as alone:
        solve_bounded(m0, m1, SQRT, cap)
    ladder = np.array([arcs[-1], r_star, cap, 2.0 * arcs[-1]])
    with pytest.raises(type(alone.value)) as got:
        solve_bounded_each([(m0, m1)], SQRT, [ladder])
    assert str(got.value) == str(alone.value)


def _binding_ladder(seed):
    """_ladder_instance(seed)'s measures and the cap ladder of
    test_cap_ladder_rungs_are_their_scalar_calls: every arc length from r*
    on, those below the diameter forbidding arcs, then two caps past the
    diameter, each twice, shuffled."""
    m0, m1, arcs, r_star = _ladder_instance(seed)
    caps = np.concatenate([arcs[arcs >= r_star],
                           [1.5 * arcs[-1], 2.0 * arcs[-1]]])
    return m0, m1, np.random.default_rng(seed).permutation(np.repeat(caps, 2))


def test_a_block_of_ladders_is_each_ladders_reference(monkeypatch):
    """One solve_bounded_each call over 30 binding ladders gives each rung
    of each ladder the per-ladder reference's value, plan, bounds and
    distances bit for bit, through one solve_mk call per distinct set of
    admitted arcs of each pair."""
    ladders = [_binding_ladder(seed) for seed in range(30)]
    calls = []
    monkeypatch.setattr(ensembles, "solve_mk",
                        lambda *a, **k: calls.append(1) or solve_mk(*a, **k))
    block = solve_bounded_each([(m0, m1) for m0, m1, _ in ladders], SQRT,
                               [caps for _, _, caps in ladders])
    sets = binding = total = 0
    for (m0, m1, caps), rungs in zip(ladders, block):
        dist = pairwise_distances(m0.points, m1.points)
        sets += len({(dist <= r).tobytes() for r in caps})
        binding += int(np.sum(caps < dist.max()))
        total += len(caps)
        want = solve_bounded_per_ladder(m0, m1, SQRT, caps)
        assert len(rungs) == len(want) == len(caps)
        for r, (value, triple), (v, alone) in zip(caps, rungs, want):
            assert value.hex() == v.hex()
            assert triple.coupling.plan.tobytes() == \
                alone.coupling.plan.tobytes()
            assert triple.bounds.tobytes() == alone.bounds.tobytes()
            assert triple.coupling.distances.tobytes() == dist.tobytes()
            assert (triple.coupling.plan[dist > r] == 0.0).all()
    assert len(calls) == sets
    assert binding >= 40
    assert 2 * binding >= total  # of 554 rungs, 374 forbid an arc
    m0, m1, caps = ladders[0]
    value, triple = solve_bounded(m0, m1, SQRT, caps[0])
    v, alone = solve_bounded_per_ladder(m0, m1, SQRT, caps[0])
    assert value.hex() == v.hex() and \
        triple.bounds.tobytes() == alone.bounds.tobytes()


@pytest.mark.parametrize("bad", ["nan", "inf", "zero", "negative", "below",
                                 "cost"])
def test_a_block_raises_what_its_bad_ladder_raises_alone(bad):
    """A bad cap in the second of three ladders makes the block raise what
    that ladder raises alone, class and message; a cap at which the cost
    overflows is refused by the cost, and one below r* by its LP."""
    m0, m1, arcs, r_star = _ladder_instance(7)
    cap = {"nan": np.nan, "inf": np.inf, "zero": 0.0, "negative": -1.0,
           "below": arcs[arcs < r_star][-1], "cost": 1e200}[bad]
    cost = builtin("quadratic") if bad == "cost" else SQRT
    ladder = np.array([arcs[-1], r_star, cap, 2.0 * arcs[-1]])
    with np.errstate(over="ignore"):
        with pytest.raises(Exception) as alone:
            solve_bounded_per_ladder(m0, m1, cost, ladder)
        with pytest.raises(type(alone.value)) as got:
            solve_bounded_each([_binding_ladder(1)[:2], (m0, m1),
                                _binding_ladder(2)[:2]], cost,
                               [_binding_ladder(1)[2], ladder,
                                _binding_ladder(2)[2]])
    assert str(got.value) == str(alone.value)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        single(linear_path([0.0], [1.0]), weight=0.5)


def _built(theorem):
    """An ensemble from build_opt_tilde (2.1) or build_opt_bounded (2.6)
    between two seeded 4-atom measures, and the plan it was built on."""
    rng = np.random.default_rng(21 if theorem == "2.1" else 26)
    m0, m1 = (validate_measure(zip(rng.uniform(-2, 2, (4, 2)),
                                   rng.dirichlet(np.ones(4))), 2)
              for _ in range(2))
    if theorem == "2.1":
        sol = solve_mk(m0, m1, SQRT)
        return (tilde(sol, lambda i, j: random_interval_set(rng)),
                sol.plan.plan)
    _, triple = solve_bounded(m0, m1, SQRT, 1.5 * m0.diameter_to(m1))
    return build_opt_bounded([triple]), triple.coupling.plan


@pytest.mark.parametrize("theorem", ["2.1", "2.6"])
def test_ensemble_json_round_trip_keeps_the_block_bits(theorem):
    e, plan = _built(theorem)
    back = EnsembleStack.from_json(e.to_json())
    for name in ("starts", "horizons", "durations", "velocities", "counts"):
        a, b = getattr(e.paths, name), getattr(back.paths, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert e.weights.tobytes() == back.weights.tobytes()
    assert e.bounds.tobytes() == back.bounds.tobytes()
    assert len(e.weights) == np.count_nonzero(plan > 0)
    assert e.weights.tolist() == plan[plan > 0].tolist()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ensemble_json_round_trip_of_ragged_rows_and_some_bounds(dim):
    """Members of 1-6 pieces over horizons in [1, 3], every third without
    a bound, read back bit for bit."""
    rng = np.random.default_rng(50 + dim)
    rows = []
    for n in rng.integers(1, 7, size=8).tolist():
        horizon = float(rng.uniform(1.0, 3.0))
        rows.append((rng.uniform(-1.0, 1.0, dim), horizon,
                     horizon * rng.dirichlet(np.ones(n)),
                     rng.normal(0.0, 2.0, size=(n, dim))))
    paths = block_of(*zip(*rows))
    bounds = [None if r % 3 == 0 else 1.5 * s
              for r, s in enumerate(sup_norm(paths).tolist())]
    e = EnsembleStack(paths, rng.dirichlet(np.ones(8)), bounds)
    back = EnsembleStack.from_json(e.to_json())
    for name in ("starts", "horizons", "durations", "velocities", "counts"):
        a, b = getattr(e.paths, name), getattr(back.paths, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert e.weights.tobytes() == back.weights.tobytes()
    assert e.bounds.tobytes() == back.bounds.tobytes()
    assert np.isnan(back.bounds).tolist() == [r % 3 == 0 for r in range(8)]


def test_a_nan_bound_is_undeclared_and_an_infinite_one_refused():
    e = single(linear_path([0.0], [1.0]))
    again = EnsembleStack(e.paths, e.weights, e.bounds)
    assert np.isnan(again.bounds).all()
    with pytest.raises(BoundViolated, match="speed bound inf is not finite"):
        single(linear_path([0.0], [1.0]), bound=float("inf"))


def test_the_traced_run_counts_the_builders_members():
    """perfbench's tracer records a span for every builder and evaluator
    call, on the CLI's one-element blocks and on the blocks of a traced
    thm2_1 and thm2_6 verify, and counts len(members) of every builder
    result: one member per positive plan cell of each plan in the block."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench import tracing

    m0 = measure_of([[0.0], [1.0], [2.0]], [0.25, 0.25, 0.5], 1)
    m1 = measure_of([[0.5], [3.0]], [0.5, 0.5], 1)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        sol = ensembles.solve_mk(m0, m1, SQRT)
        _, triple = ensembles.solve_bounded(m0, m1, SQRT, 4.0)
        built = [ensembles.build_opt_tilde(
                     [sol], [[FULL] * len(sol.plan.support[0])]),
                 ensembles.build_opt_bounded([triple])]
        alone = tracer.counts["ensembles.members"]
        # the suites' stacks, seen through the tracer's own wrappers
        with pytest.MonkeyPatch.context() as mp:
            for name in ("build_opt_tilde", "build_opt_bounded"):
                mp.setattr(harness, name, lambda *a, f=getattr(harness, name):
                           built.append(f(*a)) or built[-1])
            for theorem in ("thm2_1", "thm2_6"):
                harness.verify(VerifyConfig(theorem, trials=2))
    finally:
        tracer.restore()
    cells = sum(np.count_nonzero(c.plan > 0)
                for c in (sol.plan, triple.coupling))
    assert alone == cells
    assert sum(len(e.members) for e in built[:2]) == cells
    assert [len(s.cuts) for s in built] == [2, 2, 3, 3]
    assert tracer.counts["ensembles.members"] == \
        sum(len(s.weights) for s in built)
    calls = {name: tracer.layer_times()[f"ensembles.{name}"][0]
             for name in ("build_opt_tilde", "eval_tilde", "build_opt_bounded",
                          "eval_bounded", "eval_tv")}
    assert calls == {"build_opt_tilde": 2, "eval_tilde": 1,
                     "build_opt_bounded": 2, "eval_bounded": 2, "eval_tv": 1}


def _plans(seed, k):
    rng = np.random.default_rng(seed)
    sols = []
    for _ in range(k):
        m0, m1 = (validate_measure(zip(rng.uniform(-2, 2, (n, 2)),
                                       rng.dirichlet(np.ones(n))), 2)
                  for n in rng.integers(1, 5, size=2).tolist())
        sols.append(solve_mk(m0, m1, SQRT))
    return rng, sols


def test_stacked_tilde_ensembles_are_the_ones_built_alone():
    """Each ensemble of build_opt_tilde over many plans, and its
    eval_tilde values, have the bits of build_opt_tilde on its plan alone."""
    rng, sols = _plans(31, 12)
    sets = [[random_interval_set(rng) for _ in sol.plan.support[0]]
            for sol in sols]
    stack = build_opt_tilde(sols, sets)
    alone = [build_opt_tilde([sol], [one]) for sol, one in zip(sols, sets)]
    assert len(ensembles_of(stack)) == len(sols)
    for e, a in zip(ensembles_of(stack), alone):
        for name in ("starts", "durations", "velocities", "counts"):
            assert getattr(e.paths, name).tobytes() == \
                getattr(a.paths, name).tobytes(), name
        assert e.weights.tobytes() == a.weights.tobytes()
        assert np.isnan(e.bounds).all()
    for i in (1, 2):
        assert eval_tilde(stack, SQRT, i) == \
            [eval_tilde(a, SQRT, i)[0] for a in alone]
    with pytest.raises(MissingBound):
        eval_bounded(stack, SQRT)


def _run_fault(fault, weights, bounds, sup):
    """An ensemble's weights and bounds, and its rows' sup-speeds, with one
    fault that its constructor refuses."""
    w, b = weights.copy(), bounds.copy()
    if fault == "sum":
        w[0] += 0.25
    elif fault == "positive":  # the sum keeps its bits: it adds in order
        w[:2] = [w[0] + w[1], 0.0]
    elif fault == "infinite":
        b[-1] = np.inf
    elif fault == "speed":
        b[-1] = 0.5 * sup[-1]
    elif fault == "weights":
        w = w[:-1]
    else:
        b = np.append(b, 1.0)
    return w, b


RUN_FAULTS = {"sum": ValueError, "positive": ValueError,
              "infinite": BoundViolated, "speed": BoundViolated,
              "weights": DimensionMismatch, "bounds": DimensionMismatch}


@pytest.mark.parametrize("fault", RUN_FAULTS)
def test_stacked_bounded_ensembles_are_checked_and_evaluated_alone(fault):
    """A stack evaluates each ensemble as it evaluates alone, and refuses a
    fault in its last ensemble with the class and message of that ensemble
    built alone; a fault at a member names it, counted within its
    ensemble."""
    rng = np.random.default_rng(32)
    stack = _rand_bounded_ensembles([rng] * 3, 2, 4)
    assert len(ensembles_of(stack)) == 12
    alone = [EnsembleStack(block_of(*zip(*[
        (s, 1.0, d[:c], v[:c]) for s, d, v, c in zip(
            e.paths.starts, e.paths.durations, e.paths.velocities,
            e.paths.counts)])), e.weights, e.bounds)
        for e in ensembles_of(stack)]
    assert eval_bounded(stack, SQRT) == \
        [eval_bounded(a, SQRT)[0] for a in alone]
    lo, last = stack.cuts[-2], alone[-1]
    w, b = _run_fault(fault, last.weights, last.bounds,
                      last.paths.speeds.max(axis=1))
    raised = []
    for build in (lambda: EnsembleStack(last.paths, w, b),
                  lambda: EnsembleStack(
                      stack.paths, np.append(stack.weights[:lo], w),
                      np.append(stack.bounds[:lo], b), stack.cuts)):
        with pytest.raises(RUN_FAULTS[fault]) as info:
            build()
        raised.append((type(info.value), str(info.value)))
    assert raised[1] == raised[0]
    member = {"positive": 1, "infinite": len(b) - 1,
              "speed": len(b) - 1}.get(fault)
    named = re.match(r"member (\d+): ", raised[0][1])
    assert (named and int(named[1])) == member


@pytest.mark.parametrize("weights, bounds, line", [
    ([1.0], [10.0], "1 weights and 1 bounds for 2 paths"),
    ([0.5, 0.5], [10.0, 10.0, 10.0], "2 weights and 3 bounds for 2 paths"),
    ([0.25, 0.25, 0.5], None, "3 weights and 2 bounds for 2 paths")],
    ids=["one_weight", "three_bounds", "three_weights"])
def test_an_ensemble_refuses_weights_or_bounds_not_one_per_row(
        weights, bounds, line):
    two = stop_and_go([[0.0], [0.0]], [[1.0], [-1.0]], [FULL, FULL])
    with pytest.raises(DimensionMismatch) as info:
        EnsembleStack(two, weights, bounds)
    assert str(info.value) == line


def test_each_ensemble_or_stack_is_checked_once(monkeypatch):
    """A thm2_1, thm2_2 or thm2_6 verify builds its stacks, and
    build_opt_tilde and build_opt_bounded of one plan or triple and
    EnsembleStack.from_json each run the one check once."""
    checked, check = [], EnsembleStack.__post_init__
    monkeypatch.setattr(EnsembleStack, "__post_init__",
                        lambda self: (checked.append(type(self)), check(self)))
    for theorem in ("thm2_1", "thm2_2", "thm2_6"):
        verify(VerifyConfig(theorem, trials=5))
    assert checked == [EnsembleStack] * 4
    m = validate_measure([((0.0,), 0.5), ((3.0,), 0.5)], 1)
    sol = solve_mk(m, validate_measure([((1.0,), 1.0)], 1), SQRT)
    _, triple = solve_bounded(sol.plan.source, sol.plan.target, SQRT, 4.0)
    obj = build_opt_bounded([triple]).to_json()
    for build in (lambda: tilde(sol, lambda i, j: FULL),
                  lambda: build_opt_bounded([triple]),
                  lambda: EnsembleStack.from_json(obj)):
        checked.clear()
        build()
        assert checked == [EnsembleStack]


def _stack_of(ens):
    """The given ensembles end to end in one EnsembleStack."""
    rows = [(s, h, d[:c], v[:c]) for e in ens for s, h, d, v, c in zip(
        e.paths.starts, e.paths.horizons, e.paths.durations,
        e.paths.velocities, e.paths.counts)]
    cuts = np.cumsum([0] + [len(e.weights) for e in ens]).tolist()
    return EnsembleStack(block_of(*zip(*rows)),
                         np.concatenate([e.weights for e in ens]),
                         np.concatenate([e.bounds for e in ens]), cuts)


def _gap_stacks():
    """Stacks of 2-7 member ensembles between a few integer points, so that
    members share a start, an end or both and resting members carry the
    bound 0; then the harness's random stacks, their ensembles of 1-3
    members."""
    rng = np.random.default_rng(41)
    shared = [_stack_of([_shared_endpoint_ensemble(rng, dim)
                         for _ in range(k)])
              for k, dim in ((1, 1), (5, 2), (12, 1), (30, 2))]
    return shared + [_rand_bounded_ensembles([rng] * 5, dim, 4)
                     for dim in (1, 2, 3)]


@pytest.mark.parametrize("cost", [SQRT, REMARK, builtin("linear"),
                                  builtin("affine_exp", [0.25])],
                         ids=lambda c: c.name)
def test_induced_gaps_are_each_ensembles_eval_tv(cost):
    """eval_tv_induced has, ensemble by ensemble, the bits of the
    per-member reference, and is eval_tv of the triple that the ensemble
    induces to rounding, though members share starts, ends and cells (each
    cell's members carrying one bound): each side rounds every product and
    running sum once per member, so the two differ by at most 2 (k + 3) eps
    of the value, k the ensemble's member count."""
    stacks = _gap_stacks()
    merged = zero = 0
    for stack in stacks:
        got = eval_tv_induced(stack, cost)
        for e, value in zip(ensembles_of(stack), got):
            assert value.hex() == eval_tv_induced_per_member(e, cost).hex()
            ref = induced_triple_per_ensemble(e)
            want = eval_tv_per_triple(ref, cost)
            k = len(e.weights)
            assert abs(value - want) <= 2 * (k + 3) * EPS * want
            merged += ref.coupling.source.n_atoms < k
            zero += (ref.bounds == 0).any()
    assert merged > 5 and zero > 5
    assert {len(e.weights) for s in stacks for e in ensembles_of(s)} >= \
        {1, 2, 3, 4, 5, 6, 7}


def _faulty(fault):
    """One ensemble that the per-member reference refuses, or, for conflict
    and distance, that only the old grouping by endpoint cell refused, and
    the cost."""
    if fault == "conflict":  # two members on one cell, two bounds
        return EnsembleStack(stop_and_go([[0.0], [0.0]], [[1.0], [1.0]],
                                         [FULL, FULL]),
                             [0.5, 0.5], [1.0, 2.0]), SQRT
    if fault == "missing":
        return EnsembleStack(stop_and_go([[0.0], [1.0]], [[1.0], [2.0]],
                                         [FULL, FULL]),
                             [0.5, 0.5], [1.0, None]), SQRT
    if fault == "end":  # a finite start and speed, an end past the largest
        return single(block_of([[1.5e308]], [1.0], [[1.0]], [[[1e308]]]),
                      bound=1.5e308), SQRT
    if fault == "distance":  # two resting members 2e200 apart
        return EnsembleStack(stop_and_go([[1e200], [-1e200]],
                                         [[1e200], [-1e200]],
                                         [FULL, FULL]),
                             [0.5, 0.5], [0.0, 0.0]), SQRT
    if fault == "horizon":  # speed 1 for time 2: displacement 2 > bound 1
        return single(block_of([[0.0]], [2.0], [[2.0]], [[[1.0]]]),
                      bound=1.0), SQRT
    return single(linear_path([0.0], [1.0]), bound=1e200), builtin("quadratic")


@pytest.mark.parametrize("fault", ["conflict", "missing", "end", "distance",
                                   "horizon", "cost"])
def test_a_stack_refuses_what_one_ensemble_refuses(fault):
    """A faulty ensemble after a good one is refused through the stack with
    the class and message of the per-member reference; two bounds on one
    cell and two resting members far apart are no fault, and get the
    reference's bits."""
    bad, cost = _faulty(fault)
    good = _rand_bounded_ensembles([np.random.default_rng(7)], 1, 1)
    stack = _stack_of([*ensembles_of(good), bad])
    if fault in ("conflict", "distance"):
        want = eval_tv_induced_per_member(bad, cost)
        assert eval_tv_induced(stack, cost)[-1].hex() == want.hex()
        assert want == (0.0 if fault == "distance" else
                        pytest.approx(0.5 + 0.25 * math.sqrt(2.0)))
        return
    raised = []
    for call in (lambda: eval_tv_induced_per_member(bad, cost),
                 lambda: eval_tv_induced(stack, cost)):
        with pytest.raises(Exception) as info, np.errstate(over="ignore"):
            call()
        raised.append((type(info.value), str(info.value)))
    assert raised[0][0] is not AssertionError
    assert raised[1] == raised[0]


# the five costs of the seeded sweep (tools/report_digests.py)
SWEEP_COSTS = ("power:0.5", "remark_iii", "affine_exp:0.25", "linear",
               "quadratic")


def test_thm2_6_gaps_are_the_induced_triples_bits(monkeypatch):
    """Every ensemble that thm2_6 draws at seeds 0-4, under each sweep cost
    that it admits, gets from eval_tv_induced the bits of eval_tv of
    its induced triple: no two of its members share a start, so member
    order is cell order."""
    seen = []
    monkeypatch.setattr(harness, "eval_tv_induced", lambda s, cost: (
        seen.append((s, cost, eval_tv_induced(s, cost))) or seen[-1][2]))
    admitted = 0
    for spec in SWEEP_COSTS:
        for seed in range(5):
            try:
                verify(VerifyConfig(theorem="thm2_6", seed=seed,
                                    cost_spec=parse_cost(spec).to_spec()))
            except AssumptionRefused:
                continue
            admitted += 1
    assert admitted == len(seen) == 20
    count = 0
    for stack, cost, got in seen:
        drawn = ensembles_of(stack)
        assert all(len(np.unique(e.paths.starts, axis=0)) == len(e.weights)
                   for e in drawn)
        want = [eval_tv_per_triple(induced_triple_per_ensemble(e), cost)
                for e in drawn]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        count += len(want)
    assert count == 20 * 80


def _trial_triples(dim):
    """Triples of 1-16 cells: the harness's random ones, and one whose cell
    (0, 0) has x = y, resting under the bound 0."""
    rng = np.random.default_rng(43 + dim)
    drawn = [_rand_bounded_triple(rng, 4, dim) for _ in range(12)]
    pad = (0.0,) * (dim - 1)
    still = _triple([((0.0, *pad), 0.5), ((1.0, *pad), 0.5)],
                    [((0.0, *pad), 0.5), ((3.0, *pad), 0.5)],
                    [[0.25, 0.25], [0.25, 0.25]],
                    [0.0, 4.0, 1.0, 2.5],
                    dim=dim)
    return drawn[:7] + [still] + drawn[7:]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cost", [SQRT, REMARK, builtin("linear")],
                         ids=lambda c: c.name)
def test_trial_side_blocks_are_the_one_at_a_time_calls(cost, dim):
    """build_opt_bounded and eval_tv over triples of several cell counts
    have the bits of the one-triple calls and of the references."""
    triples = _trial_triples(dim)
    assert len({len(t.bounds) for t in triples}) > 3
    stack = build_opt_bounded(triples)
    assert len(ensembles_of(stack)) == len(triples)
    for e, t in zip(ensembles_of(stack), triples):
        for want in (build_opt_bounded([t]),
                     build_opt_bounded_per_triple(t)):
            for name in ("starts", "horizons", "durations", "velocities",
                         "counts"):
                assert getattr(e.paths, name).tobytes() == \
                    getattr(want.paths, name).tobytes(), name
            assert e.weights.tobytes() == want.weights.tobytes()
            assert e.bounds.tobytes() == want.bounds.tobytes()
    assert [v.hex() for v in eval_bounded(stack, cost)] == \
        [eval_bounded(build_opt_bounded([t]), cost)[0].hex() for t in triples]
    want = [eval_tv_per_triple(t, cost).hex() for t in triples]
    assert [v.hex() for v in eval_tv(triples, cost)] == want
    assert [eval_tv([t], cost)[0].hex() for t in triples] == want


def test_a_ladder_refuses_an_overflowing_rung_as_its_scalar_call():
    m0 = validate_measure([((0.0, 0.0), 1.0)], 2)
    m1 = validate_measure([((0.5, 0.0), 1.0)], 2)
    cost = builtin("quadratic")
    with pytest.raises(InfeasibleBound) as alone, np.errstate(over="ignore"):
        solve_bounded(m0, m1, cost, 1e200)
    with pytest.raises(InfeasibleBound) as ladder, np.errstate(over="ignore"):
        solve_bounded_each([(m0, m1)], cost, [[1.0, 1e200, 2.0]])
    assert str(ladder.value) == str(alone.value)
    assert "r = 1e+200" in str(alone.value)
