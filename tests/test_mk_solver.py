from array import array
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from lagot import mk_solver
from lagot.costs import CostFunction, builtin, parse_cost, power_cost
from lagot.ensembles import arcs_longer_than, solve_bounded
from lagot.errors import DimensionMismatch, Infeasible
from lagot.measures import measure_of, random_measure, validate_measure
from lagot.mk_solver import (_RC_TOL, _cycle, _northwest_corner, solve_mk,
                             solve_mk_each, t_p)
from oracles import brute_force_mk, reference_simplex, solve_mk_per_pair


def _uniform(points, dim=1):
    n = len(points)
    w = [1.0 / n] * (n - 1) + [1.0 - (n - 1) / n]
    return validate_measure([(p, wi) for p, wi in zip(points, w)], dim)


HALF = validate_measure([((0.0,), 0.5), ((1.0,), 0.5)], 1)
SQRT = builtin("power", [0.5])


def test_equal_marginals_zero():
    sol = solve_mk(HALF, HALF, SQRT)
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.plan.plan, np.diag([0.5, 0.5]))


def test_crossing_beats_crossed():
    m0 = validate_measure([((0.0,), 0.5), ((3.0,), 0.5)], 1)
    m1 = validate_measure([((1.0,), 0.5), ((2.0,), 0.5)], 1)
    sol = solve_mk(m0, m1, SQRT)
    # monotone pairing costs 1+1 halves; the crossed one sqrt(2)+sqrt(2)
    assert sol.value == pytest.approx(1.0)
    assert sol.plan.plan[0, 0] == pytest.approx(0.5)


def test_forced_split():
    m0 = validate_measure([((0.0,), 1.0)], 1)
    m1 = validate_measure([((1.0,), 0.5), ((-1.0,), 0.5)], 1)
    assert solve_mk(m0, m1, SQRT).value == pytest.approx(1.0)


def test_dimension_mismatch():
    m2 = validate_measure([((0.0, 0.0), 1.0)], 2)
    with pytest.raises(DimensionMismatch):
        solve_mk(HALF, m2, SQRT)


def test_forbidden_arcs_increase_value_or_infeasible():
    m0 = validate_measure([((0.0,), 0.5), ((3.0,), 0.5)], 1)
    m1 = validate_measure([((1.0,), 0.5), ((2.0,), 0.5)], 1)
    base = solve_mk(m0, m1, SQRT).value
    constrained = solve_mk(m0, m1, SQRT,
                           forbidden_arcs=lambda i, j: (i, j) == (0, 0))
    assert constrained.value >= base - 1e-12
    with pytest.raises(Infeasible):
        solve_mk(m0, m1, SQRT, forbidden_arcs=lambda i, j: i == 0)


def test_brute_force_examples():
    m = _uniform([(0.0,), (1.0,), (2.0,)])
    assert brute_force_mk(m, m, SQRT).value == pytest.approx(0.0, abs=1e-12)
    m0 = validate_measure([((0.0,), 0.5), ((3.0,), 0.5)], 1)
    m1 = validate_measure([((1.0,), 0.5), ((2.0,), 0.5)], 1)
    assert brute_force_mk(m0, m1, SQRT).value == pytest.approx(1.0)


def test_lp_matches_brute_force_random():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        m0 = _uniform(rng.uniform(-2, 2, size=(n, d)).tolist(), d)
        m1 = _uniform(rng.uniform(-2, 2, size=(n, d)).tolist(), d)
        cost = power_cost(float(rng.uniform(0.2, 1.0)))
        assert solve_mk(m0, m1, cost).value == pytest.approx(
            brute_force_mk(m0, m1, cost).value, abs=1e-9)


def test_t_p_examples():
    d0 = validate_measure([((0.0,), 1.0)], 1)
    d1 = validate_measure([((1.0,), 1.0)], 1)
    assert t_p(d0, d1, 1.0) == pytest.approx(1.0)
    split = validate_measure([((1.0,), 0.5), ((-1.0,), 0.5)], 1)
    assert t_p(d0, split, 1.0) == pytest.approx(1.0)
    m0 = validate_measure([((0.0,), 0.5), ((3.0,), 0.5)], 1)
    m1 = validate_measure([((1.0,), 0.5), ((2.0,), 0.5)], 1)
    assert t_p(m0, m1, 1.0) == pytest.approx(1.0)
    assert t_p(d0, d1, 2.0) == pytest.approx(1.0)  # exponents above 1 work too


def test_value_matches_plan_cost():
    m0 = random_measure(1, 4, 2, 2.0)
    m1 = random_measure(2, 3, 2, 2.0)
    sol = solve_mk(m0, m1, SQRT)
    diff = m0.points[:, None, :] - m1.points[None, :, :]
    c = np.sqrt(np.linalg.norm(diff, axis=2))
    assert sol.value == pytest.approx(float((sol.plan.plan * c).sum()),
                                      abs=1e-10)


def test_scaling_invariance():
    m0 = random_measure(10, 4, 2, 2.0)
    m1 = random_measure(11, 4, 2, 2.0)
    base = solve_mk(m0, m1, SQRT)
    scaled_cost = CostFunction(name="scaled", fn=lambda u: 3.0 * u ** 0.5)
    scaled = solve_mk(m0, m1, scaled_cost)
    assert scaled.value == pytest.approx(3.0 * base.value, rel=1e-10)
    # the scaled solver's plan is optimal for the unscaled problem
    diff = m0.points[:, None, :] - m1.points[None, :, :]
    c = np.sqrt(np.linalg.norm(diff, axis=2))
    assert float((scaled.plan.plan * c).sum()) == pytest.approx(base.value,
                                                                abs=1e-10)


def _capped(m0, m1, cost):
    """solve_bounded's value at 0.8 x the diameter, or None if infeasible."""
    try:
        return solve_bounded(m0, m1, cost, 0.8 * m0.diameter_to(m1))[0]
    except Infeasible:
        return None


@pytest.mark.parametrize("lam", [1e-12, 1e-11, 1e-9, 1e6, 1e12])
@pytest.mark.parametrize("p", [1.0, 0.5])
def test_values_scale_with_the_points(p, lam):
    """Scaling every point by lam scales the power:p values by lam**p,
    uncapped and capped, and a cap is infeasible at both scales or at
    neither: no tolerance of the simplex is absolute."""
    cost = power_cost(p)
    for seed in range(10):
        m0 = random_measure(2 * seed, 6, 2, 2.0)
        m1 = random_measure(2 * seed + 1, 6, 2, 2.0)
        a, b = (validate_measure(zip(m.points * lam, m.weights), 2)
                for m in (m0, m1))
        assert solve_mk(a, b, cost).value == pytest.approx(
            lam ** p * solve_mk(m0, m1, cost).value, rel=1e-12, abs=0.0)
        got, want = _capped(a, b, cost), _capped(m0, m1, cost)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == pytest.approx(lam ** p * want, rel=1e-12, abs=0.0)


def test_deterministic():
    m0 = random_measure(20, 5, 2, 2.0)
    m1 = random_measure(21, 5, 2, 2.0)
    a = solve_mk(m0, m1, SQRT)
    b = solve_mk(m0, m1, SQRT)
    assert np.array_equal(a.plan.plan, b.plan.plan)
    assert a.value == b.value


def _random_basis(rng, n, m):
    """Random spanning tree of K_{n,m} as a shuffled list of (row, col)
    cells: each new node hangs off a random placed node of the other side."""
    rows, cols = list(rng.permutation(n)), list(rng.permutation(m))
    placed = {"r": [rows.pop()], "c": [cols.pop()]}
    basis = [(placed["r"][0], placed["c"][0])]
    while rows or cols:
        side = "r" if rows and (not cols or rng.random() < 0.5) else "c"
        new = (rows if side == "r" else cols).pop()
        other = placed["c" if side == "r" else "r"]
        old = other[rng.integers(len(other))]
        basis.append((new, old) if side == "r" else (old, new))
        placed[side].append(new)
    return [(int(i), int(j)) for i, j in rng.permutation(basis)]


def _fresh_walk(basis, cost, n, m):
    """The tree of ``basis``, (i, j) cells (cost a list of rows), from the
    reference's own full walk, in the kept tree's terms: each ``up`` cell
    flat, i*m + j, and kids sorted."""
    u, v, par, depth = oracles._basis_tree(basis, np.array(cost), n, m)
    parent, up = [p and p[0] for p in par], [p and p[1] for p in par]
    return SimpleNamespace(
        pot=u.tolist() + v.tolist(), parent=parent, depth=depth,
        up=[None if e is None else e[0] * m + e[1] for e in up],
        kids=[[w for w in range(n + m) if parent[w] == k]
              for k in range(n + m)])


def _basis(tree, m):
    """The basis a kept tree holds, the ``up`` cells of its non-root nodes,
    as (i, j) cells in row-major order."""
    return [divmod(k, m) for k in sorted(tree.up[1:])]


def _assert_is_a_fresh_walk(tree, cost, n, m):
    """The kept tree, its cells flat ints, is the reference's full walk of
    its basis, potentials bit for bit."""
    assert all(type(k) is int for k in tree.up[1:])
    fresh = _fresh_walk(_basis(tree, m), cost, n, m)
    assert np.array(tree.pot).tobytes() == np.array(fresh.pot).tobytes()
    assert (tree.parent, tree.up, tree.depth) == (
        fresh.parent, fresh.up, fresh.depth)
    assert [sorted(k) for k in tree.kids] == fresh.kids


@pytest.mark.parametrize("seed", range(20))
def test_basis_tree_potentials_fit_the_basis(seed):
    """The north-west corner's tree, on seeded marginals (equal, so
    degenerate, on odd seeds) and flat costs: the reference's flow and
    basis, flat, u_0 = 0 and u_i + v_j = c_ij on every basis cell, each
    node one deeper than its parent, across a basis cell, and a fresh walk
    of its basis; the prices it is given end as the costs with +inf on the
    basis."""
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(1, 9, size=2))
    supply, demand = (np.full(k, 1.0 / k) if seed % 2 else
                      rng.dirichlet(np.ones(k)) for k in (n, m))
    cost = rng.uniform(0.0, 3.0, size=(n, m))
    prices = cost.tolist()
    flow, tree = _northwest_corner(supply.tolist(), demand.tolist(),
                                   cost.ravel().tolist(), prices)
    want_flow, want_basis = oracles._northwest_corner(supply, demand)
    assert len(flow) == n * m
    assert np.array(flow).reshape(n, m).tobytes() == want_flow.tobytes()
    cells = _basis(tree, m)
    assert cells == sorted(want_basis) and len(set(cells)) == n + m - 1
    u, v = tree.pot[:n], tree.pot[n:]
    assert u[0] == 0.0 and tree.depth[0] == 0
    assert tree.parent[0] is None and tree.up[0] is None
    for i, j in cells:
        assert u[i] + v[j] == pytest.approx(cost[i, j], abs=1e-12)
    for node in range(1, n + m):
        up, (i, j) = tree.parent[node], divmod(tree.up[node], m)
        assert tree.depth[node] == tree.depth[up] + 1
        assert {node, up} == {i, n + j}
    _assert_is_a_fresh_walk(tree, cost.tolist(), n, m)
    basis = np.zeros((n, m), bool)
    basis[tuple(np.transpose(cells))] = True
    assert np.array(prices).tobytes() == np.where(basis, np.inf,
                                                  cost).tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_tree_path_is_the_tree_geodesic(seed):
    """On random spanning trees, _cycle splits the tree geodesic from row
    i0 to column j0: the cells at even places from the row lose, with
    their flow, the node under them and the end of (i0, j0) that each cuts
    off from row 0, and the cells at odd places gain; cells and flow are
    flat, i*m + j."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(100 + seed)
    n, m = (int(k) for k in rng.integers(1, 9, size=2))
    basis = _random_basis(rng, n, m)
    tree = _fresh_walk(basis, np.zeros((n, m)).tolist(), n, m)
    flow = rng.uniform(size=(n, m)).ravel().tolist()
    graph = nx.Graph((i, n + j) for i, j in basis)
    for i0 in range(n):
        for j0 in range(m):
            nodes = nx.shortest_path(graph, i0, n + j0)
            cells = [(a, b - n) if a < n else (b, a - n)
                     for a, b in zip(nodes, nodes[1:])]
            plus, minus = _cycle(tree, flow, i0, j0, n)
            assert sorted(divmod(k, m) for k in plus) == sorted(cells[1::2])
            assert sorted(divmod(e[1], m) for e in minus) == sorted(
                cells[0::2])
            for f, k, top, end in minus:
                (i, j), cut = divmod(k, m), graph.copy()
                cut.remove_edge(i, n + j)
                assert f == flow[k] and tree.up[top] == k
                assert end in (i0, n + j0) and nx.has_path(cut, top, end)
                assert not nx.has_path(cut, 0, end)


def _simplex_cases():
    """(name, m0, m1, cap factor or None): seeded instances of 1-4 atoms,
    with Dirichlet and with equal (degenerate) weights, then n = 10, 14
    and 20; every third one capped at a fraction of its diameter, so that
    big-M prices the forbidden arcs, some of them infeasibly."""
    rng = np.random.default_rng(2024)
    sizes = [int(k) for k in rng.integers(1, 5, size=120)] + [10, 14, 20] * 2
    for t, n in enumerate(sizes):
        n1 = n if t % 2 else int(rng.integers(1, n + 1))
        pts = rng.uniform(-2, 2, size=(n + n1, 2))
        w0, w1 = ((np.full(k, 1.0 / k) if t % 4 < 2 else
                   rng.dirichlet(np.ones(k))) for k in (n, n1))
        cap = float(rng.uniform(0.5, 1.0)) if t % 3 == 0 else None
        yield (f"{t}-n{n}x{n1}", validate_measure(zip(pts[:n], w0), 2),
               validate_measure(zip(pts[n:], w1), 2), cap)


def _cells(cells, cost):
    """Flat cells as the reference's (i, j) cells."""
    return [divmod(k, cost.shape[1]) for k in cells]


def test_simplex_matches_the_reference_bit_for_bit(monkeypatch):
    """The list-based simplex returns the reference's flow bit for bit and
    its basis, as a set, on the LPs solve_mk sets up, big-M and degenerate
    ones included."""
    seen = []

    def both(supply, demand, cost, scale):
        got = real(supply, demand, cost, scale)
        want = reference_simplex(supply, demand, cost, scale)
        seen.append((got[0].tobytes(), _basis(got[1], cost.shape[1])) ==
                    (want[0].tobytes(), sorted(want[1])))
        return got

    real = mk_solver._transportation_simplex
    monkeypatch.setattr(mk_solver, "_transportation_simplex", both)
    capped = infeasible = 0
    for name, m0, m1, cap in _simplex_cases():
        arcs = None if cap is None else arcs_longer_than(
            m0, m1, cap * m0.diameter_to(m1))
        try:
            solve_mk(m0, m1, SQRT, forbidden_arcs=arcs)
        except Infeasible:
            infeasible += 1
        capped += cap is not None
        assert seen[-1], name
    assert len(seen) == 126 and capped == 42 and 0 < infeasible < capped


def _solve_capped(m0, m1, cap):
    """solve_mk with the arcs longer than cap x the diameter forbidden, or
    none when cap is None; an infeasible cap is not an error here."""
    arcs = None if cap is None else arcs_longer_than(
        m0, m1, cap * m0.diameter_to(m1))
    try:
        solve_mk(m0, m1, SQRT, forbidden_arcs=arcs)
    except Infeasible:
        pass


# _ARRAY_SCAN_CELLS forcing each of the two pricing scans on every LP
SCANS = {"_entering": 10 ** 9, "_entering_array": -1}


def _count_scans(monkeypatch, called):
    """Wrap both pricing scans so that each call appends its name."""
    for scan in SCANS:
        monkeypatch.setattr(mk_solver, scan, lambda *a, f=getattr(
            mk_solver, scan), s=scan: called.append(s) or f(*a))


def test_kept_tree_is_a_fresh_walk_after_every_pivot(monkeypatch):
    """After every pivot of the _simplex_cases() LPs, big-M and degenerate
    ones included, the kept potentials (bit for bit), parents, cells,
    depths and kids are exactly those of a full walk of the new basis;
    under each pricing scan, which pivot alike."""
    pivots, costs = {scan: [] for scan in SCANS}, []

    def checked(tree, entering, c, inner, outer, top):
        real(tree, entering, c, inner, outer, top)
        _assert_is_a_fresh_walk(tree, costs[-1], *np.shape(costs[-1]))
        pivots[scan].append(entering)

    real, simplex = mk_solver._pivot, mk_solver._transportation_simplex
    monkeypatch.setattr(mk_solver, "_pivot", checked)
    monkeypatch.setattr(mk_solver, "_transportation_simplex", lambda *lp: (
        costs.append(lp[2].tolist()) or simplex(*lp)))
    for scan, cells in SCANS.items():
        monkeypatch.setattr(mk_solver, "_ARRAY_SCAN_CELLS", cells)
        for _, m0, m1, cap in _simplex_cases():
            _solve_capped(m0, m1, cap)
    assert pivots["_entering"] == pivots["_entering_array"]
    assert len(pivots["_entering"]) > 1000


def test_the_array_scan_reads_the_kept_potentials_in_place(monkeypatch):
    """Under the array scan, on the _simplex_cases() LPs and at mk-ladder's
    sizes, the scan's u and v are views of the kept tree's own potentials,
    and after every pivot they read a fresh walk of the new basis bit for
    bit: no copy stands between what _pivot sets and what the next scan
    prices."""
    scans, costs, pivots = [], [], []

    def scanned(prices, pot, n, tol, out):
        scans.append((pot, out))
        return scan(prices, pot, n, tol, out)

    def checked(tree, *move):
        pivot(tree, *move)
        pot, (u, v, _, _) = scans[-1]
        (n, m), cost = np.shape(costs[-1]), costs[-1]
        assert pot is tree.pot and (u.shape, v.shape) == ((n, 1), (m,))
        assert np.shares_memory(u, tree.pot) and np.shares_memory(v, tree.pot)
        fresh = _fresh_walk(_basis(tree, m), cost, n, m)
        assert u.tobytes() + v.tobytes() == np.array(fresh.pot).tobytes()
        pivots.append(move[0])

    scan, pivot = mk_solver._entering_array, mk_solver._pivot
    simplex = mk_solver._transportation_simplex
    monkeypatch.setattr(mk_solver, "_entering_array", scanned)
    monkeypatch.setattr(mk_solver, "_pivot", checked)
    monkeypatch.setattr(mk_solver, "_transportation_simplex", lambda *lp: (
        costs.append(lp[2].tolist()) or simplex(*lp)))
    monkeypatch.setattr(mk_solver, "_ARRAY_SCAN_CELLS", -1)
    cases = [case[1:] for case in _simplex_cases()]
    for m0, m1, cap in cases + list(_ladder_size_cases()):
        _solve_capped(m0, m1, cap)
    assert len(scans) == len(pivots) + len(costs) and len(costs) == 129
    assert len(pivots) > 5000


def test_simplex_matches_the_reference_at_ladder_sizes(monkeypatch):
    """At the sizes of perfbench's mk-ladder, where the basis tree is deep,
    the simplex returns the reference's flow bit for bit and its basis, as
    a set: n = 40 with Dirichlet and with equal weights, and n = 30 capped
    at 0.7 x the diameter, so that big-M prices the forbidden arcs."""
    lps = []

    def recorded(*lp):
        got = real(*lp)
        lps.append((lp, got))
        return got

    real = mk_solver._transportation_simplex
    monkeypatch.setattr(mk_solver, "_transportation_simplex", recorded)
    for m0, m1, cap in _ladder_size_cases():
        _solve_capped(m0, m1, cap)
    assert len(lps) == 3
    for lp, (flow, tree) in lps:
        want = reference_simplex(*lp)
        assert (flow.tobytes(), _basis(tree, lp[2].shape[1])) == (
            want[0].tobytes(), sorted(want[1]))


def _ladder_size_cases():
    """(m0, m1, cap factor or None) at mk-ladder's sizes: n = 40 with
    Dirichlet and with equal weights, and n = 30 capped at 0.7."""
    rng = np.random.default_rng(40)
    for n, equal, cap in [(40, False, None), (40, True, None),
                          (30, False, 0.7)]:
        pts = rng.uniform(-2, 2, size=(2 * n, 2))
        w0, w1 = (np.full(n, 1.0 / n) if equal else rng.dirichlet(np.ones(n))
                  for _ in range(2))
        yield (validate_measure(zip(pts[:n], w0), 2),
               validate_measure(zip(pts[n:], w1), 2), cap)


def test_both_scans_pivot_as_the_reference(monkeypatch):
    """Each LP that solve_mk sets up for _simplex_cases() (big-M,
    infeasible and degenerate ones) and at mk-ladder's sizes, solved under
    the Python scan and under the array scan, each forced by the crossover:
    both make the reference's pivots, each the same (entering, leaving)
    pair, count them, and return its flow bit for bit and its basis as a
    set, every flow at least +0.0: no entry negative and none -0.0."""
    lps, made, called = [], [], []
    real = mk_solver._transportation_simplex
    monkeypatch.setattr(mk_solver, "_transportation_simplex",
                        lambda *lp: lps.append(lp) or real(*lp))
    cases = [case[1:] for case in _simplex_cases()]
    for m0, m1, cap in cases + list(_ladder_size_cases()):
        _solve_capped(m0, m1, cap)
    monkeypatch.undo()
    _count_scans(monkeypatch, called)
    pivot = mk_solver._pivot  # leaving: the cell over its last argument
    monkeypatch.setattr(mk_solver, "_pivot", lambda *a: made.append(
        (a[1], a[0].up[a[5]])) or pivot(*a))
    assert len(lps) == 129
    for lp in lps:
        pairs = []
        want = reference_simplex(*lp, pivots=pairs)
        got = {}
        for scan, cells in SCANS.items():
            monkeypatch.setattr(mk_solver, "_ARRAY_SCAN_CELLS", cells)
            del made[:], called[:]
            flow, tree = mk_solver._transportation_simplex(*lp)
            assert set(called) == {scan}
            assert (flow >= 0.0).all() and not np.signbit(flow).any()
            got[scan] = (flow.tobytes(), _basis(tree, lp[2].shape[1]), [
                tuple(_cells(pair, lp[2])) for pair in made], tree.pivots)
        assert got["_entering"] == got["_entering_array"] == (
            want[0].tobytes(), sorted(want[1]), pairs, len(pairs))


def test_the_trees_up_cells_are_the_basis_after_every_pivot(monkeypatch):
    """After every pivot of each LP that solve_mk sets up for
    _simplex_cases() and at mk-ladder's sizes, the ``up`` cells of the kept
    tree's non-root nodes are n + m - 1 distinct cells, the reference's
    basis after the same pivot as a set; a feasible solve's ``basis`` is
    the last of them in row-major order."""
    lps, ups, sols = [], [], []
    simplex, pivot = mk_solver._transportation_simplex, mk_solver._pivot

    def solved(*lp):
        lps.append(lp)
        ups.append([])
        return simplex(*lp)

    def checked(tree, *move):
        pivot(tree, *move)
        ups[-1].append(tree.up[1:])

    monkeypatch.setattr(mk_solver, "_transportation_simplex", solved)
    monkeypatch.setattr(mk_solver, "_pivot", checked)
    cases = [case[1:] for case in _simplex_cases()]
    for m0, m1, cap in cases + list(_ladder_size_cases()):
        arcs = None if cap is None else arcs_longer_than(
            m0, m1, cap * m0.diameter_to(m1))
        try:
            sols.append(solve_mk(m0, m1, SQRT, forbidden_arcs=arcs))
        except Infeasible:
            sols.append(None)
    assert len(lps) == 129 and sum(s is not None for s in sols) == 100
    for lp, made, sol in zip(lps, ups, sols):
        (n, m), pairs = lp[2].shape, []
        reference_simplex(*lp, pivots=pairs)
        basis = set(oracles._northwest_corner(*map(np.asarray, lp[:2]))[1])
        assert len(made) == len(pairs)
        for cells, (entering, leaving) in zip(made, pairs):
            basis = basis - {leaving} | {entering}
            assert len(cells) == len(set(cells)) == n + m - 1
            assert {divmod(k, m) for k in cells} == basis
        if sol is not None:
            assert sol.basis == tuple(sorted(basis))
    assert sum(map(len, ups)) > 5000


def test_a_solution_carries_its_optimality_certificate(monkeypatch):
    """Each feasible solve of the _simplex_cases() and mk-ladder-size LPs
    returns its final basis, potentials (the list pot, u of the rows then
    v of the columns) and pivot count, and they certify its plan on the
    priced matrix (big-M on forbidden arcs): u_i + v_j = c_ij on every
    basis cell within 1e-12 x scale, no allowed non-basis cell's reduced
    cost below -_RC_TOL x scale, n + m - 1 basis cells spanning every
    node, and no flow off the basis."""
    nx = pytest.importorskip("networkx")
    lps, pivots = [], []
    real = mk_solver._transportation_simplex
    monkeypatch.setattr(mk_solver, "_transportation_simplex",
                        lambda *lp: lps.append(lp) or real(*lp))
    cases = [case[1:] for case in _simplex_cases()]
    for m0, m1, cap in cases + list(_ladder_size_cases()):
        arcs = None if cap is None else arcs_longer_than(
            m0, m1, cap * m0.diameter_to(m1))
        try:
            sol = solve_mk(m0, m1, SQRT, forbidden_arcs=arcs)
        except Infeasible:
            continue
        _, _, cost, scale = lps[-1]
        (n, m), pot = cost.shape, np.array(sol.pot)
        u, v = pot[:n], pot[n:]
        assert type(sol.pot) is list and len(pot) == n + m and u[0] == 0.0
        basis = np.zeros((n, m), bool)
        basis[tuple(np.transpose(sol.basis))] = True
        assert type(sol.basis) is tuple and len(sol.basis) == n + m - 1
        assert nx.is_tree(nx.Graph((i, n + j) for i, j in sol.basis))
        assert basis.sum() == n + m - 1
        assert np.abs(u[:, None] + v - cost)[basis].max() <= 1e-12 * scale
        allowed = np.ones((n, m), bool) if arcs is None else ~np.array(
            [[arcs(i, j) for j in range(m)] for i in range(n)])
        assert not sol.plan.plan[~allowed].any()  # exactly 0.0
        reduced = (cost - u[:, None]) - v
        assert reduced[allowed & ~basis].min(initial=0.0) >= -_RC_TOL * scale
        assert not sol.plan.plan[~basis].any()
        pivots.append(sol.pivots)
    assert len(pivots) == 100 and all(type(k) is int for k in pivots)
    assert pivots[-3:] == [1336, 2568, 627]


def _scan_buffers(pot, n, m, kept):
    """Buffers of the array scan as _transportation_simplex makes them: the
    u-column and v-row views of the array ``pot``'s own buffer, then the
    reduced costs and hits of shape (n, m) from ``kept``, made there first
    filled with NaN, so that a scan that reads what it did not write
    fails."""
    p = np.frombuffer(pot)
    return (p[:n, None], p[n:], *kept.setdefault((n, m), (
        np.full((n, m), np.nan), np.ones((n, m), bool))))


def test_the_array_scan_finds_the_python_scans_cell():
    """On seeded pricing states of mixed magnitudes, about 40 % of the
    cells basis cells priced at +inf, and at a tol that ties some cell's
    reduced cost or lies one ulp above it, both scans return the same flat
    cell or both None, the array scan reading the potentials in place; its
    buffers, reused from state to state of one shape, carry nothing from
    one state to the next."""
    rng = np.random.default_rng(26)
    found, buffers = 0, {}
    for t in range(3000):
        n, m = (int(k) for k in rng.integers(1, 7, size=2))
        cost = rng.uniform(-1, 1, (n, m)) * 10.0 ** rng.integers(-3, 6,
                                                                 (n, m))
        pot = (rng.uniform(-1, 1, n + m) * 10.0 ** rng.integers(
            -3, 6, n + m)).tolist()
        prices = np.where(rng.random((n, m)) < 0.6, cost, np.inf)
        i, j = (int(k) for k in rng.integers(0, (n, m)))
        tol = (cost[i, j] - pot[i]) - pot[n + j]
        tol = [tol, np.nextafter(tol, np.inf), -abs(tol)][t % 3]
        want = mk_solver._entering(prices.tolist(), pot, n, tol, None)
        kept = array("d", pot)
        out = _scan_buffers(kept, n, m, buffers)
        assert mk_solver._entering_array(prices, kept, n, tol, out) == want
        assert kept.tolist() == pot
        assert want is None or prices[divmod(want, m)] < np.inf
        found += want is not None
    assert 0 < found < 3000


def test_the_scan_is_chosen_by_the_cell_count(monkeypatch):
    """The array scan prices exactly the LPs of more than _ARRAY_SCAN_CELLS
    cells: n10 (100 cells) stays on the Python scan, n20 and n40 do not."""
    called = []
    _count_scans(monkeypatch, called)
    assert 10 * 10 < mk_solver._ARRAY_SCAN_CELLS < 20 * 20
    rng = np.random.default_rng(7)
    for n, m in [(10, 10), (20, 20), (40, 40), (1, 1),
                 (1, mk_solver._ARRAY_SCAN_CELLS),
                 (1, mk_solver._ARRAY_SCAN_CELLS + 1)]:
        called.clear()
        mk_solver._transportation_simplex(
            rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m)),
            rng.uniform(0, 2, size=(n, m)), 2.0)
        want = ("_entering_array" if n * m > mk_solver._ARRAY_SCAN_CELLS
                else "_entering")
        assert set(called) == {want}, (n, m)


def _block_pairs(seed, dim, count=16):
    """Seeded pairs of 1-4 atoms in one dim: every fifth pair is one atom
    against one atom, every third target shares atoms with its source, and
    every fourth pair has equal (degenerate) weights."""
    rng = np.random.default_rng(seed)
    pairs = []
    for t in range(count):
        n, m = (1, 1) if t % 5 == 0 else map(int, rng.integers(1, 5, size=2))
        pts = rng.uniform(-2, 2, size=(n + m, dim))
        if t % 3 == 1:
            pts[n:n + min(n, m)] = pts[:min(n, m)]
        w0, w1 = (np.full(k, 1.0 / k) if t % 4 == 2 else
                  rng.dirichlet(np.ones(k)) for k in (n, m))
        pairs.append((measure_of(pts[:n], w0, dim),
                      measure_of(pts[n:], w1, dim)))
    return pairs


def _same_solution(got, want):
    return (got.value.hex() == want.value.hex()
            and got.plan.plan.tobytes() == want.plan.plan.tobytes()
            and got.plan.distances.tobytes() == want.plan.distances.tobytes())


@pytest.mark.parametrize("cost", ["power:0.5", "remark_iii", "affine_exp:0.25",
                                  "linear"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_block_solves_each_pair_as_the_per_pair_reference(dim, cost):
    """Each plan of one solve_mk_each block, and of each one-pair solve_mk
    call, is the per-pair reference's bit for bit: value, plan and the
    distances it was priced on."""
    cost = parse_cost(cost)
    pairs = _block_pairs(10 * dim, dim)
    assert any(m0.n_atoms == m1.n_atoms == 1 for m0, m1 in pairs)
    assert any(set(map(tuple, m0.points.tolist()))
               & set(map(tuple, m1.points.tolist())) for m0, m1 in pairs)
    block = solve_mk_each(pairs, cost)
    assert len(block) == len(pairs)
    for (m0, m1), got in zip(pairs, block):
        want = solve_mk_per_pair(m0, m1, cost)
        assert _same_solution(got, want)
        assert _same_solution(solve_mk(m0, m1, cost), want)
        assert not got.plan.distances.flags.writeable
    assert solve_mk_each([], cost) == []


def _capped_block(seed):
    """Seeded 2-D pairs, each with a forbidden-arc callback (none for every
    fourth pair) that caps its arcs at a random fraction of its diameter,
    and whether the reference finds each pair infeasible."""
    rng = np.random.default_rng(seed)
    pairs, arcs, infeasible = _block_pairs(seed, 2, 24), [], []
    for m0, m1 in pairs:
        cap = None if len(arcs) % 4 == 0 else float(rng.uniform(0.4, 1.0))
        arcs.append(None if cap is None else arcs_longer_than(
            m0, m1, cap * m0.diameter_to(m1)))
        try:
            solve_mk_per_pair(m0, m1, SQRT, arcs[-1])
            infeasible.append(False)
        except Infeasible:
            infeasible.append(True)
    return pairs, arcs, infeasible


def _counted(arcs, calls):
    """Each callback recording its (pair, i, j) calls; None stays None."""
    return [None if a is None else
            (lambda i, j, k=k, a=a: calls.append((k, i, j)) or a(i, j))
            for k, a in enumerate(arcs)]


def test_a_block_calls_each_callback_and_stops_where_the_loop_stops():
    """A block calls every pair's callback n x m times, pair by pair, as a
    loop of per-pair references does; with an infeasible pair it raises
    the reference's Infeasible there, having called no later callback."""
    pairs, arcs, infeasible = _capped_block(3)
    assert 0 < sum(infeasible) and not all(infeasible)
    ok = [k for k, bad in enumerate(infeasible) if not bad]
    assert any(arcs[k] is not None for k in ok)
    want_calls, got_calls = [], []
    want = [solve_mk_per_pair(*pairs[k], SQRT, a) for k, a in
            zip(ok, _counted([arcs[k] for k in ok], want_calls))]
    got = solve_mk_each([pairs[k] for k in ok], SQRT,
                        _counted([arcs[k] for k in ok], got_calls))
    assert all(map(_same_solution, got, want))
    assert got_calls == want_calls and got_calls
    stop = infeasible.index(True)
    want_calls, got_calls = [], []
    counted = _counted(arcs, want_calls)
    for k in range(stop):
        solve_mk_per_pair(*pairs[k], SQRT, counted[k])
    with pytest.raises(Infeasible) as alone:
        solve_mk_per_pair(*pairs[stop], SQRT, counted[stop])
    with pytest.raises(Infeasible) as block:
        solve_mk_each(pairs, SQRT, _counted(arcs, got_calls))
    assert str(block.value) == str(alone.value)
    assert got_calls == want_calls


@pytest.mark.parametrize("bad", ["overflow", "dims"])
def test_a_block_raises_what_its_bad_pair_raises_alone(bad):
    """A later pair whose distance overflows, or whose two measures differ
    in dim, makes the block raise that pair's own class and message; the
    block measures every arc before it solves any LP or calls any
    callback."""
    pairs = _block_pairs(4, 2, 4)
    far = measure_of([[1e308, 0.0]], [1.0], 2)
    bad_pair = {"overflow": (far, measure_of([[-1e308, 0.0]], [1.0], 2)),
                "dims": (far, measure_of([[0.0, 0.0, 0.0]], [1.0], 3))}[bad]
    with pytest.raises(Exception) as alone:
        solve_mk(*bad_pair, SQRT)
    assert type(alone.value) in (ValueError, DimensionMismatch)
    calls = []
    everything = lambda i, j: calls.append((i, j)) or False  # noqa: E731
    with pytest.raises(type(alone.value)) as block:
        solve_mk_each(pairs[:2] + [bad_pair] + pairs[2:], SQRT,
                      [everything] * 5)
    assert str(block.value) == str(alone.value)
    assert calls == []


def test_a_block_of_two_dims_is_refused():
    one, two = _block_pairs(5, 1, 1) + _block_pairs(5, 2, 1)
    with pytest.raises(DimensionMismatch, match="differ in dim"):
        solve_mk_each([one, two], SQRT)


def _mixed_block():
    """Seeded 2-D pairs on both sides of _ARRAY_SCAN_CELLS: LPs of 2-12
    cells and of 18 x 18, and two array-scan shapes, 20 x 21 (twice, the
    second with equal, degenerate, weights) and 23 x 19."""
    rng = np.random.default_rng(30)
    pairs = []
    for t, (n, m) in enumerate([(3, 4), (20, 21), (2, 1), (23, 19), (18, 18),
                                (20, 21)]):
        pts = rng.uniform(-2, 2, size=(n + m, 2))
        w0, w1 = (np.full(k, 1.0 / k) if t == 5 else
                  rng.dirichlet(np.ones(k)) for k in (n, m))
        pairs.append((measure_of(pts[:n], w0, 2), measure_of(pts[n:], w1, 2)))
    return pairs


def test_a_mixed_block_solves_each_pair_as_its_one_pair_solve(monkeypatch):
    """A solve_mk_each block of LPs below and above _ARRAY_SCAN_CELLS, two
    array-scan shapes among them, returns each pair's one-pair solve_mk
    bit for bit: value, plan, basis, potentials and pivot count."""
    pairs, called = _mixed_block(), []
    big = {(m0.n_atoms, m1.n_atoms) for m0, m1 in pairs
           if m0.n_atoms * m1.n_atoms > mk_solver._ARRAY_SCAN_CELLS}
    assert len(big) == 2
    _count_scans(monkeypatch, called)
    block = solve_mk_each(pairs, SQRT)
    assert called.count("_entering") and called.count("_entering_array")
    for (m0, m1), got in zip(pairs, block):
        want = solve_mk(m0, m1, SQRT)
        assert _same_solution(got, want)
        assert (got.basis, got.pivots) == (want.basis, want.pivots)
        assert np.array(got.pot).tobytes() == np.array(want.pot).tobytes()


def test_a_solve_leaves_the_callers_cost_block_alone(monkeypatch):
    """Each unforbidden LP's cost matrix is a view into the block that the
    cost returned; the simplex prices a copy, so after a block of LPs
    below and above _ARRAY_SCAN_CELLS that block holds the bytes the cost
    returned, and each LP's matrix the bytes it was solved on."""
    returned, copies, lps = [], [], []

    def fn(u):
        returned.append(np.sqrt(u))
        copies.append(returned[-1].copy())
        return returned[-1]

    real = mk_solver._transportation_simplex
    monkeypatch.setattr(mk_solver, "_transportation_simplex", lambda *lp: (
        lps.append((lp[2], lp[2].copy())) or real(*lp)))
    pairs = _mixed_block()
    sols = solve_mk_each(pairs, CostFunction("sqrt", fn, 0.0))
    assert len(returned) == 1 and len(lps) == len(sols) == len(pairs)
    assert returned[0].tobytes() == copies[0].tobytes()
    for work, before in lps:
        assert np.shares_memory(work, returned[0])
        assert work.tobytes() == before.tobytes()
