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
    """The tree of ``basis`` (cost a list of rows) from the reference's own
    full walk, in the kept tree's terms, kids sorted."""
    u, v, par, depth = oracles._basis_tree(basis, np.array(cost), n, m)
    parent, up = [p and p[0] for p in par], [p and p[1] for p in par]
    return SimpleNamespace(
        pot=u.tolist() + v.tolist(), parent=parent, up=up, depth=depth,
        cup=[None if e is None else cost[e[0]][e[1]] for e in up],
        kids=[[w for w in range(n + m) if parent[w] == k]
              for k in range(n + m)])


def _assert_is_a_fresh_walk(tree, cost, n, m):
    """The kept tree is the reference's full walk of its basis, potentials
    bit for bit, and its slot map indexes its cells."""
    fresh = _fresh_walk(list(tree), cost, n, m)
    assert np.array(tree.pot).tobytes() == np.array(fresh.pot).tobytes()
    assert (tree.parent, tree.up, tree.cup, tree.depth) == (
        fresh.parent, fresh.up, fresh.cup, fresh.depth)
    assert [sorted(k) for k in tree.kids] == fresh.kids
    assert tree.slot == {cell: k for k, cell in enumerate(tree)}


@pytest.mark.parametrize("seed", range(20))
def test_basis_tree_potentials_fit_the_basis(seed):
    """The north-west corner's tree, on seeded marginals (equal, so
    degenerate, on odd seeds) and costs: the reference's flow and basis,
    u_0 = 0 and u_i + v_j = c_ij on every basis cell, each node one deeper
    than its parent, across a basis cell, and a fresh walk of its basis."""
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(1, 9, size=2))
    supply, demand = (np.full(k, 1.0 / k) if seed % 2 else
                      rng.dirichlet(np.ones(k)) for k in (n, m))
    cost = rng.uniform(0.0, 3.0, size=(n, m))
    flow, tree = _northwest_corner(supply.tolist(), demand.tolist(),
                                   cost.tolist())
    want_flow, want_basis = oracles._northwest_corner(supply, demand)
    assert np.array(flow).tobytes() == want_flow.tobytes()
    assert tree == want_basis and len(tree) == n + m - 1
    u, v = tree.pot[:n], tree.pot[n:]
    assert u[0] == 0.0 and tree.depth[0] == 0 and tree.parent[0] is None
    for i, j in tree:
        assert u[i] + v[j] == pytest.approx(cost[i, j], abs=1e-12)
    for node in range(1, n + m):
        up, (i, j) = tree.parent[node], tree.up[node]
        assert tree.depth[node] == tree.depth[up] + 1 and (i, j) in tree
        assert {node, up} == {i, n + j} and tree.cup[node] == cost[i, j]
    _assert_is_a_fresh_walk(tree, cost.tolist(), n, m)


@pytest.mark.parametrize("seed", range(20))
def test_tree_path_is_the_tree_geodesic(seed):
    """On random spanning trees, _cycle splits the tree geodesic from row
    i0 to column j0: the cells at even places from the row lose, with
    their flow, the node under them and the end of (i0, j0) that each cuts
    off from row 0, and the cells at odd places gain."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(100 + seed)
    n, m = (int(k) for k in rng.integers(1, 9, size=2))
    basis = _random_basis(rng, n, m)
    tree = _fresh_walk(basis, np.zeros((n, m)).tolist(), n, m)
    flow = rng.uniform(size=(n, m)).tolist()
    graph = nx.Graph((i, n + j) for i, j in basis)
    for i0 in range(n):
        for j0 in range(m):
            nodes = nx.shortest_path(graph, i0, n + j0)
            cells = [(a, b - n) if a < n else (b, a - n)
                     for a, b in zip(nodes, nodes[1:])]
            plus, minus = _cycle(tree, flow, i0, j0, n)
            assert sorted(plus) == sorted(cells[1::2])
            assert sorted(e[1] for e in minus) == sorted(cells[0::2])
            for f, (i, j), top, end in minus:
                cut = graph.copy()
                cut.remove_edge(i, n + j)
                assert f == flow[i][j] and tree.up[top] == (i, j)
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


def test_simplex_matches_the_reference_bit_for_bit(monkeypatch):
    """The list-based simplex returns the reference's (flow, basis) bit for
    bit on the LPs solve_mk sets up, big-M and degenerate ones included."""
    seen = []

    def both(supply, demand, cost, scale):
        got = real(supply, demand, cost, scale)
        want = reference_simplex(supply, demand, cost, scale)
        seen.append((got[0].tobytes(), got[1]) ==
                    (want[0].tobytes(), want[1]))
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


def test_simplex_matches_the_reference_at_ladder_sizes(monkeypatch):
    """At the sizes of perfbench's mk-ladder, where the basis tree is deep,
    the simplex returns the reference's (flow, basis) bit for bit: n = 40
    with Dirichlet and with equal weights, and n = 30 capped at 0.7 x the
    diameter, so that big-M prices the forbidden arcs."""
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
    for lp, (flow, basis) in lps:
        want = reference_simplex(*lp)
        assert (flow.tobytes(), basis) == (want[0].tobytes(), want[1])


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
    pair, count them, and return its (flow, basis) bit for bit, every flow
    at least +0.0: no entry negative and none -0.0."""
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
            flow, basis = mk_solver._transportation_simplex(*lp)
            assert set(called) == {scan}
            assert (flow >= 0.0).all() and not np.signbit(flow).any()
            got[scan] = (flow.tobytes(), basis, made[:], basis.pivots)
        assert got["_entering"] == got["_entering_array"] == (
            want[0].tobytes(), want[1], pairs, len(pairs))


def test_a_solution_carries_its_optimality_certificate(monkeypatch):
    """Each feasible solve of the _simplex_cases() and mk-ladder-size LPs
    returns its final basis, read-only potentials and pivot count, and
    they certify its plan on the priced matrix (big-M on forbidden arcs):
    u_i + v_j = c_ij on every basis cell within 1e-12 x scale, no allowed
    non-basis cell's reduced cost below -_RC_TOL x scale, n + m - 1 basis
    cells spanning every node, and no flow off the basis."""
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
        (n, m), (u, v) = cost.shape, sol.potentials
        assert (u.shape, v.shape) == ((n,), (m,)) and u[0] == 0.0
        assert not (u.flags.writeable or v.flags.writeable)
        basis = np.zeros((n, m), bool)
        basis[tuple(np.transpose(sol.basis))] = True
        assert type(sol.basis) is tuple and len(sol.basis) == n + m - 1
        assert nx.is_tree(nx.Graph((i, n + j) for i, j in sol.basis))
        assert basis.sum() == n + m - 1
        assert np.abs(u[:, None] + v - cost)[basis].max() <= 1e-12 * scale
        allowed = np.ones((n, m), bool) if arcs is None else ~np.array(
            [[arcs(i, j) for j in range(m)] for i in range(n)])
        reduced = (cost - u[:, None]) - v
        assert reduced[allowed & ~basis].min(initial=0.0) >= -_RC_TOL * scale
        assert not sol.plan.plan[~basis].any()
        pivots.append(sol.pivots)
    assert len(pivots) == 100 and all(type(k) is int for k in pivots)
    assert pivots[-3:] == [1336, 2568, 627]


def test_the_array_scan_finds_the_python_scans_cell():
    """On seeded pricing states of mixed magnitudes, basis cells below tol
    among them, and at a tol that ties some cell's reduced cost or lies one
    ulp above it, both scans return the same cell or both None."""
    rng = np.random.default_rng(26)
    found = 0
    for t in range(3000):
        n, m = (int(k) for k in rng.integers(1, 7, size=2))
        cost = rng.uniform(-1, 1, (n, m)) * 10.0 ** rng.integers(-3, 6,
                                                                 (n, m))
        pot = (rng.uniform(-1, 1, n + m) * 10.0 ** rng.integers(
            -3, 6, n + m)).tolist()
        free = rng.random((n, m)) < 0.6
        i, j = (int(k) for k in rng.integers(0, (n, m)))
        tol = (cost[i, j] - pot[i]) - pot[n + j]
        tol = [tol, np.nextafter(tol, np.inf), -abs(tol)][t % 3]
        want = mk_solver._entering(cost.tolist(), pot, n, free.tolist(), tol)
        assert mk_solver._entering_array(cost, pot, n, free, tol) == want
        found += want is not None
    assert 0 < found < 3000


def test_the_scan_is_chosen_by_the_cell_count(monkeypatch):
    """The array scan prices exactly the LPs of more than _ARRAY_SCAN_CELLS
    cells: n20 (400 cells) stays on the Python scan, n40 does not."""
    called = []
    _count_scans(monkeypatch, called)
    assert 400 < mk_solver._ARRAY_SCAN_CELLS < 40 * 40
    rng = np.random.default_rng(7)
    for n, m in [(20, 20), (40, 40), (1, 1),
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
