"""Acceptance gate: one test per headline identity, each printing a single
pass/fail line.  Tolerances are pinned; a failure here means the library no
longer reproduces the result it exists to verify."""

import math
import time

import numpy as np
import pytest

from lagot.costs import builtin
from lagot.duality import GridFunction, verify_control_identity
from lagot.ensembles import (build_opt_bounded, build_opt_tilde, eval_bounded,
                             eval_tilde, eval_tv, eval_tv_induced_each,
                             oracle_min_path, solve_bounded)
from lagot.harness import (ORACLE_GRID, _rand_bounded_ensembles,
                           _rand_bounded_triple, _rand_measure, _rand_paths)
from lagot.measures import validate_measure
from lagot.mk_solver import solve_mk, t_p
from lagot.paths import (compress, cost_li, cost_plain, detour_path, n1, n2,
                         random_interval_set, stretch)
from oracles import brute_force_mk

SQRT = builtin("power", [0.5])
POWERS = [builtin("power", [p]) for p in (0.3, 0.5, 0.9)]
REMARK = builtin("remark_iii")


def _report(label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {label}: {status}")
    assert not failures, failures[:5]


def _instances(seed, count, costs, n_atoms=5, dims=(1, 2, 3)):
    """Seeded stream of (rng, m0, m1, cost) tuples."""
    streams = np.random.SeedSequence(seed).spawn(count)
    for k, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        dim = dims[k % len(dims)]
        yield (rng, _rand_measure(rng, n_atoms, dim),
               _rand_measure(rng, n_atoms, dim), costs[k % len(costs)])


def test_01_transport_equals_first_modified_value():
    """Optimal stop-and-go ensembles reproduce the static optimum, and no
    per-cell path beats the direct cost under the first modified
    functional."""
    t0 = time.monotonic()
    failures = []
    for rng, m0, m1, cost in _instances(101, 50, POWERS + [REMARK]):
        sol = solve_mk(m0, m1, cost)
        ens = build_opt_tilde(sol, lambda i, j: random_interval_set(rng))
        if abs(eval_tilde(ens, cost, 1) - sol.value) > 1e-9:
            failures.append(("value", cost.name, sol.value))
        for i, j, mass in sol.plan.cells():
            if mass <= 1e-12:
                continue
            x, y = m0.points[i], m1.points[j]
            disp = float(np.linalg.norm(y - x))
            if disp < 1e-12:
                continue
            best = oracle_min_path(x, y, cost, "L1", 4, ORACLE_GRID)
            if best < float(cost.eval(disp)) - 1e-9:
                failures.append(("oracle", cost.name, best))
    if time.monotonic() - t0 >= 30.0:
        failures.append(("runtime", time.monotonic() - t0))
    _report("01 static optimum equals first modified value", failures)


def test_02_first_and_second_modified_values_agree():
    failures = []
    for rng, m0, m1, cost in _instances(202, 50, POWERS):
        sol = solve_mk(m0, m1, cost)
        ens = build_opt_tilde(sol, lambda i, j: random_interval_set(rng))
        if abs(eval_tilde(ens, cost, 1) - eval_tilde(ens, cost, 2)) > 1e-10:
            failures.append(("tilde-gap", cost.name))
        for m in ens.members:
            if np.linalg.norm(m.path.displacements[0]) < 1e-12:
                continue
            if abs(n1(m.path)[0] - n2(m.path)[0]) > 1e-12:
                failures.append(("n-gap", n1(m.path)[0], n2(m.path)[0]))
    rng = np.random.default_rng(2002)
    for _ in range(100):
        p = _rand_paths([rng], 2, 1)[0]
        if cost_li(p, SQRT, 1)[0] < cost_li(p, SQRT, 2)[0] - 1e-12:
            failures.append(("ordering", p))
    _report("02 both modified values agree on optimal ensembles", failures)


def test_03_detour_strictly_beats_direct_under_second_functional():
    failures = []
    t = float(REMARK.eval(2.0))
    det = cost_li(detour_path([0.0, 0.0], [2.0, 0.0]), REMARK, 2)[0]
    if abs(t - 2.0 * math.exp(-2.0)) > 1e-9:
        failures.append(("direct", t))
    if abs(det - 4.0 * math.exp(-4.0)) > 1e-9:
        failures.append(("detour", det))
    if t - det < 0.19:
        failures.append(("gap", t - det))
    _report("03 detour gap for a decreasing cost", failures)


def test_04_bounded_velocity_value_matches_static_form():
    failures = []
    for k, ss in enumerate(np.random.SeedSequence(404).spawn(50)):
        rng = np.random.default_rng(ss)
        triple = _rand_bounded_triple(rng, n_atoms=4, dim=1 + k % 3)
        ens = build_opt_bounded(triple)
        if abs(eval_bounded(ens, SQRT) - eval_tv(triple, SQRT)) > 1e-10:
            failures.append(("opt", k))
    rng = np.random.default_rng(4004)
    for _ in range(200):
        ens = _rand_bounded_ensembles([rng], 2, 1)  # a stack of one
        if (eval_bounded(ens, SQRT)
                < eval_tv_induced_each(ens, SQRT)[0] - 1e-10):
            failures.append(("lower-bound", ens))
    _report("04 bounded-velocity value equals its static form", failures)


def test_05_deterministic_cap_scales_the_linear_cost_value():
    failures = []
    for _, m0, m1, cost in _instances(505, 10, [SQRT], dims=(1, 2)):
        diam = m0.diameter_to(m1)
        base = t_p(m0, m1, 1.0)
        values = []
        for r in np.linspace(max(diam, 1e-3), max(diam, 1e-3) + 5.0, 6):
            val, _ = solve_bounded(m0, m1, cost, float(r))
            values.append(val)
            want = float(cost.eval(r)) / r * base
            if abs(val - want) > 1e-10:
                failures.append(("value", r, val, want))
        if any(a < b - 1e-12 for a, b in zip(values, values[1:])):
            failures.append(("monotone", values))
    _report("05 single-cap value is (cost(r)/r) times the linear value",
            failures)


def test_06_large_cap_limit_recovers_the_asymptotic_slope():
    failures = []
    a = 0.25
    affine = builtin("affine_exp", [a])
    for _, m0, m1, _ in _instances(606, 8, [affine], dims=(1, 2)):
        base = t_p(m0, m1, 1.0)
        diam = m0.diameter_to(m1)
        prev = math.inf
        for r in (max(diam, 1.0), 1e2, 1e3, 1e4):
            val, _ = solve_bounded(m0, m1, affine, float(r))
            excess = val - a * base
            if excess < -1e-10 or excess > prev + 1e-12:
                failures.append(("excess", r, excess))
            bound = (float(affine.eval(r)) / r - a) * base
            if excess > bound + 1e-10:
                failures.append(("bound", r, excess, bound))
            prev = excess
        if prev >= 1e-3:
            failures.append(("limit", prev))
        # strictly sublinear cost: the same caps drive the value to zero
        vr, _ = solve_bounded(m0, m1, SQRT, 1e4)
        if abs(vr - 1e-2 * t_p(m0, m1, 1.0)) > 1e-10:
            failures.append(("sublinear", vr))
    _report("06 cap-to-infinity limit matches the asymptotic slope", failures)


def test_07_time_change_turns_modified_cost_into_plain_cost():
    failures = []
    rng = np.random.default_rng(707)
    for _ in range(100):
        p = _rand_paths([rng], 2, 1)[0]
        if abs(cost_plain(stretch(p, n1(p)), SQRT)[0]
               - cost_li(p, SQRT, 1)[0]) > 1e-12:
            failures.append(("identity", p))
        q = compress(stretch(p, 1.0 + rng.uniform(0.0, 9.0)))
        if not (np.allclose(q.durations, p.durations, rtol=1e-15, atol=0)
                and np.allclose(q.velocities, p.velocities, rtol=1e-15,
                                atol=0)):
            failures.append(("roundtrip", p))
    _report("07 time change maps modified cost to plain cost", failures)


def test_08_convex_cost_makes_the_linear_path_optimal():
    failures = []
    quad = builtin("quadratic")
    for delta in (0.5, 1.0, 2.0):
        got = oracle_min_path([0.0], [delta], quad, "conv", 4, ORACLE_GRID)
        if abs(got - delta ** 2) > 1e-9:
            failures.append((delta, got))
    _report("08 convex modified objective is minimized by the linear path",
            failures)


def test_09_terminal_cost_value_reduces_atomwise():
    failures = []
    for k, ss in enumerate(np.random.SeedSequence(909).spawn(20)):
        rng = np.random.default_rng(ss)
        dim = 1 + k % 2
        m0 = _rand_measure(rng, 4, dim)
        pts = rng.uniform(-2, 2, size=(5, dim))
        f = GridFunction(points=pts, values=rng.uniform(0.0, 3.0, size=5))
        rep = verify_control_identity(m0, f, SQRT, 1)
        if rep.margin != 0.0:
            failures.append(("margin", k, rep.margin))
        i, j = rep.selected[0]
        x, y = m0.points[i], f.points[j]
        disp = float(np.linalg.norm(y - x))
        if disp > 1e-9:
            best = oracle_min_path(x, y, SQRT, "L1", 4, ORACLE_GRID)
            if abs(best - float(SQRT.eval(disp))) > 1e-9:
                failures.append(("oracle", k, best))
    _report("09 terminal-cost value matches the atomwise reduction", failures)


def test_10_simplex_solver_matches_brute_force():
    failures = []
    for k, ss in enumerate(np.random.SeedSequence(1010).spawn(100)):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(1, 7))
        dim = 1 + k % 3
        w = np.full(n, 1.0 / n)
        m0 = validate_measure(
            zip(rng.uniform(-2, 2, size=(n, dim)), w), dim)
        m1 = validate_measure(
            zip(rng.uniform(-2, 2, size=(n, dim)), w), dim)
        cost = POWERS[k % 3]
        lp = solve_mk(m0, m1, cost).value
        bf = brute_force_mk(m0, m1, cost).value
        if abs(lp - bf) > 1e-9:
            failures.append((k, lp, bf))
    _report("10 simplex value equals the brute-force optimum", failures)
