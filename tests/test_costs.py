import math

import numpy as np
import pytest

from lagot.costs import (A1I, A1II, A1III, A2I, A2II, CostFunction, builtin,
                         c_ell, check_a1, check_a2, default_a1_grids,
                         from_spec, parse_cost, power_cost, quadratic_cost)
from lagot.errors import BadParam, NonMonotoneSlope, UnknownCost

ALL_BUILTINS = [builtin("power", [0.3]), builtin("power", [0.5]),
                builtin("power", [0.9]), builtin("power", [1.0]),
                builtin("remark_iii"), builtin("affine_exp", [0.0]),
                builtin("affine_exp", [0.3]), builtin("linear")]


def test_power_eval():
    assert builtin("power", [0.5]).eval(4.0) == pytest.approx(2.0)
    assert builtin("power", [0.5]).eval(0.0) == 0.0


def test_remark_iii_branches():
    c = builtin("remark_iii")
    assert c.eval(2.0) == pytest.approx(2.0 * math.exp(-2.0))
    assert c.eval(0.5) == pytest.approx(1.0 * math.exp(-0.5))
    assert c.r0 == 1.0


def test_remark_iii_discontinuous_at_one():
    c = builtin("remark_iii")
    eps = 1e-9
    assert c.eval(1.0 - eps) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-6)
    assert c.eval(1.0) == pytest.approx(math.exp(-1.0))


def test_affine_exp_slope():
    assert builtin("affine_exp", [0.3]).analytic_c_ell == 0.3
    assert c_ell(builtin("affine_exp", [2.0])) == 2.0


def test_bad_params():
    with pytest.raises(UnknownCost):
        builtin("nope")
    with pytest.raises(BadParam):
        builtin("power", [1.5])
    with pytest.raises(BadParam):
        builtin("power", [0.0])
    with pytest.raises(BadParam):
        builtin("affine_exp", [-1.0])
    # unrestricted power admits any positive exponent
    assert power_cost(1.5).eval(4.0) == pytest.approx(8.0)


def test_check_a1_sublinear_pass():
    rep = check_a1(builtin("power", [0.5]), [0.25], [1.0])
    assert rep.ok(A1I) and rep.ok(A1II) and rep.ok(A1III)


def test_check_a1_convex_fails():
    rep = check_a1(quadratic_cost(), [0.5], [1.0])
    assert not rep.ok(A1I)
    r, u, lru, rlu = rep.checks[A1I].witness
    assert lru == pytest.approx(0.25) and rlu == pytest.approx(0.5)


def test_check_a1_linear_equality_hit():
    rep = check_a1(builtin("linear"), [0.5], [1.0])
    assert rep.ok(A1I)
    assert not rep.ok(A1II)


def test_check_a2_examples():
    rep = check_a2(builtin("power", [0.5]), np.linspace(0.1, 10, 20))
    assert rep.ok(A2I) and rep.ok(A2II)
    rep = check_a2(builtin("remark_iii"), [0.5, 1.0, 2.0, 4.0])
    assert not rep.ok(A2I)
    rep = check_a2(builtin("linear"), np.linspace(0.1, 20, 20))
    assert rep.ok(A2I) and rep.ok(A2II)


def test_c_ell_estimation():
    # no analytic slope: the estimate is cost(u)/u at the last tail point
    c = CostFunction(name="sqrt", fn=np.sqrt)
    assert c_ell(c, [1e2, 1e4, 1e6]) == pytest.approx(1e-3)
    assert c_ell(builtin("linear")) == 1.0


def test_c_ell_non_monotone_slope():
    with pytest.raises(NonMonotoneSlope):
        c_ell(quadratic_cost(), [10.0, 100.0, 1000.0])


@pytest.mark.parametrize("cost", ALL_BUILTINS, ids=lambda c: c.name)
def test_declared_a1_flags_hold_on_grid(cost):
    r_grid, u_grid = default_a1_grids()
    # avoid the exp underflow tail for the decaying costs
    u_grid = u_grid[u_grid <= 100.0]
    rep = check_a1(cost, r_grid, u_grid)
    for flag in (A1I, A1II, A1III):
        if flag in cost.declared_flags:
            assert rep.ok(flag), (cost.name, flag, rep.checks[flag].witness)


@pytest.mark.parametrize("cost", ALL_BUILTINS, ids=lambda c: c.name)
def test_slope_non_increasing_when_sublinear(cost):
    if A1I not in cost.declared_flags:
        pytest.skip("not declared sublinear")
    u = np.logspace(-3, 2, 200)
    slopes = np.atleast_1d(cost.eval(u)) / u
    assert np.all(np.diff(slopes) <= 1e-12)


def test_spec_parsing():
    assert parse_cost("power:0.5").name == "power:0.5"
    assert parse_cost("remark_iii").r0 == 1.0
    assert from_spec({"name": "affine_exp", "params": [0.3]}).analytic_c_ell == 0.3
    assert from_spec({"name": "quadratic"}).eval(3.0) == 9.0
