import math

import numpy as np
import pytest

from lagot.costs import (A1I, A1III, A2I, CostFunction, builtin, c_ell,
                         check_a1, check_a2, default_a1_grids, from_spec,
                         parse_cost, power_cost, quadratic_cost)
from lagot.errors import BadParam, UnknownCost

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
    with pytest.raises(BadParam):
        builtin("quadratic", [3.0])
    for name, param in [("power", math.nan), ("affine_exp", math.nan),
                        ("affine_exp", math.inf)]:
        with pytest.raises(BadParam, match="finite"):
            builtin(name, [param])
    for p in (math.nan, math.inf):
        with pytest.raises(BadParam, match="finite"):
            power_cost(p)
    # unrestricted power admits any positive exponent
    assert power_cost(1.5).eval(4.0) == pytest.approx(8.0)


def test_check_a1_sublinear_pass():
    assert check_a1(builtin("power", [0.5]), [0.25], [1.0]) == {
        A1I: None, A1III: None}


def test_check_a1_convex_fails():
    # the witness is taken at the first r that fails
    r, u, lru, rlu = check_a1(quadratic_cost(), [0.5, 0.25], [1.0])[A1I]
    assert r == 0.5 and u == 1.0
    assert lru == pytest.approx(0.25) and rlu == pytest.approx(0.5)


def test_check_a1_linear_equality_hit():
    # cost(r*u) = r*cost(u) exactly: an equality is not a failure of A1i
    assert check_a1(builtin("linear"), [0.5], [1.0])[A1I] is None


def test_check_a1_witnesses_cost_at_zero_and_positivity():
    shifted = CostFunction(name="shifted", fn=lambda u: np.sqrt(u) + 1.0)
    assert check_a1(shifted, [0.5], [1.0, 4.0])[A1I] == (0.0, 1.0)
    flat = CostFunction(name="flat", fn=lambda u: np.where(u < 1.0, u, 0.0))
    assert check_a1(flat, [0.5], [0.5, 2.0])[A1III] == (2.0, 0.0)


def test_check_a2_examples():
    assert check_a2(builtin("power", [0.5]),
                    np.linspace(0.1, 10, 20)) == {A2I: None}
    u, u2, cu, cu2 = check_a2(builtin("remark_iii"),
                              [0.5, 1.0, 2.0, 4.0])[A2I]
    assert (u, u2) == (0.5, 1.0) and cu2 < cu
    assert check_a2(builtin("linear"),
                    np.linspace(0.1, 20, 20)) == {A2I: None}


def test_c_ell_is_the_analytic_slope():
    # every sublinear builtin knows its slope, so cor2_7 never estimates one
    assert c_ell(builtin("linear")) == 1.0
    for cost in ALL_BUILTINS:
        assert cost.analytic_c_ell is not None
        assert c_ell(cost) == cost.analytic_c_ell


def test_c_ell_without_an_analytic_slope_is_refused():
    with pytest.raises(BadParam):
        c_ell(CostFunction(name="sqrt", fn=np.sqrt))
    with pytest.raises(BadParam):
        c_ell(quadratic_cost())


@pytest.mark.parametrize("cost", ALL_BUILTINS, ids=lambda c: c.name)
def test_declared_a1_flags_hold_on_grid(cost):
    r_grid, u_grid = default_a1_grids()
    # avoid the exp underflow tail for the decaying costs
    u_grid = u_grid[u_grid <= 100.0]
    rep = check_a1(cost, r_grid, u_grid)
    for flag in (A1I, A1III):
        if flag in cost.declared_flags:
            assert rep[flag] is None, (cost.name, flag, rep[flag])


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
