import math

import numpy as np
import pytest

from lagot.costs import (A1I, A1III, A2I, CostFunction, builtin, c_ell,
                         check_a1, check_a2, default_a1_grids, from_spec,
                         parse_cost, power_cost, require)
from lagot.errors import AssumptionRefused, BadParam, UnknownCost
from oracles import check_a1_per_r

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
    # power_cost admits any positive exponent; the builtin only p in (0,1],
    # refused after power_cost's own check
    assert power_cost(1.5).eval(4.0) == pytest.approx(8.0)
    for p, message in [(2.0, "power builtin needs p in (0,1], got 2.0"),
                       (2, "power builtin needs p in (0,1], got 2.0"),
                       (math.nan, "power needs a finite p > 0, got nan"),
                       (-1.0, "power needs a finite p > 0, got -1.0"),
                       (math.inf, "power needs a finite p > 0, got inf")]:
        with pytest.raises(BadParam) as info:
            builtin("power", [p])
        assert str(info.value) == message


def test_check_a1_sublinear_pass():
    assert check_a1(builtin("power", [0.5]), [0.25], [1.0]) == {
        A1I: None, A1III: None}


def test_check_a1_convex_fails():
    # the witness is taken at the first r that fails
    r, u, lru, rlu = check_a1(builtin("quadratic"), [0.5, 0.25], [1.0])[A1I]
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
        c_ell(builtin("quadratic"))


CLEAN = {A1I: None, A1III: None, A2I: None}
# the sampled hypotheses that fail, with their witnesses; remark_iii's
# (A1iii) witness is u*exp(-u) underflowing to 0.0, not a true zero, so its
# gates check (A2i) first and refuse it for its decrease (REFUSALS in
# test_harness_cli.py and test_duality.py::test_hypothesis_gate pin that)
FAILING = {
    "quadratic": {A1I: (0.02, 0.0071968567300115215, 2.0717898716924856e-08,
                        1.0358949358462427e-06)},
    "remark_iii": {A2I: (0.8877197088985865, 1.0826367338740546,
                         0.7307588550659756, 0.3666904497881385),
                   A1III: (754.3120063354608, 0.0)},
}


@pytest.mark.parametrize("cost", ALL_BUILTINS + [builtin("quadratic")],
                         ids=lambda c: c.name)
def test_declared_a1_flags_hold_on_grid(cost):
    """The hypothesis table declared above is what each builtin's sampled
    witnesses find: power (p <= 1), affine_exp (a >= 0) and linear hold
    every hypothesis."""
    assert cost.witnesses == {**CLEAN, **FAILING.get(cost.name, {})}
    with pytest.raises(TypeError):
        cost.witnesses[A1I] = None  # read-only


def test_require_refuses_at_the_first_failing_hypothesis_given():
    cost = builtin("remark_iii")
    require(cost, "who", A1I)
    with pytest.raises(AssumptionRefused) as exc:
        require(cost, "who", A1I, A1III, A2I)
    assert str(exc.value) == "who needs positivity of the cost"
    with pytest.raises(AssumptionRefused, match="^who needs a non-decreasing"):
        require(cost, "who", A2I, A1III)


R_GRIDS = [default_a1_grids()[0], [0.5, 0.25], [0.5], np.linspace(0.9, 0.1, 7)]
U_GRIDS = [default_a1_grids()[1], [1.0], [0.5, 2.0], np.logspace(-2, 2, 9)]
A1_COSTS = ALL_BUILTINS + [
    builtin("quadratic"), power_cost(1.5),
    CostFunction(name="shifted", fn=lambda u: np.sqrt(u) + 1.0),
    CostFunction(name="flat", fn=lambda u: np.where(u < 1.0, u, 0.0)),
    # fails (A1i) at a u that grows as r falls, so each r's first failing u
    # differs from the first u that fails at any r
    CostFunction(name="kinked",
                 fn=lambda u: np.where(u < 2.0, np.minimum(u, 1.0), u - 1.0))]


@pytest.mark.parametrize("cost", A1_COSTS, ids=lambda c: c.name)
def test_check_a1_matches_the_per_r_loop(cost):
    for r_grid in R_GRIDS:
        for u_grid in U_GRIDS:
            assert check_a1(cost, r_grid, u_grid) == \
                check_a1_per_r(cost, r_grid, u_grid), (r_grid, u_grid)


@pytest.mark.parametrize("cost", ALL_BUILTINS, ids=lambda c: c.name)
def test_slope_non_increasing_when_sublinear(cost):
    if cost.witnesses[A1I] is not None:
        pytest.skip("not sublinear on the sampled grids")
    u = np.logspace(-3, 2, 200)
    slopes = np.atleast_1d(cost.eval(u)) / u
    assert np.all(np.diff(slopes) <= 1e-12)


def test_spec_parsing():
    assert parse_cost("power:0.5").name == "power:0.5"
    assert parse_cost("remark_iii").r0 == 1.0
    assert from_spec({"name": "affine_exp", "params": [0.3]}).analytic_c_ell == 0.3
    assert from_spec({"name": "quadratic"}).eval(3.0) == 9.0
