import math

import numpy as np
import pytest

from lagot.costs import builtin, parse_cost, power_cost
from lagot.duality import GridFunction, inf_conv, verify_control_identity
from lagot.errors import AssumptionRefused, DimensionMismatch
from lagot.measures import validate_measure

SQRT = builtin("power", [0.5])


def grid1d(points, values):
    return GridFunction(points=np.asarray(points, float)[:, None],
                        values=np.asarray(values, float))


def test_zero_function_fixed_point():
    f = grid1d([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    assert inf_conv(f, SQRT, [[1.0]]) == [0.0]


def test_three_term_enumeration():
    f = grid1d([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    # min(sqrt(2)+0, 1+1, 0+2) = sqrt(2)
    assert inf_conv(f, SQRT, [[2.0]])[0] == pytest.approx(math.sqrt(2.0))


def test_single_candidate_bound():
    f = grid1d([-1.0, 0.5, 3.0], [2.0, 0.1, 5.0])
    x = 2.0
    vals = inf_conv(f, SQRT, [[x]])
    assert vals[0] <= SQRT.eval(abs(x - 0.5)) + 0.1 + 1e-12


def test_pointwise_domination_and_monotonicity():
    pts = np.linspace(-2, 2, 7)
    f = grid1d(pts, np.abs(pts))
    g = grid1d(pts, np.abs(pts) + 0.5)
    fl = inf_conv(f, SQRT, pts[:, None])
    gl = inf_conv(g, SQRT, pts[:, None])
    assert all(a <= b + 1e-12 for a, b in zip(fl, np.abs(pts)))
    assert all(a <= b + 1e-12 for a, b in zip(fl, gl))


def test_constant_shift():
    pts = np.linspace(-1, 1, 5)
    vals = pts ** 2
    f = grid1d(pts, vals)
    g = grid1d(pts, vals + 3.0)
    fl = inf_conv(f, SQRT, [[0.3], [0.9]])
    gl = inf_conv(g, SQRT, [[0.3], [0.9]])
    assert np.allclose(np.asarray(gl) - np.asarray(fl), 3.0)


def test_control_identity_trivial_cases():
    m0 = validate_measure([((0.0,), 1.0)], 1)
    f0 = grid1d([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    rep = verify_control_identity(m0, f0, SQRT, 1)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.margin == 0.0
    fabs = grid1d([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    rep = verify_control_identity(m0, fabs, SQRT, 1)
    assert rep.lhs == 0.0  # staying put is free


def test_control_identity_forced_terminal():
    m0 = validate_measure([((0.0,), 0.5), ((2.0,), 0.5)], 1)
    f = grid1d([1.0], [0.0])
    rep = verify_control_identity(m0, f, SQRT, 1)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.margin == 0.0


def test_hypothesis_gate():
    m0 = validate_measure([((0.0,), 1.0)], 1)
    f = grid1d([0.0], [0.0])
    with pytest.raises(AssumptionRefused) as exc:
        verify_control_identity(m0, f, builtin("quadratic"), 1)
    assert str(exc.value) == (
        "the control identity needs sublinearity; witness (0.02, "
        "0.0071968567300115215, 2.0717898716924856e-08, "
        "1.0358949358462427e-06)")
    with pytest.raises(AssumptionRefused) as exc:
        verify_control_identity(m0, f, builtin("remark_iii"), 2)
    assert str(exc.value) == (
        "the control identity needs a non-decreasing cost; witness "
        "(0.8877197088985865, 1.0826367338740546, 0.7307588550659756, "
        "0.3666904497881385)")


# cost -> whether the identity admits it for i = 1 and for i = 2
GATE = {"power:0.5": (True, True), "remark_iii": (True, False),
        "affine_exp:0.25": (True, True), "affine_exp:0": (True, True),
        "linear": (True, True), "quadratic": (False, False)}
POWER_GATE = {0.25: (True, True), 0.3: (True, True), 1.0: (True, True),
              1.5: (False, False), 2.0: (False, False)}


def test_control_identity_admits_the_sampled_hypotheses_only():
    m0 = validate_measure([((0.0,), 1.0)], 1)
    f = grid1d([0.0], [0.0])
    cases = [(parse_cost(spec), ok) for spec, ok in GATE.items()]
    cases += [(power_cost(p), ok) for p, ok in POWER_GATE.items()]
    for cost, admitted in cases:
        for i, ok in zip((1, 2), admitted):
            if ok:
                verify_control_identity(m0, f, cost, i)
            else:
                with pytest.raises(AssumptionRefused):
                    verify_control_identity(m0, f, cost, i)


def test_query_points_of_the_grid_dimension_only():
    f = GridFunction(points=[[0.0, 0.0], [1.0, 1.0]], values=[0.0, 1.0])
    assert inf_conv(f, SQRT, []) == []
    with pytest.raises(DimensionMismatch):
        inf_conv(f, SQRT, [0.5, 1.0])  # two 1-D points
    with pytest.raises(DimensionMismatch):
        verify_control_identity(validate_measure([((0.5,), 1.0)], 1), f,
                                SQRT, 1)


@pytest.mark.parametrize("points", [[[[0.0]]], [[[0.0], [1.0]]], 0.0])
def test_grid_points_nested_too_deep_are_refused(points):
    """Points three deep, or a bare number, are refused with a ValueError
    naming the points, not a TypeError from the distinct-points check."""
    with pytest.raises(ValueError, match="grid points must be a list of numbers"):
        GridFunction(points=points, values=[0.0])
