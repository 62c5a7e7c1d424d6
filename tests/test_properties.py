"""Property-based checks of the path-functional inequalities."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lagot.costs import builtin, power_cost
from lagot.paths import (SteppedPath, compress, cost_li, cost_plain, l1_norm,
                         n1, n2, stretch)

SQRT = builtin("power", [0.5])
REMARK = builtin("remark_iii")


@st.composite
def stepped_paths(draw, dim=1, max_pieces=4):
    k = draw(st.integers(1, max_pieces))
    durations = np.array(
        draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    durations = durations / durations.sum()
    velocities = np.array(
        draw(st.lists(st.lists(st.floats(-5.0, 5.0), min_size=dim,
                               max_size=dim), min_size=k, max_size=k)))
    return SteppedPath(start=np.zeros(dim), horizon=1.0,
                       durations=durations, velocities=velocities)


@given(stepped_paths())
def test_n_ordering(p):
    assume(np.linalg.norm(p.displacements[0]) > 1e-6)
    assert n1(p)[0] >= n2(p)[0] - 1e-12
    assert n2(p)[0] >= 1.0 - 1e-12


@given(stepped_paths(dim=2))
def test_length_dominates_displacement(p):
    assert l1_norm(p)[0] >= float(np.linalg.norm(p.displacements[0])) - 1e-12


@given(stepped_paths(), st.sampled_from([0.3, 0.5, 0.9]))
@settings(max_examples=60)
def test_modified_cost_ordering(p, exponent):
    assume(np.linalg.norm(p.displacements[0]) > 1e-6)
    cost = power_cost(exponent)
    assert cost_li(p, cost, 1)[0] >= cost_li(p, cost, 2)[0] - 1e-10


@given(stepped_paths(dim=2))
@settings(max_examples=60)
def test_modified_cost_dominates_endpoint_cost(p):
    disp = float(np.linalg.norm(p.displacements[0]))
    assume(disp > 1e-6)
    assert cost_li(p, SQRT, 1)[0] >= float(SQRT.eval(disp)) - 1e-10
    # the second functional needs a non-decreasing cost; sqrt qualifies
    assert cost_li(p, SQRT, 2)[0] >= float(SQRT.eval(disp)) - 1e-10


def test_second_functional_fails_for_decreasing_cost():
    # the detour shows the endpoint bound genuinely fails without
    # monotonicity: modified cost ell(4) < ell(2) at displacement 2
    from lagot.paths import detour_path
    d = detour_path([0.0, 0.0], [2.0, 0.0])
    assert cost_li(d, REMARK, 2)[0] < float(REMARK.eval(2.0)) - 0.19


@given(stepped_paths(dim=2))
@settings(max_examples=60)
def test_time_change_identity(p):
    lhs = cost_plain(stretch(p, n1(p)), SQRT)
    rhs = cost_li(p, SQRT, 1)
    assert lhs[0] == pytest.approx(rhs[0], abs=1e-12, rel=1e-12)


@given(stepped_paths(), st.floats(1.0, 10.0))
def test_compress_stretch_roundtrip(p, T):
    q = compress(stretch(p, T))
    assert np.allclose(q.durations, p.durations, rtol=1e-15, atol=1e-18)
    assert np.allclose(q.velocities, p.velocities, rtol=1e-15, atol=1e-18)


# a closed path whose stretched displacement is a rounding residue under
# some BLAS kernels (-1.4e-17) and exactly 0.0 under others
CLOSED = SteppedPath(start=np.zeros(1), horizon=1.0,
                     durations=np.array([0.75, 0.25]),
                     velocities=np.array([[-1.0 / 3.0], [1.0]]))
# displacement 2**-53 exactly, below the rounding bound of its two-piece
# sum: every product and the sum are exact in any order, on any CPU
NEAR_CLOSED = SteppedPath(start=np.zeros(1), horizon=1.0,
                          durations=np.array([0.5, 0.5]),
                          velocities=np.array([[1.0], [-(1.0 - 2.0 ** -52)]]))


@given(stepped_paths(), st.floats(1.5, 8.0))
@example(CLOSED, 1.5)
def test_stretch_preserves_n_functionals(p, T):
    s = stretch(p, T)
    assert n1(s)[0] == pytest.approx(n1(p)[0], rel=1e-12)
    assert n2(s)[0] == pytest.approx(n2(p)[0], rel=1e-12)


def test_n1_is_one_only_within_rounding_of_a_closed_path():
    # the displacement is rounding, not motion, before and after a stretch
    assert NEAR_CLOSED.displacements[0, 0] == 2.0 ** -53
    assert n1(NEAR_CLOSED)[0] == 1.0
    assert n1(stretch(NEAR_CLOSED, 1.5))[0] == 1.0
    # displacement 2**-20 exactly, about 1e-6 of the length; sup-speed 1
    p = SteppedPath(start=np.zeros(1), horizon=1.0,
                    durations=np.array([0.5, 0.5]),
                    velocities=np.array([[1.0], [-(1.0 - 2.0 ** -19)]]))
    assert p.displacements[0, 0] == 2.0 ** -20
    assert n1(p)[0] == 2.0 ** 20
