import ast
import math
from pathlib import Path

import numpy as np
import pytest

from lagot.costs import builtin
from lagot.errors import (BadHorizon, CoincidentPoints, DegenerateSet,
                          DimensionTooSmall)
from lagot.measures import pairwise_distances
from lagot.paths import (IntervalSet, SteppedPath, compress, cost_li,
                         cost_plain, detour_path, fast_path, l1_norm,
                         linear_path, n1, n2, stop_and_go, stretch, sup_norm)

SQRT = builtin("power", [0.5])
REMARK = builtin("remark_iii")


def path1d(durations, velocities, start=0.0, horizon=1.0):
    return SteppedPath(start=np.array([start]), horizon=horizon,
                       durations=np.array(durations, dtype=float),
                       velocities=np.array(velocities, dtype=float)[:, None])


def test_norms():
    assert sup_norm(path1d([1.0], [1.0])) == 1.0
    assert l1_norm(path1d([1.0], [1.0])) == 1.0
    p = path1d([0.5, 0.5], [2.0, 0.0])
    assert sup_norm(p) == 2.0 and l1_norm(p) == 1.0
    q = path1d([0.5, 0.5], [3.0, -1.0])
    assert sup_norm(q) == 3.0 and l1_norm(q) == 2.0


def test_n_functionals():
    assert n1(path1d([1.0], [1.0])) == 1.0
    assert n2(path1d([1.0], [1.0])) == 1.0
    p = path1d([0.5, 0.5], [2.0, 0.0])
    assert n1(p) == pytest.approx(2.0) and n2(p) == pytest.approx(2.0)
    q = path1d([0.5, 0.5], [3.0, -1.0])
    assert n1(q) == pytest.approx(3.0) and n2(q) == pytest.approx(1.5)


@pytest.mark.parametrize("scale", [1e-300, 1e-310, 1e200])
def test_n_functionals_are_scale_free(scale):
    # squares of these speeds underflow or overflow in a plain norm
    q = path1d([0.5, 0.5], [3.0 * scale, -1.0 * scale])
    assert n1(q) == pytest.approx(3.0) and n2(q) == pytest.approx(1.5)
    # lengths scale with the path, power:0.5 costs with its square root
    unit, root = path1d([0.5, 0.5], [3.0, -1.0]), math.sqrt(scale)
    for got, want in [(sup_norm(q), scale * sup_norm(unit)),
                      (l1_norm(q), scale * l1_norm(unit)),
                      (cost_plain(q, SQRT), root * cost_plain(unit, SQRT)),
                      (cost_li(q, SQRT, 1), root * cost_li(unit, SQRT, 1)),
                      (cost_li(q, SQRT, 2), root * cost_li(unit, SQRT, 2))]:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_straight_paths_are_exact():
    """A linear path has n1 exactly 1, and both running costs are the cost
    of the kernel's |y - x|, bit for bit."""
    rng = np.random.default_rng(0)
    bad = []
    for x, y in rng.uniform(-2.0, 2.0, size=(2000, 2, 2)):
        p = linear_path(x, y)
        want = SQRT.eval(pairwise_distances(x[None], y[None])[0, 0])
        if not (n1(p) == 1.0 and cost_li(p, SQRT, 1) == want
                and cost_plain(p, SQRT) == want):
            bad.append((x, y))
    assert bad == []


def test_only_the_two_kernels_take_a_norm():
    """np.linalg.norm is called by the distance kernel and the length
    helper only; every other length in the library is read from them."""
    where = []
    for path in sorted(Path(__file__).resolve().parents[1].glob(
            "src/lagot/*.py")):
        text = path.read_text()
        defs = [node for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.FunctionDef)]
        for lineno, line in enumerate(text.splitlines(), 1):
            if "linalg.norm" in line:
                owners = [d.name for d in defs
                          if d.lineno <= lineno <= d.end_lineno]
                where.append((path.name, owners[-1] if owners else None))
    assert sorted(where) == [("measures.py", "pairwise_distances"),
                             ("paths.py", "lengths")]


def test_cost_plain():
    zero = path1d([1.0], [0.0])
    assert cost_plain(zero, SQRT) == 0.0
    p = path1d([0.5, 0.5], [2.0, 0.0])
    assert cost_plain(p, SQRT) == pytest.approx(0.5 * math.sqrt(2.0))
    y4 = fast_path(np.array([0.0]), np.array([1.0]), 4)
    assert cost_plain(y4, SQRT) == pytest.approx(0.5)


def test_cost_li():
    stop_go = stop_and_go([0.0], [1.0], IntervalSet(((0.0, 0.5),)))
    assert cost_li(stop_go, SQRT, 1) == pytest.approx(1.0)
    assert cost_li(linear_path([0.0], [1.0]), SQRT, 1) == pytest.approx(1.0)
    detour = detour_path([0.0, 0.0], [2.0, 0.0])
    assert cost_li(detour, REMARK, 2) == pytest.approx(4.0 * math.exp(-4.0))
    with pytest.raises(BadHorizon):
        cost_li(stretch(stop_go, 2.0), SQRT, 1)


def test_stop_and_go():
    const = stop_and_go([0.0], [0.0], IntervalSet(((0.0, 0.5),)))
    assert sup_norm(const) == 0.0
    p = stop_and_go([0.0], [1.0], IntervalSet(((0.0, 0.5),)))
    assert sup_norm(p) == pytest.approx(2.0)
    assert p.end[0] == pytest.approx(1.0)
    q = stop_and_go([0.0], [1.0], IntervalSet(((0.25, 0.5), (0.75, 1.0))))
    assert sup_norm(q) == pytest.approx(2.0)
    assert q.position(0.5)[0] == pytest.approx(0.5)
    assert q.end[0] == pytest.approx(1.0)
    with pytest.raises(DegenerateSet):
        stop_and_go([0.0], [1.0], IntervalSet(()))


def test_linear_path():
    assert sup_norm(linear_path([0.0], [0.0])) == 0.0
    assert sup_norm(linear_path([0.0], [1.0])) == 1.0
    assert n1(linear_path([0.0, 1.0], [2.0, 3.0])) == pytest.approx(1.0)


def test_fast_path():
    one = fast_path([0.0], [1.0], 1)
    assert len(one.durations) == 1 and sup_norm(one) == 1.0
    costs = [cost_plain(fast_path([0.0], [1.0], n), SQRT)
             for n in range(1, 20)]
    assert costs[3] == pytest.approx(0.5)
    assert all(a > b for a, b in zip(costs, costs[1:]))
    assert np.allclose(costs, [n ** -0.5 for n in range(1, 20)])


def test_detour_geometry():
    d = detour_path([0.0, 0.0], [2.0, 0.0])
    assert sup_norm(d) == pytest.approx(4.0)       # constant speed 2C = 4
    assert n2(d) == pytest.approx(1.0)
    apex = d.position(0.5)
    assert apex[0] == pytest.approx(1.0)
    assert abs(apex[1]) == pytest.approx(math.sqrt(3.0))
    assert np.allclose(d.end, [2.0, 0.0])
    with pytest.raises(DimensionTooSmall):
        detour_path([0.0], [2.0])
    with pytest.raises(CoincidentPoints):
        detour_path([1.0, 1.0], [1.0, 1.0])


def test_stretch_compress_inverse():
    p = path1d([0.3, 0.7], [2.0, -1.0])
    q = compress(stretch(p, 2.5))
    assert np.allclose(q.durations, p.durations, rtol=1e-15, atol=0)
    assert np.allclose(q.velocities, p.velocities, rtol=1e-15, atol=0)


def test_stretch_time_change():
    p = stop_and_go([0.0], [1.0], IntervalSet(((0.0, 0.5),)))
    s = stretch(p, 2.0)
    assert s.horizon == 2.0
    assert sup_norm(s) == pytest.approx(1.0)
    assert cost_plain(s, SQRT) == pytest.approx(cost_li(p, SQRT, 1))
    # the n-functional over the stretched horizon matches the original
    assert n1(s) == pytest.approx(n1(p))
    with pytest.raises(BadHorizon):
        stretch(p, 0.5)


def test_position_and_invariants():
    p = path1d([0.25, 0.75], [4.0, 0.0])
    assert p.position(0.25)[0] == pytest.approx(1.0)
    assert p.position(1.0)[0] == pytest.approx(1.0)
    assert l1_norm(p) >= abs(p.displacement[0]) - 1e-12


def test_interval_set_validation():
    s = IntervalSet(((0.1, 0.3), (0.5, 0.9)))
    assert s.measure == pytest.approx(0.6)
    with pytest.raises(ValueError):
        IntervalSet(((0.5, 0.4),))
    with pytest.raises(ValueError):
        IntervalSet(((0.1, 0.6), (0.5, 0.9)))


def test_json_roundtrip():
    p = path1d([0.5, 0.5], [3.0, -1.0], start=0.25)
    q = SteppedPath.from_json(p.to_json())
    assert np.array_equal(p.durations, q.durations)
    assert np.array_equal(p.velocities, q.velocities)
    assert np.array_equal(p.start, q.start)
