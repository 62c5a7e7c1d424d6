import ast
import math
from pathlib import Path

import numpy as np
import pytest

from lagot.costs import builtin
from lagot.errors import (BadHorizon, CoincidentPoints, DegenerateSet,
                          DimensionMismatch, DimensionTooSmall)
from lagot.measures import pairwise_distances
from lagot.paths import (IntervalSet, PathBlock, SteppedPath, block_of,
                         compress, cost_li, cost_plain, detour_path, fast_path,
                         l1_norm, lengths, linear_path, n1, n2, stop_and_go,
                         stretch, sup_norm)

SQRT = builtin("power", [0.5])
REMARK = builtin("remark_iii")


def path1d(durations, velocities, start=0.0, horizon=1.0):
    return SteppedPath(start=np.array([start]), horizon=horizon,
                       durations=np.array(durations, dtype=float),
                       velocities=np.array(velocities, dtype=float)[:, None])


def test_norms():
    assert sup_norm(path1d([1.0], [1.0]))[0] == 1.0
    assert l1_norm(path1d([1.0], [1.0]))[0] == 1.0
    p = path1d([0.5, 0.5], [2.0, 0.0])
    assert sup_norm(p)[0] == 2.0 and l1_norm(p)[0] == 1.0
    q = path1d([0.5, 0.5], [3.0, -1.0])
    assert sup_norm(q)[0] == 3.0 and l1_norm(q)[0] == 2.0


def test_n_functionals():
    assert n1(path1d([1.0], [1.0]))[0] == 1.0
    assert n2(path1d([1.0], [1.0]))[0] == 1.0
    p = path1d([0.5, 0.5], [2.0, 0.0])
    assert n1(p)[0] == pytest.approx(2.0) and n2(p)[0] == pytest.approx(2.0)
    q = path1d([0.5, 0.5], [3.0, -1.0])
    assert n1(q)[0] == pytest.approx(3.0) and n2(q)[0] == pytest.approx(1.5)


@pytest.mark.parametrize("scale", [1e-300, 1e-310, 1e200])
def test_n_functionals_are_scale_free(scale):
    # squares of these speeds underflow or overflow in a plain norm
    q = path1d([0.5, 0.5], [3.0 * scale, -1.0 * scale])
    assert n1(q)[0] == pytest.approx(3.0) and n2(q)[0] == pytest.approx(1.5)
    # lengths scale with the path, power:0.5 costs with its square root
    unit, root = path1d([0.5, 0.5], [3.0, -1.0]), math.sqrt(scale)
    for got, want in [(sup_norm(q), scale * sup_norm(unit)),
                      (l1_norm(q), scale * l1_norm(unit)),
                      (cost_plain(q, SQRT), root * cost_plain(unit, SQRT)),
                      (cost_li(q, SQRT, 1), root * cost_li(unit, SQRT, 1)),
                      (cost_li(q, SQRT, 2), root * cost_li(unit, SQRT, 2))]:
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)


def test_straight_paths_are_exact():
    """A linear path has n1 exactly 1, and both running costs are the cost
    of the kernel's |y - x|, bit for bit."""
    rng = np.random.default_rng(0)
    bad = []
    for x, y in rng.uniform(-2.0, 2.0, size=(2000, 2, 2)):
        p = linear_path(x, y)
        want = SQRT.eval(pairwise_distances(x[None], y[None])[0, 0])
        if not (n1(p)[0] == 1.0 and cost_li(p, SQRT, 1)[0] == want
                and cost_plain(p, SQRT)[0] == want):
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
    assert cost_plain(zero, SQRT)[0] == 0.0
    p = path1d([0.5, 0.5], [2.0, 0.0])
    assert cost_plain(p, SQRT)[0] == pytest.approx(0.5 * math.sqrt(2.0))
    y4 = fast_path(np.array([0.0]), np.array([1.0]), [4])
    assert cost_plain(y4, SQRT)[0] == pytest.approx(0.5)


def test_cost_li():
    stop_go = stop_and_go([[0.0]], [[1.0]], [IntervalSet(((0.0, 0.5),))])
    assert cost_li(stop_go, SQRT, 1)[0] == pytest.approx(1.0)
    assert cost_li(linear_path([0.0], [1.0]), SQRT, 1)[0] == \
        pytest.approx(1.0)
    detour = detour_path([0.0, 0.0], [2.0, 0.0])
    assert cost_li(detour, REMARK, 2)[0] == \
        pytest.approx(4.0 * math.exp(-4.0))
    with pytest.raises(BadHorizon):
        cost_li(stretch(stop_go, 2.0), SQRT, 1)


def test_stop_and_go():
    const = stop_and_go([[0.0]], [[0.0]], [IntervalSet(((0.0, 0.5),))])
    assert sup_norm(const)[0] == 0.0
    p = stop_and_go([[0.0]], [[1.0]], [IntervalSet(((0.0, 0.5),))])
    assert sup_norm(p)[0] == pytest.approx(2.0)
    assert p.ends[0, 0] == pytest.approx(1.0)
    q = stop_and_go([[0.0]], [[1.0]],
                    [IntervalSet(((0.25, 0.5), (0.75, 1.0)))])
    assert sup_norm(q)[0] == pytest.approx(2.0)
    # rest on [0, 0.25), move on [0.25, 0.5): at t = 0.5 after two pieces
    assert q.counts[0] == 4
    half = q.starts[0] + q.durations[0, :2] @ q.velocities[0, :2]
    assert half[0] == pytest.approx(0.5)
    assert q.ends[0, 0] == pytest.approx(1.0)
    with pytest.raises(DegenerateSet):
        stop_and_go([[0.0]], [[1.0]], [IntervalSet(())])


@pytest.mark.parametrize("n_sets", [1, 3])
def test_stop_and_go_refuses_a_set_count_other_than_the_row_count(n_sets):
    """Rows and sets were zipped: 3 sets for 2 rows dropped the third, and
    1 set for 2 rows failed with an unrelated message."""
    with pytest.raises(DimensionMismatch, match=f"{n_sets} sets for 2 paths"):
        stop_and_go([[0.0], [0.0]], [[1.0], [2.0]],
                    [IntervalSet(((0.0, 0.5),))] * n_sets)


def test_stop_and_go_rows_beside_a_wide_row():
    """A 7-piece row beside a 19-piece row has the durations and values it
    has alone: the horizon normalisation sums first to last.  (numpy's
    pairwise sum, whose order changes from 8 pieces wide, moved 2 of these
    200 draws.)"""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        cuts = [np.sort(rng.uniform(0.05, 0.95, size=n)) for n in (6, 18)]
        sets = [IntervalSet(tuple(zip(c[::2], c[1::2]))) for c in cuts]
        x, y = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
        block = stop_and_go(x, y, sets)
        alone = stop_and_go(x[:1], y[:1], sets[:1])
        assert block.counts.tolist() == [7, 19] and alone.counts[0] == 7
        assert np.array_equal(block.durations[0, :7], alone.durations[0])
        alone_values = _row_values(alone, REMARK)
        for name, value in _row_values(block, REMARK).items():
            assert value[0] == alone_values[name][0], name
        assert np.array_equal(block.ends[0], alone.ends[0]), seed


def test_linear_path():
    assert sup_norm(linear_path([0.0], [0.0]))[0] == 0.0
    assert sup_norm(linear_path([0.0], [1.0]))[0] == 1.0
    assert n1(linear_path([0.0, 1.0], [2.0, 3.0]))[0] == pytest.approx(1.0)


def test_fast_path():
    one = fast_path([0.0], [1.0], [1])
    assert one.counts[0] == 1 and sup_norm(one)[0] == 1.0
    costs = [cost_plain(fast_path([0.0], [1.0], [n]), SQRT)[0]
             for n in range(1, 20)]
    assert costs[3] == pytest.approx(0.5)
    assert all(a > b for a, b in zip(costs, costs[1:]))
    assert np.allclose(costs, [n ** -0.5 for n in range(1, 20)])


def test_detour_geometry():
    d = detour_path([0.0, 0.0], [2.0, 0.0])
    assert sup_norm(d)[0] == pytest.approx(4.0)    # constant speed 2C = 4
    assert n2(d)[0] == pytest.approx(1.0)
    assert d.durations[0, 0] == 0.5
    apex = d.starts[0] + 0.5 * d.velocities[0, 0]
    assert apex[0] == pytest.approx(1.0)
    assert abs(apex[1]) == pytest.approx(math.sqrt(3.0))
    assert np.allclose(d.ends[0], [2.0, 0.0])
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
    p = stop_and_go([[0.0]], [[1.0]], [IntervalSet(((0.0, 0.5),))])
    s = stretch(p, 2.0)
    assert s.horizons[0] == 2.0
    assert sup_norm(s)[0] == pytest.approx(1.0)
    assert cost_plain(s, SQRT)[0] == pytest.approx(cost_li(p, SQRT, 1)[0])
    # the n-functional over the stretched horizon matches the original
    assert n1(s)[0] == pytest.approx(n1(p)[0])
    with pytest.raises(BadHorizon):
        stretch(p, 0.5)


def test_points_and_invariants():
    p = path1d([0.25, 0.75], [4.0, 0.0])
    # at t = 0.25 the first piece ends; the second rests until t = 1
    assert (p.starts[0] + p.durations[0, 0] * p.velocities[0, 0])[0] == \
        pytest.approx(1.0)
    assert p.ends[0, 0] == pytest.approx(1.0)
    assert l1_norm(p)[0] >= abs(p.displacements[0, 0]) - 1e-12


def test_interval_set_validation():
    s = IntervalSet(((0.1, 0.3), (0.5, 0.9)))
    assert s.measure == pytest.approx(0.6)
    with pytest.raises(ValueError):
        IntervalSet(((0.5, 0.4),))
    with pytest.raises(ValueError):
        IntervalSet(((0.1, 0.6), (0.5, 0.9)))


def test_json_roundtrip():
    p = path1d([0.5, 0.5], [3.0, -1.0], start=0.25)
    q = PathBlock.from_json(p.to_json())
    assert np.array_equal(p.durations, q.durations)
    assert np.array_equal(p.velocities, q.velocities)
    assert np.array_equal(p.starts, q.starts)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_json_round_trip_of_ragged_rows_keeps_the_bits(dim):
    """Rows of 1-7 pieces read back from JSON, each field as one array,
    into the block the rows build as Python data."""
    block, _ = _ragged(np.random.default_rng(40 + dim), 9, dim)
    back = PathBlock.from_json(block.to_json())
    for name in ("starts", "horizons", "durations", "velocities", "counts"):
        a, b = getattr(block, name), getattr(back, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_length_is_never_below_the_largest_coordinate():
    """What lets the random-path draws skip measuring a long displacement."""
    rng = np.random.default_rng(4)
    for scale in (1e-300, 1e-3, 1.0, 1e200):
        v = scale * rng.normal(size=(2000, 3))
        assert np.all(lengths(v) >= np.abs(v).max(axis=1))


def _ragged(rng, k, dim, scales=None, wide=None):
    """k random unit-horizon rows of 1-7 pieces as (block, paths alone);
    with ``wide``, rows of 4-7 pieces and row 1 of ``wide`` pieces."""
    rows = []
    for r in range(k):
        n = int(rng.integers(1 if wide is None else 4, 8))
        n = wide if wide and r == 1 else n
        scale = 1.0 if scales is None else scales[r % len(scales)]
        rows.append((rng.uniform(-1.0, 1.0, dim), 1.0,
                     rng.dirichlet(np.ones(n)),
                     scale * rng.normal(0.0, 2.0, size=(n, dim))))
    return block_of(*zip(*rows)), [SteppedPath(*row) for row in rows]


def _row_values(b, cost):
    return {"n1": n1(b), "n2": n2(b),
            "plain": cost_plain(b, cost), "li1": cost_li(b, cost, 1),
            "li2": cost_li(b, cost, 2)}


def _dot(a, b):
    """Sum of a[i] * b[i], added first to last on Python floats."""
    total = 0.0
    for term in (np.asarray(a) * b).tolist():
        total += term
    return total


def _reference(p, cost):
    """The functionals of a one-row block as loops over its 1-D arrays, the
    plain norm standing in for the scaled one (the same bits at these
    scales)."""
    durations, horizon = p.durations[0], p.horizons[0]
    speeds = np.linalg.norm(p.velocities[0], axis=1)
    length, top = _dot(durations, speeds), speeds.max()
    disp = np.linalg.norm([_dot(durations, v) for v in p.velocities[0].T],
                          axis=-1)
    ref = {"n1": 1.0 if disp <= len(speeds) * 2.0 ** -53 * length
           else horizon * top / disp,
           "n2": 1.0 if length == 0.0 else horizon * top / length,
           "plain": _dot(durations, cost.eval(speeds))}
    for i in (1, 2):
        ni = ref[f"n{i}"]
        ref[f"li{i}"] = ni * _dot(durations, cost.eval(speeds / ni))
    return speeds, ref


@pytest.mark.parametrize("seed", range(30))
def test_block_rows_equal_the_paths_alone(seed):
    """Each row of a ragged block, 1-7 pieces in dims 1-3, evaluates bit
    for bit as its path alone and as the 1-D reference loop."""
    rng = np.random.default_rng(seed)
    cost = (SQRT, REMARK, builtin("affine_exp", [0.25]))[seed % 3]
    block, paths = _ragged(rng, int(rng.integers(1, 9)), 1 + seed % 3)
    rows = _row_values(block, cost)
    big_t = 1.0 + rng.uniform(0.0, 5.0, size=len(paths))
    back = compress(stretch(block, big_t))
    for r, p in enumerate(paths):
        k = p.counts[0]
        speeds, ref = _reference(p, cost)
        assert np.array_equal(block.speeds[r, :k], p.speeds[0])
        assert np.array_equal(p.speeds[0], speeds)
        alone = _row_values(p, cost)
        for name, value in rows.items():
            assert value[r] == alone[name][0] == ref[name], (name, r)
        q = compress(stretch(p, float(big_t[r])))
        assert np.array_equal(back.durations[r, :k], q.durations[0])
        assert np.array_equal(back.velocities[r, :k], q.velocities[0])
        assert np.array_equal(block.ends[r], p.ends[0])


@pytest.mark.parametrize("wide", [8, 15, 16, 40])
def test_wide_block_rows_against_the_paths_alone(wide):
    """A row of 8-40 pieces leaves the rows beside it, and itself, bit for
    bit as they are alone, ends included: every sum over pieces runs first
    to last, so padding adds exact zeros at any width."""
    rng = np.random.default_rng(wide)
    for _ in range(20):
        block, paths = _ragged(rng, 5, int(rng.integers(1, 4)), wide=wide)
        rows = _row_values(block, SQRT)
        for r, p in enumerate(paths):
            alone = _row_values(p, SQRT)
            for name, value in rows.items():
                assert value[r] == alone[name][0], (name, r)
            assert np.array_equal(block.ends[r], p.ends[0]), r


def test_block_rows_keep_their_own_scale():
    """Rows at 1e-300 and 1e200 in one block get the speeds they have
    alone, each within rounding of its scale times the unit speeds."""
    rng = np.random.default_rng(12)
    scales = (1e-300, 1e200, 1.0)
    block, paths = _ragged(rng, 6, 2, scales)
    for r, p in enumerate(paths):
        k = p.counts[0]
        assert np.array_equal(block.speeds[r, :k], p.speeds[0])
        unit = np.linalg.norm(p.velocities[0] / scales[r % 3], axis=1)
        assert np.allclose(block.speeds[r, :k], scales[r % 3] * unit,
                           rtol=1e-15, atol=0.0)
        assert n1(block)[r] == n1(p)[0] and n2(block)[r] == n2(p)[0]


def test_padding_contributes_exactly_zero():
    """Extra zero pieces change no row's value, and read as speed 0."""
    rng = np.random.default_rng(5)
    block, _ = _ragged(rng, 4, 2)
    extra = 3
    wide = PathBlock(block.starts, block.horizons,
                     np.pad(block.durations, ((0, 0), (0, extra))),
                     np.pad(block.velocities, ((0, 0), (0, extra), (0, 0))))
    pad = np.arange(wide.durations.shape[1]) >= wide.counts[:, None]
    assert np.all(wide.speeds[pad] == 0.0)
    for cost in (SQRT, REMARK):
        narrow, padded = _row_values(block, cost), _row_values(wide, cost)
        for name in narrow:
            assert np.array_equal(narrow[name], padded[name]), name
    assert np.array_equal(wide.displacements, block.displacements)


def test_block_refuses_what_a_path_refuses():
    ok = dict(starts=np.zeros((1, 1)), horizons=[1.0],
              durations=[[0.5, 0.5, 0.0]], velocities=[[[1.0], [2.0], [0.0]]])
    PathBlock(**ok)
    for change, error in (({"durations": [[0.5, 0.5, 0.1]]}, BadHorizon),
                          ({"durations": [[0.5, 0.0, 0.5]]}, ValueError),
                          ({"velocities": [[[1.0], [2.0], [3.0]]]},
                           ValueError),
                          ({"velocities": [[[1.0], [np.inf], [0.0]]]},
                           ValueError),
                          ({"horizons": [np.nan]}, BadHorizon),
                          ({"horizons": [0.0], "durations": np.zeros((1, 0)),
                            "velocities": np.zeros((1, 0, 1))},
                           ValueError),
                          ({"starts": np.zeros((1, 2))}, DimensionMismatch)):
        with pytest.raises(error):
            PathBlock(**{**ok, **change})


def test_counts_are_each_rows_count_of_positive_durations():
    """counts is derived, never given: each row's count of pieces, for
    blocks from block_of, SteppedPath, stop_and_go, stretch, compress and
    from_json.  A zero duration between positive ones, or among the pieces
    a row is given, which would read as padding, is refused."""
    block, alone = _ragged(np.random.default_rng(8), 6, 2)
    pieces = [len(p.durations[0]) for p in alone]
    assert [p.counts[0] for p in alone] == pieces
    for b in (block, stretch(block, 2.0), compress(stretch(block, 2.0)),
              PathBlock.from_json(block.to_json())):
        assert b.counts.tolist() == pieces
    made = stop_and_go(np.zeros((3, 1)), [[1.0], [0.0], [1.0]],
                       [IntervalSet(((0.1, 0.3), (0.6, 0.7)))] * 2
                       + [IntervalSet(((0.2, 1.0),))])
    assert made.counts.tolist() == [5, 1, 2]
    with pytest.raises(TypeError):
        PathBlock(block.starts, block.horizons, block.durations,
                  block.velocities, block.counts)
    message = "^durations must be positive, and zero on padding$"
    with pytest.raises(ValueError, match=message):
        PathBlock(np.zeros((1, 1)), [1.0], [[0.5, 0.0, 0.5]],
                  np.ones((1, 3, 1)))
    for v in (0.0, 1.0):
        with pytest.raises(ValueError, match=message):
            PathBlock.from_json([{"start": [0.0], "pieces": [
                {"dt": 1.0, "v": [0.5]}, {"dt": 0.0, "v": [v]}]}])
        with pytest.raises(ValueError, match=message):
            block_of([[0.0]], [1.0], [[1.0, 0.0]], [[[0.5], [v]]])


@pytest.mark.parametrize("change, lengths", [
    ({"horizons": [1.0]}, "2 starts, 1 horizons, 2 rows of pieces$"),
    ({"starts": np.zeros((1, 2))}, "1 starts, 2 horizons, 2 rows of pieces$")])
def test_block_refuses_rows_of_unequal_length(change, lengths):
    """If let through, a short horizons would skip a row's horizon check,
    and a (1, dim) starts would broadcast into every row's end."""
    ok = dict(starts=np.zeros((2, 2)), horizons=[1.0, 1.0],
              durations=np.ones((2, 1)), velocities=np.ones((2, 1, 2)))
    PathBlock(**ok)
    with pytest.raises(DimensionMismatch, match=lengths):
        PathBlock(**{**ok, **change})


def test_block_names_the_first_row_whose_durations_miss_its_horizon():
    ok = dict(starts=np.zeros((4, 1)), horizons=[1.0, 1.0, 2.0, 1.0],
              durations=[[0.5, 0.5], [1.0, 0.0], [1.0, 1.0], [1.0, 0.0]],
              velocities=np.ones((4, 2, 1)))
    ok["velocities"][[1, 3], 1] = 0.0
    PathBlock(**ok)
    bad = {**ok, "durations": [[0.5, 0.5], [0.75, 0.0], [1.0, 1.0],
                               [0.5, 0.0]]}
    with pytest.raises(BadHorizon, match=r"^durations sum to 0\.75, "
                                         r"horizon 1\.0$"):
        PathBlock(**bad)
    for change, message in (
            ({"horizons": [1.0, np.inf, 2.0, 1.0]}, "1.0, horizon inf"),
            ({"horizons": [1.0, -np.inf, 2.0, 1.0]}, "1.0, horizon -inf"),
            ({"durations": [[0.5, 0.5], [np.inf, 0.0], [1.0, 1.0],
                            [1.0, 0.0]]}, "inf, horizon 1.0"),
            ({"durations": [[0.5, 0.5], [np.nan, 0.0], [1.0, 1.0],
                            [1.0, 0.0]]}, "nan, horizon 1.0")):
        with pytest.raises(BadHorizon, match=f"durations sum to {message}"):
            PathBlock(**{**ok, **change})
