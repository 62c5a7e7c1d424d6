import numpy as np
import pytest

from lagot.costs import builtin
from lagot.ensembles import arcs_longer_than, oracle_min_path
from lagot.errors import DimensionMismatch, EmptyMeasure, WeightSumMismatch
from lagot.measures import (DiscreteMeasure, make_coupling,
                            pairwise_distances, random_measure,
                            validate_measure)


def test_single_atom():
    m = validate_measure([((0.0,), 1.0)], 1)
    assert m.n_atoms == 1
    assert m.weights[0] == 1.0


def test_duplicates_merged():
    m = validate_measure([((0.0,), 0.5), ((0.0,), 0.5)], 1)
    assert m.n_atoms == 1
    assert m.weights[0] == 1.0


def test_weight_sum_mismatch():
    with pytest.raises(WeightSumMismatch):
        validate_measure([((0.0,), 0.5), ((1.0,), 0.49)], 1)


def test_empty_and_dim_mismatch():
    with pytest.raises(EmptyMeasure):
        validate_measure([], 1)
    with pytest.raises(DimensionMismatch):
        validate_measure([((0.0, 1.0), 1.0)], 1)


@pytest.mark.parametrize("atoms", [
    [((0.0,), 0.5), ((1.0,), float("nan"))],
    [((float("nan"),), 1.0)],
    [((0.0,), float("inf"))],
])
def test_non_finite_atoms_rejected(atoms):
    with pytest.raises(ValueError):
        validate_measure(atoms, 1)


def test_pairwise_distances_give_the_diameter():
    rng = np.random.default_rng(0)
    a, b = rng.uniform(-2, 2, size=(4, 2)), rng.uniform(-2, 2, size=(3, 2))
    d = pairwise_distances(a, b)
    assert d.shape == (4, 3)
    assert d[1, 2] == pytest.approx(np.hypot(*(a[1] - b[2])), rel=1e-15)
    m0 = validate_measure(zip(a, np.full(4, 0.25)), 2)
    m1 = validate_measure(zip(b, np.full(3, 1.0 / 3.0)), 2)
    assert m0.diameter_to(m1) == d.max()


@pytest.mark.parametrize("a, b", [
    ([[1e308]], [[-1e308]]),          # the difference overflows
    ([[1e200, 0.0]], [[0.0, 0.0]]),   # its square overflows
    ([[np.inf]], [[np.inf]]),         # inf - inf is NaN
])
def test_pairwise_distances_refuse_a_non_finite_distance(a, b):
    # a RuntimeWarning would fail the test: the kernel silences numpy's
    with pytest.raises(ValueError, match="not finite"):
        pairwise_distances(np.array(a), np.array(b))


def test_paired_distances_are_the_matrix_diagonal():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3, 9):
        a, b = rng.uniform(-2.0, 2.0, size=(2, 40, dim))
        assert np.array_equal(pairwise_distances(a, b, paired=True),
                              np.diagonal(pairwise_distances(a, b)))
    with pytest.raises(DimensionMismatch, match="3 points paired with 2"):
        pairwise_distances(a[:3], b[:2], paired=True)


def test_every_library_distance_is_the_kernel_s():
    """Couplings, the path oracle's |y - x| and the arc cap read the same
    bits as pairwise_distances, so a cap equal to a distance admits it."""
    linear = builtin("linear")
    rng = np.random.default_rng(2024)
    for x, y in rng.uniform(-2.0, 2.0, size=(2000, 2, 2)):
        d = pairwise_distances(x[None], y[None])[0, 0]
        m0 = validate_measure([(x, 1.0)], 2)
        m1 = validate_measure([(y, 1.0)], 2)
        assert make_coupling(m0, m1, [[1.0]]).distances[0, 0] == d
        assert oracle_min_path(x, y, linear, "plain", 1, (1.0,)) == d
        assert not arcs_longer_than(m0, m1, d)(0, 0)
        assert arcs_longer_than(m0, m1, np.nextafter(d, 0.0))(0, 0)


def test_validate_idempotent():
    m = validate_measure([((0.0, 1.0), 0.25), ((2.0, -1.0), 0.75)], 2)
    again = validate_measure(zip(m.points, m.weights), 2)
    assert np.array_equal(m.points, again.points)
    assert np.array_equal(m.weights, again.weights)


def test_bad_plan_rejected():
    m0 = validate_measure([((0.0,), 0.5), ((1.0,), 0.5)], 1)
    m1 = validate_measure([((2.0,), 1.0)], 1)
    with pytest.raises(WeightSumMismatch):
        make_coupling(m0, m1, [[0.4], [0.5]])
    # a NaN cell makes its row and column sums NaN, which must fail too
    for plan in ([[0.5], [np.nan]], [[5.0], [np.nan]]):
        with pytest.raises(WeightSumMismatch):
            make_coupling(m0, m1, plan)


def test_random_measure_deterministic():
    a = random_measure(7, 5, 3, 2.0)
    b = random_measure(7, 5, 3, 2.0)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weights, b.weights)


def test_random_measure_postconditions():
    m = random_measure(11, 5, 3, 2.0)
    assert m.n_atoms == 5
    assert np.all(np.abs(m.points) <= 2.0)
    assert abs(m.weights.sum() - 1.0) <= 1e-12
    single = random_measure(11, 1, 1, 1.0)
    assert single.weights[0] == 1.0


def test_json_roundtrip():
    m = random_measure(3, 4, 2, 1.5)
    again = DiscreteMeasure.from_json(m.to_json())
    assert np.array_equal(m.points, again.points)
    assert np.array_equal(m.weights, again.weights)


def _same_bits(got, want):
    assert got.dim == want.dim
    for a, b in ((got.points, want.points), (got.weights, want.weights)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_from_json_gives_the_bits_of_the_python_data(dim):
    """A measure file reads as the measure of its atoms given as Python
    data, bit for bit: a seeded round trip, and atoms 4 and 5 repeating
    atoms 0 and 1, merged into them in order."""
    rng = np.random.default_rng(dim)
    m = random_measure(rng, 7, dim, 1.5)
    _same_bits(DiscreteMeasure.from_json(m.to_json()), m)
    points = rng.uniform(-1.0, 1.0, size=(4, dim)).tolist()
    atoms = [(points[i % 4], w)
             for i, w in enumerate(rng.dirichlet(np.ones(6)).tolist())]
    got = DiscreteMeasure.from_json(
        {"dim": dim, "atoms": [{"x": x, "w": w} for x, w in atoms]})
    assert got.n_atoms == 4
    _same_bits(got, validate_measure(atoms, dim))


def test_from_json_takes_a_bare_number_as_a_point_in_dim_1():
    atoms = [(0.5, 0.25), (-1, 0.375), (0.5, 0.375)]
    got = DiscreteMeasure.from_json(
        {"dim": 1, "atoms": [{"x": x, "w": w} for x, w in atoms]})
    _same_bits(got, validate_measure(atoms, 1))
    assert got.points.tolist() == [[0.5], [-1.0]]
