import numpy as np
import pytest

from lagot.errors import DimensionMismatch, EmptyMeasure, WeightSumMismatch
from lagot.measures import (DiscreteMeasure, make_coupling, marginals,
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


def test_validate_idempotent():
    m = validate_measure([((0.0, 1.0), 0.25), ((2.0, -1.0), 0.75)], 2)
    again = validate_measure(zip(m.points, m.weights), 2)
    assert np.array_equal(m.points, again.points)
    assert np.array_equal(m.weights, again.weights)


def test_marginals_identity_plan():
    m = validate_measure([((0.0,), 0.5), ((1.0,), 0.5)], 1)
    c = make_coupling(m, m, np.diag([0.5, 0.5]))
    src, tgt = marginals(c)
    assert np.allclose(src.weights, [0.5, 0.5])
    assert np.allclose(tgt.points, m.points)


def test_marginals_split_and_product():
    m0 = validate_measure([((0.0,), 0.5), ((1.0,), 0.5)], 1)
    m1 = validate_measure([((2.0,), 1.0)], 1)
    src, tgt = marginals(make_coupling(m0, m1, [[0.5], [0.5]]))
    assert np.allclose(src.weights, m0.weights)
    assert tgt.n_atoms == 1 and tgt.weights[0] == pytest.approx(1.0)
    product = np.outer(m0.weights, m0.weights)
    src, tgt = marginals(make_coupling(m0, m0, product))
    assert np.allclose(src.weights, m0.weights, atol=1e-10)
    assert np.allclose(tgt.weights, m0.weights, atol=1e-10)


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
