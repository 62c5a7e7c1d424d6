"""The seeded draws: every cheaper generator call takes numpy's stream bit
for bit, checked value for value and state for state against the
per-call references in tests/oracles.py."""

import numpy as np
import pytest

from lagot import harness
from lagot.harness import (_rand_bounded_ensembles, _rand_bounded_triple,
                           _rand_rows)
from lagot.measures import flat_dirichlet, random_measure
from lagot.paths import random_interval_set
from oracles import (rand_bounded_ensembles_per_call,
                     rand_bounded_triple_per_call, rand_rows_per_call,
                     random_interval_set_per_call, random_measure_per_call)


def _pair(seed: int) -> tuple:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _same_state(a, b) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def test_flat_dirichlet_is_numpys_dirichlet_of_ones():
    for seed in range(300):
        new, ref = _pair(seed)
        for k in range(1, 9):
            assert _same(flat_dirichlet(new, k), ref.dirichlet(np.ones(k)))
            assert _same_state(new, ref)


def test_random_measure_draws_the_reference_stream():
    for seed in range(60):
        new, ref = _pair(seed)
        for n_atoms in range(1, 7):
            for dim in (1, 2, 3):
                a = random_measure(new, n_atoms, dim, 2.0)
                b = random_measure_per_call(ref, n_atoms, dim, 2.0)
                assert _same(a.points, b.points)
                assert _same(a.weights, b.weights)
        assert _same_state(new, ref)


@pytest.fixture
def measured(monkeypatch):
    """The displacements that _rand_rows hands to the length kernel."""
    got = []
    lengths = harness.lengths

    def spy(disp):
        got.append(disp)
        return lengths(disp)

    monkeypatch.setattr(harness, "lengths", spy)
    return got


def _rows_match(new, ref, dim: int, n: int, extra: bool) -> None:
    (rows, drawn), (ref_rows, ref_drawn) = (
        _rand_rows(new, dim, n, extra), rand_rows_per_call(ref, dim, n, extra))
    assert len(rows) == len(ref_rows) == n
    for (s, h, d, v), (rs, rh, rd, rv) in zip(rows, ref_rows):
        assert _same(s, rs) and _same(d, rd) and _same(v, rv) and h == rh
    assert drawn == ref_drawn and len(drawn) == (n if extra else 0)
    assert all(type(u) is float for u in drawn)
    assert _same_state(new, ref)


@pytest.mark.parametrize("extra", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rand_rows_draws_the_reference_stream(dim, extra, measured):
    for seed in range(60):
        _rows_match(*_pair(seed), dim, 5, extra)
    # the kernel measures only a displacement short in every coordinate
    assert all(np.abs(disp).max() < 1e-3 for disp in measured)


@pytest.mark.parametrize("extra", [False, True])
def test_rand_rows_rejects_a_short_row_as_the_reference_does(extra,
                                                             measured):
    """Seed 33 in dim 1 draws a row whose displacement is below 1e-3
    among its first 100; that row is measured, rejected and drawn again."""
    _rows_match(*_pair(33), 1, 100, extra)
    assert len(measured) == 1 and abs(float(measured[0][0])) < 1e-3


def test_rand_bounded_triple_draws_the_reference_stream():
    for seed in range(40):
        new, ref = _pair(seed)
        for n_atoms in range(1, 6):
            for dim in (1, 2, 3):
                a = _rand_bounded_triple(new, n_atoms, dim)
                b = rand_bounded_triple_per_call(ref, n_atoms, dim)
                for m, rm in ((a.coupling.source, b.coupling.source),
                              (a.coupling.target, b.coupling.target)):
                    assert _same(m.points, rm.points)
                    assert _same(m.weights, rm.weights)
                assert _same(a.coupling.plan, b.coupling.plan)
                assert _same(a.bounds, b.bounds)
                assert not a.bounds.flags.writeable
        assert _same_state(new, ref)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rand_bounded_ensembles_draw_the_reference_stream(dim):
    for seed in range(20):
        new = [np.random.default_rng([seed, g]) for g in range(2)]
        ref = [np.random.default_rng([seed, g]) for g in range(2)]
        a = _rand_bounded_ensembles(new, dim, 4)
        b = rand_bounded_ensembles_per_call(ref, dim, 4)
        for name in ("starts", "horizons", "durations", "velocities",
                     "counts"):
            assert _same(getattr(a.paths, name), getattr(b.paths, name))
        assert _same(a.weights, b.weights) and _same(a.bounds, b.bounds)
        assert list(a.cuts) == list(b.cuts)
        assert all(_same_state(x, y) for x, y in zip(new, ref))


def test_random_interval_set_draws_the_reference_stream():
    for seed in range(300):
        new, ref = _pair(seed)
        for _ in range(5):
            a, b = random_interval_set(new), random_interval_set_per_call(ref)
            assert a.intervals == b.intervals
        assert _same_state(new, ref)
