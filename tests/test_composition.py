"""Tests for footprint composition and the Natural Cache Partition (§IV, §V-A)."""

import numpy as np
import pytest

from repro.composition.corun import (
    group_miss_counts,
    natural_partition,
    predict_corun,
    solve_fill_window,
)
from repro.composition.stretch import ComposedFootprint, compose_footprints
from repro.locality.footprint import average_footprint
from repro.workloads import cyclic, sawtooth, uniform_random, zipf


def _fps(*traces):
    return [average_footprint(t) for t in traces]


def test_compose_ratios_from_rates():
    fps = _fps(
        cyclic(200, 10).with_rate(3.0),
        cyclic(200, 10).with_rate(1.0),
    )
    comp = compose_footprints(fps)
    assert np.allclose(comp.ratios, [0.75, 0.25])


def test_composed_is_sum_of_stretched():
    fps = _fps(cyclic(300, 15), uniform_random(300, 20, seed=0))
    comp = compose_footprints(fps)
    for w in (0.0, 10.0, 55.5, 200.0):
        expect = sum(float(fp(w * r)) for fp, r in zip(fps, comp.ratios))
        assert comp(w) == pytest.approx(expect)


def test_composed_saturates_at_total_data():
    fps = _fps(cyclic(300, 15), cyclic(300, 25))
    comp = compose_footprints(fps)
    assert comp.total_data == 40
    assert comp(comp.max_window) == pytest.approx(40, abs=0.5)


def test_components_sum_to_composed():
    fps = _fps(cyclic(400, 30), sawtooth(400, 20), zipf(400, 25, seed=1))
    comp = compose_footprints(fps)
    for w in (5.0, 50.0, 350.0):
        assert comp.components(w).sum() == pytest.approx(float(comp(w)))


def test_fill_window_hits_target():
    fps = _fps(cyclic(600, 30), uniform_random(600, 40, seed=2))
    comp = compose_footprints(fps)
    for c in (5, 20, 45, 60):
        w = solve_fill_window(comp, c)
        assert comp(w) == pytest.approx(c, abs=1e-4)


def test_fill_window_saturated_cache():
    fps = _fps(cyclic(200, 10), cyclic(200, 12))
    comp = compose_footprints(fps)
    w = solve_fill_window(comp, 100)  # cache exceeds 22 total blocks
    assert comp(w) == pytest.approx(22, abs=0.5)


def test_natural_partition_sums_to_cache():
    fps = _fps(
        cyclic(2000, 100).with_rate(2.0),
        uniform_random(2000, 150, seed=3),
        zipf(2000, 80, alpha=1.0, seed=4),
    )
    for C in (50, 120, 200):
        occ = natural_partition(fps, C)
        assert occ.sum() == pytest.approx(C, rel=1e-3)
        assert np.all(occ >= 0)


def test_equal_programs_get_equal_shares():
    a = cyclic(1000, 60, name="a")
    b = cyclic(1000, 60, name="b")
    occ = natural_partition(_fps(a, b), 50)
    assert occ[0] == pytest.approx(occ[1], rel=1e-6)


def test_faster_program_gets_more_cache():
    """Higher access rate stretches the footprint less -> larger occupancy."""
    a = uniform_random(4000, 100, seed=5).with_rate(3.0)
    b = uniform_random(4000, 100, seed=6).with_rate(1.0)
    occ = natural_partition(_fps(a, b), 80)
    assert occ[0] > occ[1]


def test_predict_corun_structure():
    fps = _fps(cyclic(500, 40, name="x"), zipf(500, 30, seed=7, name="y"))
    pred = predict_corun(fps, 32)
    assert pred.names == ("x", "y")
    assert pred.occupancies.shape == (2,)
    assert np.all((pred.miss_ratios >= 0) & (pred.miss_ratios <= 1))
    assert 0 <= pred.group_miss_ratio <= 1
    with pytest.raises(ValueError):
        predict_corun(fps, 0)


def test_corun_prediction_group_weighting():
    fps = _fps(cyclic(900, 50), cyclic(300, 50))
    pred = predict_corun(fps, 40)
    expect = float(np.dot(pred.miss_ratios, [900, 300]) / 1200)
    assert pred.group_miss_ratio == pytest.approx(expect)


def _knot_oracle(comp, cache_size):
    """Root of ``fp(w) = C`` over the dense union of the composed knots.

    Every stretched knot ``v / r_i``, the first knot reaching ``C``, and
    the closed form on the linear piece between it and its predecessor.
    """
    knots = [np.arange(fp.n + 1, dtype=np.float64) / r
             for fp, r in zip(comp.footprints, comp.ratios)]
    grid = np.unique(np.concatenate(knots))
    f = comp(grid)
    i = int(np.argmax(f >= cache_size))
    assert i > 0 and f[i] >= cache_size
    w_a, w_b, f_a, f_b = grid[i - 1], grid[i], f[i - 1], f[i]
    return w_a + (cache_size - f_a) * (w_b - w_a) / (f_b - f_a)


@pytest.mark.parametrize(
    "traces, sizes",
    [
        # 120,000 accesses per program: far past the 4096 knots per
        # program a precomputed knot grid could afford
        (
            lambda: [uniform_random(120_000, 3000, seed=2), cyclic(120_000, 2500)],
            (500.0, 1500.0, 3000.0, 4000.0),
        ),
        (
            lambda: [
                uniform_random(3000, 200, seed=8),
                zipf(3000, 150, alpha=1.2, seed=9),
                sawtooth(3000, 120).with_rate(2.0),
            ],
            (1.0, 10.0, 100.0, 250.0, 400.0),
        ),
    ],
    ids=["120k-accesses", "3k-accesses"],
)
def test_fill_window_matches_union_of_knots_oracle(traces, sizes):
    comp = compose_footprints(_fps(*traces()))
    for c in sizes:
        w = solve_fill_window(comp, c)
        assert abs(w - _knot_oracle(comp, c)) <= 1e-12 * w, c
    # a zero-size and a saturated query, then the array call: the same
    # bytes as the scalar calls, element by element
    assert solve_fill_window(comp, 0.0) == 0.0
    assert solve_fill_window(comp, comp.total_data + 1.0) == comp.max_window
    queries = np.array([0.0, *sizes, comp.total_data + 1.0])
    batch = solve_fill_window(comp, queries)
    scalar = np.array([solve_fill_window(comp, float(c)) for c in queries])
    assert batch.tobytes() == scalar.tobytes()


def test_solver_group_miss_counts_monotone():
    fps = _fps(uniform_random(2000, 120, seed=10), cyclic(2000, 80))
    sizes = np.arange(0, 257, 16, dtype=np.float64)
    counts = group_miss_counts(fps, sizes)
    assert counts[0] == pytest.approx(4000)  # no cache: everything misses
    assert np.all(np.diff(counts) <= 1e-6)  # more cache never hurts a group


def test_compose_validates_input():
    with pytest.raises(ValueError):
        compose_footprints([])
    fps = _fps(cyclic(50, 5))
    with pytest.raises(ValueError):
        ComposedFootprint(tuple(fps), np.array([0.4, 0.6]))
    with pytest.raises(ValueError):
        ComposedFootprint(tuple(fps), np.array([0.7]))
