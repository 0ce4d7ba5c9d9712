"""Edge cases of the co-run prediction and the min-plus kernel internals."""

import numpy as np
import pytest

from repro.composition.corun import group_miss_counts, predict_corun
from repro.core.kernels import convolve
from repro.locality.footprint import average_footprint
from repro.workloads import cyclic, uniform_random


def test_solver_single_program():
    fps = [average_footprint(cyclic(2000, 60, name="solo"))]
    pred = predict_corun(fps, 40)
    assert pred.occupancies[0] == pytest.approx(40, abs=0.5)
    assert pred.miss_ratios[0] == pytest.approx(1.0, abs=0.05)  # loop > cache
    full = predict_corun(fps, 80)
    assert full.occupancies[0] == pytest.approx(60, abs=0.5)  # saturated
    assert full.miss_ratios[0] == 0.0


def test_solver_zero_and_tiny_cache():
    fps = [
        average_footprint(uniform_random(2000, 50, seed=1)),
        average_footprint(cyclic(2000, 30)),
    ]
    counts = group_miss_counts(fps, np.array([0.0, 1.0, 64.0]))
    assert counts[0] == pytest.approx(4000)  # no cache: everything misses
    assert counts[1] <= counts[0]
    assert counts[2] <= counts[1]
    with pytest.raises(ValueError):
        predict_corun(fps, 0)


def test_minplus_chunk_boundaries():
    """Sizes straddling the tiled kernel's tile boundaries."""
    rng = np.random.default_rng(0)
    for n in (1, 2, 1023, 1024, 1025):
        a, b = rng.random(n), rng.random(n)
        out, split = convolve(a, b)
        # spot-check a few cells against the definition
        for k in {0, n // 2, n - 1}:
            row = a[: k + 1] + b[k::-1]
            assert out[k] == pytest.approx(row.min())
            assert split[k] == int(np.argmin(row))


def test_minplus_single_cell():
    out, split = convolve(np.array([3.0]), np.array([4.0]))
    assert out.tolist() == [7.0] and split.tolist() == [0]
