"""Tests for MissRatioCurve: construction paths, resampling, convexity."""

import numpy as np
import pytest

from repro.cachesim.stack import COLD, stack_distances
from repro.locality.footprint import average_footprint
from repro.locality.mrc import MissRatioCurve, mrc_from_trace
from repro.workloads import cyclic, sawtooth, uniform_random, zipf


def test_validation():
    with pytest.raises(ValueError):
        MissRatioCurve(np.array([0.5]), n_accesses=10)  # too short
    with pytest.raises(ValueError):
        MissRatioCurve(np.array([0.5, 1.5]), n_accesses=10)  # out of range
    with pytest.raises(ValueError):
        MissRatioCurve(np.array([0.5, 0.4]), n_accesses=0)  # bad n
    for bad in (np.nan, np.inf, -np.inf):  # NaN fails every comparison
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MissRatioCurve(np.array([1.0, bad, 0.2]), n_accesses=10)


def test_capacity_and_at():
    m = MissRatioCurve(np.array([1.0, 0.5, 0.0]), n_accesses=100)
    assert m.capacity == 2
    assert m.at(0.5) == pytest.approx(0.75)
    assert m.at(np.array([0, 1, 2])).tolist() == [1.0, 0.5, 0.0]


def test_miss_counts():
    m = MissRatioCurve(np.array([1.0, 0.25]), n_accesses=400)
    assert m.miss_counts().tolist() == [400.0, 100.0]


def test_resample():
    ratios = np.linspace(1, 0, 17)
    m = MissRatioCurve(ratios, n_accesses=10)
    r = m.resample(4)
    assert r.capacity == 4
    assert np.allclose(r.ratios, ratios[[0, 4, 8, 12, 16]])
    with pytest.raises(ValueError):
        m.resample(4, n_units=5)  # grid exceeds capacity
    with pytest.raises(ValueError):
        m.resample(0)


def test_convexity_detection():
    convex = MissRatioCurve(np.array([1.0, 0.5, 0.25, 0.12, 0.06]), n_accesses=10)
    assert convex.is_convex()
    assert convex.convexity_violations() == 0
    cliff = MissRatioCurve(np.array([1.0, 1.0, 1.0, 0.0, 0.0]), n_accesses=10)
    assert not cliff.is_convex()
    assert cliff.convexity_violations() >= 1


def test_monotone_envelope():
    bumpy = MissRatioCurve(np.array([1.0, 0.4, 0.6, 0.2]), n_accesses=10)
    env = bumpy.monotone_envelope()
    assert np.all(np.diff(env.ratios) <= 0)
    assert np.all(env.ratios <= bumpy.ratios)


def test_from_footprint_matches_exact_lru():
    """HOTL curve vs exact stack-distance curve on random traffic."""
    tr = uniform_random(30000, 64, seed=7)
    hotl = mrc_from_trace(tr, 80)
    dist = stack_distances(tr)
    reuse = dist[dist != COLD]
    exact = MissRatioCurve.from_stack_distances(
        reuse, capacity=80, n_accesses=len(tr), data_size=tr.data_size
    )
    err = np.abs(hotl.ratios - exact.ratios)
    assert err.max() < 0.06, f"max HOTL-vs-LRU error {err.max():.3f}"


def test_from_footprint_cyclic_exact():
    tr = cyclic(4000, 32)
    hotl = mrc_from_trace(tr, 64)
    assert hotl.ratios[16] == pytest.approx(1.0, abs=0.05)
    assert hotl.ratios[32] == 0.0
    assert hotl.data_size == 32


def test_from_stack_distances_cliff():
    # distances all exactly 10: hit iff c >= 10
    d = np.full(90, 10)
    m = MissRatioCurve.from_stack_distances(d, capacity=20, n_accesses=100)
    assert m.ratios[9] == pytest.approx(0.9)
    assert m.ratios[10] == 0.0


def test_from_stack_distances_include_cold():
    d = np.full(90, 5)
    m = MissRatioCurve.from_stack_distances(
        d, capacity=10, n_accesses=100, include_cold=True, data_size=10
    )
    assert m.ratios[10] == pytest.approx(0.1)  # only the 10 cold misses remain


def test_metadata_flows_through():
    tr = sawtooth(1000, 20, name="saw", access_rate=1.5)
    m = mrc_from_trace(tr, 30)
    assert m.name == "saw"
    assert m.access_rate == 1.5
    assert m.n_accesses == 1000
    assert m.data_size == 20


def test_hotl_mrc_nonincreasing_for_concave_fp():
    """Where the measured footprint is concave, the HOTL MRC is non-increasing."""
    tr = zipf(20000, 100, alpha=0.8, seed=9)
    fp = average_footprint(tr)
    if np.all(np.diff(fp.values, 2) <= 1e-9):
        m = MissRatioCurve.from_footprint(fp, 120)
        assert np.all(np.diff(m.ratios) <= 1e-9)
