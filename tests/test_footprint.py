"""Tests for the linear-time average footprint (Eq. 5) and its inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locality.footprint import (
    average_footprint,
    footprint_from_gaps,
    windowed_wss,
    wss_curve_direct,
)
from repro.workloads import cyclic, sawtooth, uniform_random, zipf
from repro.workloads.trace import Trace

traces = st.lists(st.integers(0, 7), min_size=1, max_size=50).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


def naive_wss(blocks: np.ndarray, w: int) -> np.ndarray:
    n = blocks.size
    return np.array(
        [np.unique(blocks[s : s + w]).size for s in range(n - w + 1)], dtype=np.int64
    )


@given(traces, st.integers(1, 50))
@settings(max_examples=200)
def test_windowed_wss_matches_naive(blocks, w):
    if w > blocks.size:
        w = blocks.size
    assert np.array_equal(windowed_wss(blocks, w), naive_wss(blocks, w))


@given(traces)
@settings(max_examples=150)
def test_footprint_matches_direct_average(blocks):
    fast = average_footprint(blocks).values
    ref = wss_curve_direct(blocks)
    assert np.allclose(fast, ref, atol=1e-9)


@given(traces)
@settings(max_examples=150)
def test_footprint_invariants(blocks):
    fp = average_footprint(blocks)
    vals = fp.values
    n, m = fp.n, fp.m
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(1.0)
    assert vals[-1] == pytest.approx(m)
    assert np.all(np.diff(vals) >= -1e-12), "fp must be non-decreasing"
    w = np.arange(n + 1)
    assert np.all(vals <= np.minimum(w, m) + 1e-9), "fp(w) <= min(w, m)"


def test_footprint_known_small_case():
    # trace "aba": fp(1)=1, fp(2)=2, fp(3)=2
    fp = average_footprint(np.array([0, 1, 0]))
    assert np.allclose(fp.values, [0.0, 1.0, 2.0, 2.0])


def test_footprint_cyclic_linear_then_flat():
    """Cyclic sweep: fp(w) = w up to m, then exactly m (steady state)."""
    m = 16
    fp = average_footprint(cyclic(640, m))
    w = np.arange(fp.n + 1)
    expect = np.minimum(w, m)
    # windows overlapping the trace tail are slightly smaller on average;
    # with n >> m the deviation is tiny
    assert np.allclose(fp.values, expect, atol=0.3)


def test_call_interpolates_and_clamps():
    fp = average_footprint(cyclic(100, 10))
    assert fp(0) == 0.0
    assert fp(0.5) == pytest.approx(0.5)
    assert fp(1e9) == pytest.approx(fp.m)  # clamped past n
    arr = fp(np.array([1.0, 2.5, 3.0]))
    assert arr.shape == (3,)


def test_inverse_roundtrip():
    fp = average_footprint(sawtooth(500, 40))
    for target in (0.5, 1.0, 7.3, 25.0, 39.9):
        w = fp.inverse(target)
        assert fp(w) == pytest.approx(target, abs=1e-6)


def test_inverse_saturation_and_zero():
    fp = average_footprint(cyclic(200, 10))
    assert fp.inverse(0.0) == 0.0
    assert fp.inverse(10.0) <= fp.n
    assert fp.inverse(1e9) == pytest.approx(fp.n)  # beyond m -> full trace


def test_inverse_vectorized():
    fp = average_footprint(uniform_random(300, 25, seed=0))
    targets = np.array([0.0, 1.0, 5.5, 20.0])
    ws = fp.inverse(targets)
    assert ws.shape == targets.shape
    assert np.all(np.diff(ws) >= 0), "inverse of a monotone curve is monotone"


def test_windowed_wss_validates_input():
    with pytest.raises(ValueError):
        windowed_wss(np.array([1, 2, 3]), 0)
    with pytest.raises(ValueError):
        windowed_wss(np.array([1, 2, 3]), 4)


def test_footprint_carries_trace_metadata():
    t = Trace(np.array([1, 2, 1]), name="prog", access_rate=2.5)
    fp = average_footprint(t)
    assert fp.name == "prog"
    assert fp.access_rate == 2.5


def test_empty_trace_footprint():
    fp = average_footprint(np.array([], dtype=np.int64))
    assert fp.n == 0 and fp.m == 0
    assert fp.values.size == 1


def test_footprint_zipf_nearly_concave():
    """Measured zipf footprints are near-concave (HOTL's working assumption).

    Sampling noise produces occasional tiny convex kinks, so the check is
    statistical: almost all second differences are non-positive and none
    is large.
    """
    fp = average_footprint(zipf(4000, 100, alpha=1.0, seed=5))
    coarse = fp.values[::32]  # unit-granularity view
    second = np.diff(coarse, 2)
    assert float(np.mean(second > 1e-6)) < 0.10
    assert second.max() < 0.5


# ------------------------------------------ footprint_from_gaps vs dense oracle
def dense_footprint_from_gaps(gap_hist, n, m, *, max_window=None):
    """The dense Eq. 5 kernel over every window ``1..n``: the byte oracle.

    Suffix sums run over the whole ``n + 1`` grid, empty bins included;
    :func:`footprint_from_gaps` must reproduce it bit for bit.
    """
    w_max = int(n if max_window is None else min(max_window, n))
    values = np.zeros(w_max + 1, dtype=np.float64)
    if n == 0 or w_max == 0:
        return values
    gap_hist = np.asarray(gap_hist, dtype=np.float64)
    max_gap = gap_hist.size - 1
    s1 = np.zeros(n + 2, dtype=np.float64)
    s2 = np.zeros(n + 2, dtype=np.float64)
    upto = min(max_gap, n)
    if upto >= 1:
        counts = np.zeros(n + 1, dtype=np.float64)
        weights = np.zeros(n + 1, dtype=np.float64)
        counts[1 : upto + 1] = gap_hist[1 : upto + 1]
        weights[1 : upto + 1] = gap_hist[1 : upto + 1] * np.arange(1, upto + 1)
        s1[:-1] = np.cumsum(counts[::-1])[::-1]
        s2[:-1] = np.cumsum(weights[::-1])[::-1]
    w = np.arange(1, w_max + 1, dtype=np.float64)
    avoiding = s2[1 : w_max + 1] - (w - 1.0) * s1[1 : w_max + 1]
    windows = n - w + 1.0
    values[1:] = m - avoiding / windows
    return values


# bins are empty, whole or fractional (a SHARDS histogram scaled by 1/rate)
gap_counts = st.one_of(
    st.just(0.0),
    st.integers(0, 40).map(float),
    st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
)


@given(
    st.lists(gap_counts, max_size=90).map(lambda xs: np.array(xs, dtype=np.float64)),
    st.integers(0, 60),
    st.one_of(st.integers(0, 80), st.floats(0.0, 1e4, allow_nan=False)),
    st.one_of(st.none(), st.integers(1, 100)),
)
@settings(max_examples=400)
def test_footprint_from_gaps_matches_dense_oracle(hist, n, m, max_window):
    """Byte equality over histograms shorter and longer than ``n``, and
    windows capped below and above the longest gap."""
    got = footprint_from_gaps(hist, n, m, max_window=max_window)
    want = dense_footprint_from_gaps(hist, n, m, max_window=max_window)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "hist,n,m,max_window",
    [
        (np.zeros(0), 10, 3.0, None),  # no bins at all
        (np.zeros(6), 10, 3.0, None),  # only empty bins
        (np.array([0.0, 2.0, 0.0, 1.5]), 0, 0.0, None),  # empty trace
        (np.array([0.0, 2.0, 0.0, 1.5]), 10, 2.5, 2),  # cap below the longest gap
        (np.array([0.0, 2.0, 0.0, 1.5]), 10, 2.5, 7),  # cap above it
        (np.array([4.0, 1.0, 0.0, 0.0, 0.0, 2.0, 3.0]), 4, 3.0, None),  # bins past n
    ],
)
def test_footprint_from_gaps_edge_cases(hist, n, m, max_window):
    got = footprint_from_gaps(hist, n, m, max_window=max_window)
    assert got.tobytes() == dense_footprint_from_gaps(hist, n, m, max_window=max_window).tobytes()
    assert got[0] == 0.0


@pytest.mark.parametrize("name", ["mcf", "povray", "lbm"])
def test_footprint_from_gaps_matches_oracle_on_suite_programs(name):
    from repro.locality.reuse import reuse_profile
    from repro.workloads.spec import make_suite

    (trace,) = make_suite(1024, names=(name,), length_scale=0.05)
    prof = reuse_profile(trace)
    got = footprint_from_gaps(prof.gap_hist, prof.n, prof.m)
    assert got.tobytes() == dense_footprint_from_gaps(prof.gap_hist, prof.n, prof.m).tobytes()
