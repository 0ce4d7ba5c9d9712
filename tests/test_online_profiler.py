"""Tests for the streaming SHARDS-sampled footprint/MRC profiler.

The two contracts under test, as documented in README.md §Online
operation:

* at ``sampling_rate=1.0`` the streaming snapshot is *identical* to the
  offline full-trace analysis, regardless of batching;
* at 10% (and even 1%) sampling the MRC estimate converges to the
  full-trace MRC within a mean-L1 tolerance of 0.03 (0.10).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locality.footprint import average_footprint, footprint_from_gaps
from repro.locality.mrc import MissRatioCurve
from repro.online import profiler as profiler_mod
from repro.online.profiler import StreamingProfiler
from repro.workloads.generators import cyclic, uniform_random, zipf

# documented convergence tolerances (mean |Δmr| over the size grid)
MRC_L1_TOL_10PCT = 0.03
MRC_L1_TOL_1PCT = 0.10


# ------------------------------------------------------- fold invariance
@st.composite
def chunked_streams(draw):
    """A block stream plus cut points (repeats give empty batches)."""
    blocks = np.array(draw(st.lists(st.integers(0, 30), max_size=160)), dtype=np.int64)
    cuts = sorted(draw(st.lists(st.integers(0, blocks.size), max_size=12)))
    snaps = draw(st.sets(st.integers(0, len(cuts))))
    return blocks, cuts, snaps


def _snapshot(prof: StreamingProfiler) -> tuple | None:
    fp, mrc = prof.footprint(), prof.mrc(40)
    if fp is None:
        assert mrc is None
        return None
    return fp.values.tobytes(), fp.n, fp.m, mrc.ratios.tobytes()


def _unchunked(blocks: np.ndarray, rate: float) -> StreamingProfiler:
    prof = StreamingProfiler(sampling_rate=rate, seed=11)
    prof.observe(blocks)
    return prof


@given(
    chunked_streams(),
    st.sampled_from([1.0, 0.3]),
    st.sampled_from([1, 2, 3, 7, profiler_mod._MAX_PENDING]),
)
@settings(max_examples=200, deadline=None)
def test_fold_snapshots_match_one_unchunked_observe(stream, rate, max_pending):
    """Chunking, mid-stream snapshots and pending-bound folds change no byte.

    A tiny pending bound folds inside ``observe`` into a non-empty table,
    so the carry/merge path runs; snapshots taken mid-stream fold early
    too.  Each snapshot equals a fresh profiler fed the same prefix in one
    batch, and at rate 1.0 the offline ``average_footprint``.
    """
    blocks, cuts, snaps = stream
    bounds = list(zip([0, *cuts], [*cuts, blocks.size]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiler_mod, "_MAX_PENDING", max_pending)
        chunked = StreamingProfiler(sampling_rate=rate, seed=11)
        for k, (lo, hi) in enumerate(bounds):
            chunked.observe(blocks[lo:hi])
            if k in snaps or k == len(bounds) - 1:
                whole = _unchunked(blocks[:hi], rate)
                assert chunked.accesses_seen == whole.accesses_seen == hi
                assert chunked.samples_seen == whole.samples_seen
                assert chunked.distinct_sampled == whole.distinct_sampled
                assert _snapshot(chunked) == _snapshot(whole)
    if rate == 1.0 and blocks.size:
        ref = average_footprint(blocks)
        assert chunked.footprint().values.tobytes() == ref.values.tobytes()
        offline = MissRatioCurve.from_footprint(ref, 40)
        assert chunked.mrc(40).ratios.tobytes() == offline.ratios.tobytes()


def test_observe_does_not_alias_the_callers_buffer():
    buf = np.array([1, 2, 1, 3, 2], dtype=np.int64)
    prof = StreamingProfiler()
    prof.observe(buf)
    buf[:] = 9  # the caller reuses its buffer before the next snapshot
    ref = average_footprint(np.array([1, 2, 1, 3, 2]))
    assert np.array_equal(prof.footprint().values, ref.values)


def test_footprint_from_gaps_truncation():
    tr = uniform_random(500, 30, seed=1)
    full = average_footprint(tr)
    from repro.locality.reuse import reuse_profile

    prof = reuse_profile(tr)
    head = footprint_from_gaps(prof.gap_hist, prof.n, prof.m, max_window=100)
    assert head.size == 101
    assert np.allclose(head, full.values[:101])


# ------------------------------------------------- exact mode (rate 1.0)
def test_exact_profiler_matches_average_footprint():
    tr = zipf(4000, 300, seed=5)
    prof = StreamingProfiler()
    prof.observe(tr)
    fp = prof.footprint()
    ref = average_footprint(tr)
    assert fp.n == ref.n and fp.m == ref.m
    assert np.array_equal(fp.values, ref.values)


def test_exact_profiler_batch_invariance():
    """Snapshots must not depend on how the stream was chunked."""
    tr = uniform_random(3000, 120, seed=7)
    whole = StreamingProfiler()
    whole.observe(tr)
    chunked = StreamingProfiler()
    start = 0
    for step in (1, 7, 311, 1000, 3000):
        chunked.observe(tr.blocks[start : start + step])
        start += step
    assert np.array_equal(whole.footprint().values, chunked.footprint().values)
    assert whole.accesses_seen == chunked.accesses_seen == 3000


def test_exact_mrc_matches_offline_pipeline():
    tr = cyclic(2000, 64)
    prof = StreamingProfiler()
    prof.observe(tr)
    got = prof.mrc(128)
    ref = MissRatioCurve.from_footprint(average_footprint(tr), 128)
    assert np.array_equal(got.ratios, ref.ratios)
    assert got.n_accesses == ref.n_accesses


def test_max_window_caps_snapshot_cost():
    tr = uniform_random(10_000, 400, seed=2)
    prof = StreamingProfiler(max_window=500)
    prof.observe(tr)
    fp = prof.footprint()
    assert fp.n == 500
    assert np.allclose(fp.values, average_footprint(tr).values[:501])


# -------------------------------------------------------- sampled mode
@pytest.mark.parametrize(
    "rate,tol", [(0.1, MRC_L1_TOL_10PCT), (0.01, MRC_L1_TOL_1PCT)]
)
def test_sampled_mrc_converges_to_full_trace(rate, tol):
    """Acceptance: streaming MRC at <=10% sampling within documented L1."""
    tr = zipf(100_000, 2000, seed=2)
    prof = StreamingProfiler(sampling_rate=rate, max_window=20_000)
    for s in range(0, len(tr), 4096):
        prof.observe(tr.blocks[s : s + 4096])
    full = MissRatioCurve.from_footprint(average_footprint(tr), 2200)
    est = prof.mrc(2200)
    l1 = float(np.abs(est.ratios - full.ratios).mean())
    assert l1 < tol, f"L1 {l1:.4f} exceeds {tol} at rate {rate}"
    # the spatial filter keeps ~rate of the *blocks* (access-level rates
    # run higher on skewed traces: hot blocks bring all their accesses)
    block_rate = prof.distinct_sampled / 2000
    assert 0.5 * rate < block_rate < 2.0 * rate


def test_shards_spatial_filter_boundary_is_strict(monkeypatch):
    """SHARDS (FAST'15) keeps a block iff hash < rate·2^64 — *strict*.

    Regression for the off-by-one where ``observe`` kept ``hash <=
    threshold``: at ``sampling_rate=0.5`` the threshold is exactly 2^63
    and a block hashing right onto it must be dropped.
    """
    prof = StreamingProfiler(sampling_rate=0.5)
    assert prof._threshold == np.uint64(1 << 63)  # pin the boundary value

    # make the hash controllable: block id b hashes to b · 2^62, so block
    # 1 lands below the threshold, block 2 exactly on it, block 3 above
    monkeypatch.setattr(
        profiler_mod,
        "_hash64",
        lambda blocks, seed: blocks.astype(np.uint64) * np.uint64(1 << 62),
    )
    kept = prof.observe(np.array([1, 2, 3], dtype=np.int64))
    assert kept == 1  # only block 1; the boundary hash 2^63 is excluded
    assert prof.distinct_sampled == 1


def test_sampled_working_set_estimate():
    tr = uniform_random(50_000, 1000, seed=9)
    prof = StreamingProfiler(sampling_rate=0.1, seed=4)
    prof.observe(tr)
    assert abs(prof.footprint().m - 1000) < 150


def test_sampling_is_deterministic_per_seed():
    tr = uniform_random(5000, 300, seed=1)
    a, b = (StreamingProfiler(sampling_rate=0.2, seed=3) for _ in range(2))
    a.observe(tr)
    b.observe(tr)
    assert np.array_equal(a.footprint().values, b.footprint().values)
    c = StreamingProfiler(sampling_rate=0.2, seed=4)
    c.observe(tr)
    assert c.samples_seen != a.samples_seen or not np.array_equal(
        c.footprint().values, a.footprint().values
    )


# ------------------------------------------------------------- lifecycle
def test_empty_and_reset():
    prof = StreamingProfiler(sampling_rate=0.5)
    assert prof.footprint() is None and prof.mrc(10) is None
    prof.observe(np.array([], dtype=np.int64))
    assert prof.footprint() is None
    prof.observe(cyclic(100, 10))
    assert prof.footprint() is not None
    prof.reset()
    assert prof.accesses_seen == 0 and prof.footprint() is None


def test_profiler_validation():
    with pytest.raises(ValueError):
        StreamingProfiler(sampling_rate=0.0)
    with pytest.raises(ValueError):
        StreamingProfiler(sampling_rate=1.5)
    with pytest.raises(ValueError):
        StreamingProfiler(max_window=0)
    with pytest.raises(ValueError):
        StreamingProfiler().observe(np.zeros((2, 2), dtype=np.int64))


@pytest.mark.parametrize("seed", [-1, -3, 2**64, 2**70])
def test_profiler_rejects_seeds_outside_uint64(seed):
    with pytest.raises(ValueError, match="seed"):
        StreamingProfiler(sampling_rate=0.5, seed=seed)


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_profiler_hashes_with_any_uint64_seed(seed):
    prof = StreamingProfiler(sampling_rate=0.5, seed=seed)
    kept = prof.observe(np.arange(1000, dtype=np.int64))
    assert 0 < kept < 1000 and prof.samples_seen == kept
    assert prof.footprint() is not None
