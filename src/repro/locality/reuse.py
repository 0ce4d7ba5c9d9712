"""Reuse-time analysis (paper §III).

Definitions follow the Higher Order Theory of Locality (HOTL, Xiang et al.
ASPLOS'13) as restated in the paper:

* a **reuse pair** is two accesses to the same datum with no intervening
  access to that datum;
* the **reuse time** of the pair at positions ``i < j`` (1-based in the
  paper) is ``rt = j - i + 1`` (Eq. 4), i.e. the length of the smallest
  window containing both accesses;
* the **reuse interval** used internally here is ``r = j - i`` so that the
  *gap* of non-access positions strictly between the pair is ``r - 1``.

All functions are vectorized; no per-access Python loops.  They take a
whole trace; the streaming profiler (:mod:`repro.online.profiler`) runs
the same stable-argsort gap pass over sampled chunks of a stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.trace import Trace

__all__ = [
    "previous_occurrence",
    "reuse_intervals",
    "reuse_time_histogram",
    "first_last_positions",
    "gap_histogram",
    "ReuseProfile",
    "reuse_profile",
]


def _as_blocks(trace: Trace | np.ndarray) -> np.ndarray:
    if isinstance(trace, Trace):
        return trace.blocks
    return np.ascontiguousarray(trace, dtype=np.int64)


def previous_occurrence(trace: Trace | np.ndarray) -> np.ndarray:
    """Index of the previous access to the same block, or -1 for a first access.

    Runs in O(n log n) via a stable argsort (grouping equal ids while
    preserving access order inside each group).
    """
    blocks = _as_blocks(trace)
    n = blocks.size
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    order = np.argsort(blocks, kind="stable")
    sorted_blocks = blocks[order]
    same_as_left = np.empty(n, dtype=bool)
    same_as_left[0] = False
    np.equal(sorted_blocks[1:], sorted_blocks[:-1], out=same_as_left[1:])
    # within each id-group, order[] is increasing by position (stable sort),
    # so the left neighbour in the sorted view is the previous occurrence.
    prev[order[same_as_left]] = order[np.flatnonzero(same_as_left) - 1]
    return prev


def reuse_intervals(trace: Trace | np.ndarray) -> np.ndarray:
    """Reuse interval ``r = j - i`` for every non-first access (compact array).

    The paper's reuse *time* (Eq. 4) is ``r + 1``.
    """
    blocks = _as_blocks(trace)
    prev = previous_occurrence(blocks)
    idx = np.flatnonzero(prev >= 0)
    return idx - prev[idx]


def reuse_time_histogram(trace: Trace | np.ndarray) -> np.ndarray:
    """Histogram ``freq[rt]`` of paper-style reuse times (Eq. 4 definition).

    ``freq[rt]`` counts reuse pairs whose reuse time is ``rt``; indices 0
    and 1 are always zero (a reuse time is at least 2: the pair occupies a
    window of at least two accesses).
    """
    intervals = reuse_intervals(trace)
    rts = intervals + 1
    size = int(rts.max()) + 1 if rts.size else 2
    return np.bincount(rts, minlength=max(size, 2))


def first_last_positions(trace: Trace | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-datum first and last access positions (0-based), in datum order.

    Returns ``(first, last)`` aligned with ``numpy.unique`` order of ids.
    """
    blocks = _as_blocks(trace)
    if blocks.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    _, inverse = np.unique(blocks, return_inverse=True)
    m = int(inverse.max()) + 1
    positions = np.arange(blocks.size, dtype=np.int64)
    first = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
    last = np.full(m, -1, dtype=np.int64)
    np.minimum.at(first, inverse, positions)
    np.maximum.at(last, inverse, positions)
    return first, last


def gap_histogram(trace: Trace | np.ndarray) -> np.ndarray:
    """Histogram of *gap* lengths: maximal runs of positions not touching a datum.

    For each datum the trace splits into a prefix gap (before its first
    access), internal gaps (between consecutive accesses, length
    ``r - 1``), and a suffix gap (after its last access).  These gaps are
    exactly what the linear-time footprint formula needs
    (:func:`repro.locality.footprint.average_footprint`): a window avoids a
    datum iff it fits inside one of its gaps.

    Returns ``G`` with ``G[g]`` = number of gaps of length ``g`` (``g >= 1``;
    zero-length gaps are dropped as they never contain a window).  The
    streaming profiler builds the same histogram chunk by chunk, carrying
    each sampled block's first and last position between folds.
    """
    blocks = _as_blocks(trace)
    n = blocks.size
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    internal = reuse_intervals(blocks) - 1
    first, last = first_last_positions(blocks)
    prefix = first
    suffix = (n - 1) - last
    gaps = np.concatenate([internal, prefix, suffix])
    gaps = gaps[gaps > 0]
    size = int(gaps.max()) + 1 if gaps.size else 1
    return np.bincount(gaps, minlength=size)


@dataclass(frozen=True)
class ReuseProfile:
    """Bundled single-pass reuse statistics of one trace."""

    n: int
    m: int
    reuse_time_hist: np.ndarray
    gap_hist: np.ndarray

    @property
    def n_reuses(self) -> int:
        return int(self.reuse_time_hist.sum())

    @property
    def n_cold(self) -> int:
        """Number of first (compulsory-miss) accesses."""
        return self.m


def reuse_profile(trace: Trace | np.ndarray) -> ReuseProfile:
    """Compute all reuse statistics needed by the footprint analysis."""
    blocks = _as_blocks(trace)
    n = int(blocks.size)
    m = int(np.unique(blocks).size) if n else 0
    return ReuseProfile(
        n=n,
        m=m,
        reuse_time_hist=reuse_time_histogram(blocks),
        gap_hist=gap_histogram(blocks),
    )
