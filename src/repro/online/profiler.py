"""Incremental footprint/MRC profiling with SHARDS-style spatial sampling.

The offline pipeline needs the whole trace to build a gap histogram and
from it the average footprint (Eq. 5).  The streaming profiler builds the
same histogram without storing the stream: :meth:`StreamingProfiler.observe`
only filters each batch and appends the sampled ``(block, position)``
pairs to a pending list.  A *fold* turns the pending samples into closed
gaps with one stable argsort — the offline gap pass of
:func:`repro.locality.reuse.gap_histogram`, over samples instead of a
whole trace — and merges them into a sorted per-block table of first and
last positions plus a running histogram of closed gaps.  Prefix and
suffix gaps are read off the table at snapshot time.

A fold runs when a snapshot needs it (:meth:`~StreamingProfiler.footprint`,
:meth:`~StreamingProfiler.mrc`, :attr:`~StreamingProfiler.distinct_sampled`)
or when the pending samples reach :data:`_MAX_PENDING`.  Besides that
bounded pending list, the state is the per-block table (O(sampled working
set)) and the gap histogram (O(longest gap)), never the stream itself.
A fold into an empty table — every epoch after
:meth:`~StreamingProfiler.reset` — is just the gap pass; a fold into a
non-empty table also closes each carried block's gap from its last
recorded position and merges new blocks into the table.  Either way
the gap multiset, and so every snapshot, is independent of how the
stream was batched and of when the folds ran.

Spatial sampling follows SHARDS (Waldspurger et al., FAST'15): a block is
profiled iff ``hash(block) < rate · 2^64``, so either *all* accesses to a
block are observed or none are.  A block's gap multiset is therefore kept
or dropped atomically, making the sampled gap histogram (scaled by
``1/rate``) an unbiased estimator of the full one — and the closed-form
footprint of the scaled histogram an estimator of the full-trace
footprint.  Positions are counted in full-stream time (the filter drops
accesses from the histogram, not from the clock).

At ``sampling_rate=1.0`` the snapshot is bit-for-bit identical to
:func:`repro.locality.footprint.average_footprint` on the same accesses —
the equivalence the test-suite pins down.
"""

from __future__ import annotations

import numpy as np

from repro.locality.footprint import FootprintCurve, footprint_from_gaps
from repro.locality.mrc import MissRatioCurve
from repro.workloads.trace import Trace

__all__ = ["StreamingProfiler"]

# splitmix64 finalizer: a cheap, well-mixed 64-bit hash for the spatial filter
_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT = np.uint64(33)

#: Pending (unfolded) samples at which :meth:`StreamingProfiler.observe`
#: folds on its own, bounding the pending list between snapshots.
_MAX_PENDING = 1 << 16


def _hash64(blocks: np.ndarray, seed: np.uint64) -> np.ndarray:
    v = blocks.astype(np.uint64)
    v += seed
    v ^= v >> _SHIFT
    v *= _MIX1
    v ^= v >> _SHIFT
    v *= _MIX2
    v ^= v >> _SHIFT
    return v


class StreamingProfiler:
    """Per-tenant incremental reuse/footprint profiler.

    Parameters
    ----------
    sampling_rate:
        Fraction of the block address space profiled (``1.0`` = every
        access, exact).  Estimates are scaled by ``1/sampling_rate``.
    max_window:
        Longest window length materialized by :meth:`footprint`.  Snapshots
        cost O(max_window + longest gap); cap it near the cache fill time
        for long streams.  ``None`` evaluates the curve out to the full
        stream length.
    seed:
        Perturbs the spatial hash, decorrelating profilers (and letting a
        rerun sample a different block subset).  Must be in ``[0, 2**64)``.
    """

    def __init__(
        self,
        *,
        sampling_rate: float = 1.0,
        max_window: int | None = None,
        seed: int = 0,
        name: str = "tenant",
    ) -> None:
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError("sampling_rate must be in (0, 1]")
        if max_window is not None and max_window < 1:
            raise ValueError("max_window must be >= 1")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.sampling_rate = float(sampling_rate)
        self.max_window = max_window
        self.seed = int(seed)
        self._seed64 = np.uint64(self.seed)
        self.name = name
        self._exact = sampling_rate >= 1.0
        # strict SHARDS predicate: keep iff hash < rate·2^64.  The exact
        # path bypasses the filter, so for filtered rates (< 1.0) the
        # product is < 2^64 and fits uint64 without clamping.
        if self._exact:
            self._threshold = np.uint64(2**64 - 1)
        else:
            self._threshold = np.uint64(int(sampling_rate * 2**64))
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all observations (start a fresh profiling window)."""
        self._n = 0
        self._kept = 0
        # sampled (block, position) chunks not folded yet, in stream order
        self._pending_blocks: list[np.ndarray] = []
        self._pending_positions: list[np.ndarray] = []
        self._pending = 0
        # folded state: sorted sampled blocks with their first and last
        # positions, and the histogram of closed gaps (index = length)
        self._keys = self._first = self._last = np.empty(0, dtype=np.int64)
        self._gap_hist = np.zeros(1, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def accesses_seen(self) -> int:
        """Stream length so far (sampled or not — the global clock)."""
        return self._n

    @property
    def samples_seen(self) -> int:
        """Accesses that passed the spatial filter."""
        return self._kept

    @property
    def distinct_sampled(self) -> int:
        """Distinct blocks that passed the spatial filter."""
        self._fold()
        return int(self._keys.size)

    # ------------------------------------------------------------------
    def observe(self, accesses: Trace | np.ndarray) -> int:
        """Ingest one batch of accesses; returns how many were sampled."""
        blocks = accesses.blocks if isinstance(accesses, Trace) else accesses
        blocks = np.ascontiguousarray(blocks, dtype=np.int64)
        if blocks.ndim != 1:
            raise ValueError("a batch must be a 1-D block array")
        start = self._n
        self._n += blocks.size
        if blocks.size == 0:
            return 0
        if self._exact:
            sampled = blocks.copy()  # the caller may reuse its buffer
            positions = np.arange(start, self._n, dtype=np.int64)
        else:
            positions = np.flatnonzero(_hash64(blocks, self._seed64) < self._threshold)
            if positions.size == 0:
                return 0
            sampled = blocks[positions]
            positions += start
        self._kept += sampled.size
        self._pending_blocks.append(sampled)
        self._pending_positions.append(positions)
        self._pending += sampled.size
        if self._pending >= _MAX_PENDING:
            self._fold()
        return int(sampled.size)

    def _fold(self) -> None:
        """Fold the pending samples into the block table and gap histogram."""
        if not self._pending:
            return
        blocks = np.concatenate(self._pending_blocks)
        positions = np.concatenate(self._pending_positions)
        self._pending_blocks.clear()
        self._pending_positions.clear()
        self._pending = 0
        # group by block; the stable sort keeps each group in stream order
        order = np.argsort(blocks, kind="stable")
        blocks = blocks[order]
        positions = positions[order]
        head = np.empty(blocks.size, dtype=bool)
        head[0] = True
        np.not_equal(blocks[1:], blocks[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        tails = np.append(heads[1:], blocks.size) - 1
        gaps = (positions[1:] - positions[:-1])[~head[1:]] - 1
        keys, first, last = blocks[heads], positions[heads], positions[tails]
        if self._keys.size:
            # carry: a block already in the table closes the gap from its
            # last recorded position; new blocks are merged in key order
            at = np.searchsorted(self._keys, keys)
            known = at < self._keys.size
            known[known] = self._keys[at[known]] == keys[known]
            rows = at[known]
            gaps = np.concatenate([gaps, first[known] - self._last[rows] - 1])
            self._last[rows] = last[known]
            fresh = ~known
            at = at[fresh]
            keys = np.insert(self._keys, at, keys[fresh])
            first = np.insert(self._first, at, first[fresh])
            last = np.insert(self._last, at, last[fresh])
        self._keys, self._first, self._last = keys, first, last
        gaps = gaps[gaps > 0]
        if gaps.size:
            hist = np.bincount(gaps, minlength=self._gap_hist.size)
            hist[: self._gap_hist.size] += self._gap_hist
            self._gap_hist = hist

    # ------------------------------------------------------------------
    def footprint(self, max_window: int | None = None) -> FootprintCurve | None:
        """Current average-footprint estimate, or ``None`` before any sample.

        The returned curve covers windows ``0 .. min(max_window, n)`` and
        behaves like a (shorter) full profile downstream, exactly as the
        bursty sampler's output does.
        """
        self._fold()
        if not self._keys.size:
            return None
        n = self._n
        scale = 1.0 / self.sampling_rate
        m_hat = self._keys.size * scale
        # closed gaps plus the open prefix/suffix gaps of every live
        # block; zero-length gaps land in bin 0, which holds no window
        hist = np.bincount(
            np.concatenate([self._first, (n - 1) - self._last]),
            minlength=self._gap_hist.size,
        )
        hist[: self._gap_hist.size] += self._gap_hist
        w_cap = max_window if max_window is not None else self.max_window
        values = footprint_from_gaps(hist * scale, n, m_hat, max_window=w_cap)
        return FootprintCurve(
            values,
            n=values.size - 1,
            m=max(int(round(m_hat)), 1),
            name=f"{self.name}~shards" if not self._exact else self.name,
        )

    def mrc(self, capacity: int) -> MissRatioCurve | None:
        """Miss-ratio-curve estimate on sizes ``0..capacity`` (HOTL, Eq. 10).

        ``n_accesses`` is the true stream length, so DP miss-count costs
        stay correctly weighted even under sampling.
        """
        fp = self.footprint()
        if fp is None:
            return None
        return MissRatioCurve.from_footprint(fp, capacity, n_accesses=self._n)
