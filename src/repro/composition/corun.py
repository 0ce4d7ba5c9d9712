"""Co-run miss-ratio prediction and the Natural Cache Partition (§IV–§V-A).

Given the composed group footprint (Eq. 9), a shared cache of ``C`` blocks
fills over the unique combined window ``w*`` with ``fp(w*) = C``.  At that
steady state:

* program ``i`` holds ``c_i = fp_i(w* · ratio_i)`` blocks — the ordered
  set ``(c_1, c_2, ...)`` is the **Natural Cache Partition** (Fig. 4);
* each program's miss ratio in the shared cache equals its *solo* miss
  ratio at ``c_i`` (Eq. 11 restated per program) — the Natural Partition
  Assumption.

When the cache is larger than the combined working set the window search
saturates and every program simply keeps all of its data (zero steady-state
misses).

:func:`solve_fill_window` is the one solve of ``w*``; every function here
reads the partition through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.composition.stretch import ComposedFootprint, compose_footprints
from repro.locality.footprint import FootprintCurve
from repro.locality.hotl import miss_ratio

__all__ = [
    "CoRunPrediction",
    "solve_fill_window",
    "natural_partition",
    "predict_corun",
    "group_miss_counts",
    "group_miss_ratio_eq11",
]


@dataclass(frozen=True)
class CoRunPrediction:
    """HOTL prediction for one co-run group in a shared cache."""

    names: tuple[str, ...]
    cache_size: int
    fill_window: float
    occupancies: np.ndarray  # natural partition, fractional blocks
    miss_ratios: np.ndarray  # per-program shared-cache miss ratios
    n_accesses: np.ndarray

    @property
    def group_miss_ratio(self) -> float:
        """Access-weighted group miss ratio (total misses / total accesses)."""
        total = float(self.n_accesses.sum())
        return float(np.dot(self.miss_ratios, self.n_accesses)) / total


#: Sub-brackets per narrowing round of :func:`solve_fill_window`: a round
#: evaluates the composed footprint at the 63 interior cut points of every
#: open bracket and keeps the one part that holds the root.
_SECTIONS = 64


def solve_fill_window(
    composed: ComposedFootprint, cache_sizes: np.ndarray | float
) -> np.ndarray | float:
    """Combined window ``w*`` with ``fp(w*) = C``, for one size or a 1-D array.

    The composed footprint is continuous, non-decreasing and piecewise
    linear, with a knot wherever a stretched window ``w · ratio_i``
    crosses an integer.  Each size keeps a bracket ``(lo, hi]`` on
    ``[0, max_window]`` with ``fp(lo) < C <= fp(hi)``; every round cuts
    all open brackets into ``_SECTIONS`` parts at once, until no
    component's stretched window crosses an integer inside its bracket
    (or the bracket is two adjacent floats).  On that one linear piece
    the root is closed-form, ``lo + (C - fp(lo)) / slope``.  Each size
    takes the steps its scalar call would, so an array call returns the
    scalar calls' bytes.

    A size ``<= 0`` returns ``0.0``; a size the group never fills (its
    combined data or more) returns ``composed.max_window``.
    """
    sizes = np.asarray(cache_sizes, dtype=np.float64)
    c = np.atleast_1d(sizes)
    w_max = composed.max_window
    w = np.where(c <= 0, 0.0, w_max)
    todo = np.flatnonzero(
        (c > 0) & (c < composed.total_data) & (c < composed(w_max))
    )
    target = c[todo]
    lo = np.zeros(todo.size)
    hi = np.full(todo.size, w_max)
    cuts = np.arange(1, _SECTIONS) / _SECTIONS
    open_ = np.arange(todo.size)
    while True:
        l, h = lo[open_], hi[open_]
        straddles = np.zeros(open_.size, dtype=bool)
        for fp, r in zip(composed.footprints, composed.ratios):
            a = np.minimum(l * r, fp.n)
            straddles |= np.minimum(h * r, fp.n) > np.floor(a) + 1.0
        keep = straddles & (np.nextafter(l, np.inf) < h)
        open_, l, h = open_[keep], l[keep], h[keep]
        if not open_.size:
            break
        inner = l[:, None] + (h - l)[:, None] * cuts
        bounds = np.concatenate([l[:, None], inner, h[:, None]], axis=1)
        # the part ends at the first inner cut reaching the target, else at hi
        reached = np.ones((open_.size, _SECTIONS), dtype=bool)
        reached[:, :-1] = np.asarray(composed(inner)) >= target[open_, None]
        j = np.argmax(reached, axis=1)
        rows = np.arange(open_.size)
        lo[open_] = bounds[rows, j]
        hi[open_] = bounds[rows, j + 1]
    f_lo = np.asarray(composed(lo), dtype=np.float64)
    slope = np.zeros(todo.size)
    for fp, r in zip(composed.footprints, composed.ratios):
        k = np.minimum(lo * r, fp.n).astype(np.int64)
        slope += r * (fp.values[np.minimum(k + 1, fp.n)] - fp.values[k])
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where(slope > 0, lo + (target - f_lo) / slope, hi)
    w[todo] = np.clip(root, lo, hi)
    return float(w[0]) if sizes.ndim == 0 else w


def natural_partition(
    footprints: Sequence[FootprintCurve], cache_size: int
) -> np.ndarray:
    """The Natural Cache Partition ``(c_1, .., c_P)`` in fractional blocks.

    Occupancies sum to ``cache_size`` when the group can fill the cache,
    and to the combined working set otherwise.
    """
    composed = compose_footprints(footprints)
    w_star = solve_fill_window(composed, cache_size)
    return composed.components(w_star)


def predict_corun(
    footprints: Sequence[FootprintCurve], cache_size: int
) -> CoRunPrediction:
    """Full shared-cache prediction: NCP occupancies and per-program miss ratios.

    Each program's shared miss ratio is its solo HOTL miss ratio at its
    natural occupancy — the reduction at the heart of the paper (§V-A).
    """
    if cache_size < 1:
        raise ValueError("cache_size must be >= 1")
    composed = compose_footprints(footprints)
    w_star = solve_fill_window(composed, cache_size)
    occ = composed.components(w_star)
    ratios = np.array(
        [float(miss_ratio(fp, c)) for fp, c in zip(footprints, occ)], dtype=np.float64
    )
    return CoRunPrediction(
        names=tuple(fp.name for fp in footprints),
        cache_size=int(cache_size),
        fill_window=float(w_star),
        occupancies=occ,
        miss_ratios=ratios,
        n_accesses=np.array([fp.n for fp in footprints], dtype=np.int64),
    )


def group_miss_counts(
    footprints: Sequence[FootprintCurve], sizes: np.ndarray
) -> np.ndarray:
    """Expected group miss count at each cache size in ``sizes`` (blocks).

    The sum over members of ``mr_i(c_i) · n_i`` at the natural
    occupancies ``c_i`` of each size: a partition-sharing group's cost
    curve.  A size ``<= 0`` misses every access.
    """
    composed = compose_footprints(footprints)
    c = np.atleast_1d(np.asarray(sizes, dtype=np.float64))
    w = np.asarray(solve_fill_window(composed, c), dtype=np.float64)
    total = np.zeros(c.size, dtype=np.float64)
    for fp, r in zip(composed.footprints, composed.ratios):
        occ = np.asarray(fp(w * r), dtype=np.float64)
        total += np.asarray(miss_ratio(fp, occ), dtype=np.float64) * float(fp.n)
    total[c <= 0] = float(sum(fp.n for fp in composed.footprints))
    return total


def group_miss_ratio_eq11(
    footprints: Sequence[FootprintCurve], cache_size: int
) -> float:
    """The paper's Eq. 11, literally: misses per *combined* access.

    ``mr(c) = fp1((w+1) * r1/R) + fp2((w+1) * r2/R) - c`` with ``fp(w) = c``
    — the composed footprint's forward slope at the fill window,
    generalized to any number of programs.  Equivalent to weighting each
    program's natural-occupancy miss ratio by its access-rate share (the
    per-program form used by :func:`predict_corun`); the equivalence is
    checked in the test-suite.
    """
    if cache_size < 1:
        raise ValueError("cache_size must be >= 1")
    composed = compose_footprints(footprints)
    w_star = solve_fill_window(composed, cache_size)
    if w_star >= composed.max_window:
        return 0.0  # the group never fills the cache: no steady misses
    return float(np.clip(composed(w_star + 1.0) - cache_size, 0.0, 1.0))
