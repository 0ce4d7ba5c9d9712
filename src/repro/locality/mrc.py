"""Miss-ratio curves: the per-program input of every optimizer.

A :class:`MissRatioCurve` stores ``mr(c)`` on the dense grid of cache sizes
``c = 0 .. capacity`` (in blocks), together with the access count so the DP
can work in *miss counts* ``mc(c) = mr(c) * n`` (Eq. 15 uses miss counts so
that programs of different lengths are weighted correctly).

Two construction paths:

* :func:`MissRatioCurve.from_footprint` — the HOTL path (Eq. 10), used by
  the paper for all 16 programs;
* :func:`MissRatioCurve.from_stack_distances` — exact LRU simulation via
  stack distances, used to validate the HOTL path (§VII-C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.locality.footprint import FootprintCurve, average_footprint
from repro.locality.hotl import miss_ratio
from repro.workloads.trace import Trace

__all__ = ["MissRatioCurve", "mrc_from_trace"]


@dataclass(frozen=True)
class MissRatioCurve:
    """Miss ratio as a function of cache size, plus program metadata.

    Attributes
    ----------
    ratios:
        ``ratios[c] = mr(c)`` for ``c = 0 .. capacity`` (blocks).
    n_accesses:
        Trace length used to turn ratios into counts.
    name:
        Program name.
    access_rate:
        Solo-run access rate (for composition / natural partition).
    data_size:
        Distinct blocks of the program (``mr(c) == 0`` for ``c >= data_size``
        in the HOTL steady-state model).
    """

    ratios: np.ndarray
    n_accesses: int
    name: str = "program"
    access_rate: float = 1.0
    data_size: int = 0

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.ratios, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("ratios must be a 1-D array over sizes 0..capacity")
        # written so that NaN, which fails every comparison, fails the check
        if not np.all((arr >= -1e-12) & (arr <= 1 + 1e-12)):
            raise ValueError("miss ratios must lie in [0, 1]")
        if self.n_accesses <= 0:
            raise ValueError("n_accesses must be positive")
        arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "ratios", arr)

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Largest cache size (blocks) on the grid."""
        return int(self.ratios.size - 1)

    def at(self, c: np.ndarray | float) -> np.ndarray | float:
        """Miss ratio at (fractional) cache size ``c``, linear interpolation."""
        grid = np.arange(self.ratios.size, dtype=np.float64)
        return np.interp(c, grid, self.ratios)

    def miss_counts(self) -> np.ndarray:
        """``mc(c) = mr(c) * n`` over the whole grid (Eq. 15 cost input)."""
        return self.ratios * float(self.n_accesses)

    # ------------------------------------------------------------------
    def resample(self, unit: int, n_units: int | None = None) -> "MissRatioCurve":
        """Coarsen to allocation units of ``unit`` blocks.

        Returns a curve whose index ``k`` is the miss ratio at ``k * unit``
        blocks (the paper partitions 8 MB into 1024 units of 8 KB).
        """
        if unit < 1:
            raise ValueError("unit must be >= 1")
        if n_units is None:
            n_units = self.capacity // unit
        sizes = np.arange(n_units + 1, dtype=np.int64) * unit
        if sizes[-1] > self.capacity:
            raise ValueError(
                f"resample grid ({sizes[-1]} blocks) exceeds curve capacity {self.capacity}"
            )
        return MissRatioCurve(
            self.ratios[sizes],
            n_accesses=self.n_accesses,
            name=self.name,
            access_rate=self.access_rate,
            data_size=self.data_size,
        )

    # ------------------------------------------------------------------
    def convexity_violations(self, tol: float = 1e-12) -> int:
        """Number of grid points where the curve is locally non-convex.

        STTW's optimality (Eq. 13/14) requires a convex decreasing curve;
        this counts where the forward-difference of ``mr`` *increases*
        (second difference below ``-tol``), i.e. a drop-off after a
        plateau.  Measured curves carry sampling noise, so censuses should
        pass a material tolerance (e.g. ``1e-3``) to count only real
        cliffs.
        """
        d = np.diff(self.ratios)
        dd = np.diff(d)
        return int(np.sum(dd < -max(tol, 0.0)))

    def is_convex(self, tol: float = 1e-12) -> bool:
        """Whether the curve is convex up to ``tol`` (see convexity_violations)."""
        return self.convexity_violations(tol) == 0

    def monotone_envelope(self) -> "MissRatioCurve":
        """Largest non-increasing curve below ``mr`` (LRU inclusion holds)."""
        env = np.minimum.accumulate(self.ratios)
        return MissRatioCurve(
            env,
            n_accesses=self.n_accesses,
            name=self.name,
            access_rate=self.access_rate,
            data_size=self.data_size,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_footprint(
        cls, fp: FootprintCurve, capacity: int, n_accesses: int | None = None
    ) -> "MissRatioCurve":
        """HOTL miss-ratio curve on sizes ``0..capacity`` blocks (Eq. 10)."""
        sizes = np.arange(capacity + 1, dtype=np.float64)
        ratios = np.asarray(miss_ratio(fp, sizes), dtype=np.float64)
        return cls(
            ratios,
            n_accesses=int(n_accesses if n_accesses is not None else fp.n),
            name=fp.name,
            access_rate=fp.access_rate,
            data_size=fp.m,
        )

    @classmethod
    def from_stack_distances(
        cls,
        distances: np.ndarray,
        capacity: int,
        n_accesses: int,
        *,
        name: str = "program",
        access_rate: float = 1.0,
        include_cold: bool = False,
        data_size: int = 0,
    ) -> "MissRatioCurve":
        """Exact fully-associative LRU curve from stack distances.

        ``distances`` holds, per *reuse* access, the LRU stack distance
        (number of distinct blocks touched since the previous access to the
        same block, that access included).  An access hits in a cache of
        ``c`` blocks iff its distance is ``<= c``.  First accesses are cold
        misses, included only when ``include_cold`` is set (the HOTL model
        excludes them).
        """
        distances = np.asarray(distances, dtype=np.int64)
        hist = np.bincount(
            np.clip(distances, 0, capacity + 1), minlength=capacity + 2
        )
        # misses(c) = reuses with distance > c (+ cold misses if requested)
        reuse_ge = np.cumsum(hist[::-1])[::-1]  # reuse_ge[d] = #distances >= d
        sizes = np.arange(capacity + 1)
        misses = reuse_ge[np.minimum(sizes + 1, capacity + 1)].astype(np.float64)
        if include_cold:
            misses += float(data_size)
        ratios = misses / float(n_accesses)
        return cls(
            np.clip(ratios, 0.0, 1.0),
            n_accesses=n_accesses,
            name=name,
            access_rate=access_rate,
            data_size=data_size,
        )


def mrc_from_trace(trace: Trace, capacity: int) -> MissRatioCurve:
    """One-call HOTL pipeline: trace → footprint → miss-ratio curve."""
    fp = average_footprint(trace)
    return MissRatioCurve.from_footprint(fp, capacity=capacity)
