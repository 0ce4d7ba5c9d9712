"""General partition-sharing: enumeration and optimization (paper §II, §V).

A *partition-sharing scheme* assigns programs to groups and gives each
group a private partition that its members share free-for-all.  Strict
partitioning (singleton groups) and pure sharing (one group) are the edge
cases.

Under the Natural Partition Assumption, a group sharing a partition of
``s`` units performs like its natural partition inside those ``s`` units —
so each *group* has a well-defined cost curve over partition sizes
(computed here via footprint composition), and the optimal wall placement
for a fixed grouping is a min-plus fold of the group curves.  Minimizing
over all set partitions then yields the global optimum of Eq. 2's space,
the quantity the paper's reduction theorem compares against optimal
partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.composition.corun import group_miss_counts
from repro.core.minplus import fold_curves
from repro.locality.footprint import FootprintCurve

__all__ = [
    "set_partitions",
    "group_cost_curve",
    "PartitionSharingResult",
    "optimal_partition_sharing",
]


def set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """Enumerate all set partitions of ``items`` (restricted-growth order).

    The number of partitions is the Bell number; only intended for small
    co-run groups (the paper's scenarios have 2–4 programs).
    """
    items = list(items)
    n = len(items)
    if n == 0:
        yield []
        return
    # restricted growth strings: a[i] <= 1 + max(a[:i])
    a = [0] * n
    while True:
        n_groups = max(a) + 1
        groups: list[list[int]] = [[] for _ in range(n_groups)]
        for idx, gid in enumerate(a):
            groups[gid].append(items[idx])
        yield groups
        # advance
        i = n - 1
        while i > 0:
            if a[i] <= max(a[:i]):
                a[i] += 1
                for j in range(i + 1, n):
                    a[j] = 0
                break
            a[i] = 0
            i -= 1
        else:
            return


def group_cost_curve(
    footprints: Sequence[FootprintCurve],
    n_units: int,
    unit_blocks: int,
) -> np.ndarray:
    """Expected miss count of a program group sharing a partition of each size.

    ``curve[s]`` is the group's total predicted misses when its members
    free-for-all share ``s`` allocation units (``s * unit_blocks`` blocks),
    by the natural partition within the group.  A zero-unit partition
    makes every steady-state access a miss.
    """
    sizes = np.arange(n_units + 1, dtype=np.float64) * unit_blocks
    return group_miss_counts(footprints, sizes)


@dataclass(frozen=True)
class PartitionSharingResult:
    """Best partition-sharing scheme found by exhaustive grouping search."""

    grouping: tuple[tuple[int, ...], ...]
    group_units: np.ndarray
    total_misses: float
    per_grouping_cost: dict[tuple[tuple[int, ...], ...], float]

    @property
    def n_partitions(self) -> int:
        return len(self.grouping)


def optimal_partition_sharing(
    footprints: Sequence[FootprintCurve],
    n_units: int,
    unit_blocks: int,
) -> PartitionSharingResult:
    """Exhaustively optimal partition-sharing over Eq. 2's space.

    For every grouping of the programs, builds the group cost curves and
    places the walls optimally with the min-plus fold; returns the best
    scheme overall plus the optimal cost of *every* grouping (so callers
    can check the reduction theorem: the singleton grouping should win or
    tie whenever the composition model is exact).
    """
    indices = list(range(len(footprints)))
    # cache per-subset curves: several groupings reuse the same subset
    subset_curves: dict[tuple[int, ...], np.ndarray] = {}

    def curve_for(subset: tuple[int, ...]) -> np.ndarray:
        if subset not in subset_curves:
            subset_curves[subset] = group_cost_curve(
                [footprints[i] for i in subset], n_units, unit_blocks
            )
        return subset_curves[subset]

    best_cost = np.inf
    best_grouping: tuple[tuple[int, ...], ...] = ()
    best_units = np.zeros(0, dtype=np.int64)
    costs: dict[tuple[tuple[int, ...], ...], float] = {}
    for groups in set_partitions(indices):
        key = tuple(tuple(sorted(grp)) for grp in groups)
        curves = [curve_for(subset) for subset in key]
        fold = fold_curves(curves)
        cost = fold.cost(n_units)
        costs[key] = cost
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_grouping = key
            best_units = fold.allocate(n_units)
    return PartitionSharingResult(
        grouping=best_grouping,
        group_units=best_units,
        total_misses=float(best_cost),
        per_grouping_cost=costs,
    )
