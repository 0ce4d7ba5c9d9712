"""Scenario 1 of §II: sharing multiple caches (program-to-socket assignment).

"There are multiple caches, but the number of users for each cache may
vary. Grouping is still the only variable" — the search space is the
Stirling number S{npr, nc} (Eq. 1).  Under the Natural Partition
Assumption each cache's cost is the predicted free-for-all miss count of
its group, so the assignment problem is solvable from solo profiles:

* :func:`optimal_assignment` — exhaustive over all groupings into at most
  ``n_caches`` non-empty groups (exact; practical for the paper-scale
  program counts);
* :func:`greedy_assignment` — a marginal-cost heuristic for larger
  program counts, benchmarked against the exact answer in the tests.

This is the machinery behind the paper's §IV scheduling motivation
("20 programs ... on 2 processors sharing a cache").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.composition.corun import group_miss_counts
from repro.locality.footprint import FootprintCurve

__all__ = ["Assignment", "group_shared_cost", "optimal_assignment", "greedy_assignment"]


def group_shared_cost(
    footprints: Sequence[FootprintCurve], cache_size: int
) -> float:
    """Predicted miss count of one group free-for-all sharing one cache."""
    if not footprints:
        return 0.0
    return float(group_miss_counts(footprints, np.array([float(cache_size)]))[0])


@dataclass(frozen=True)
class Assignment:
    """A program-to-cache assignment and its predicted total miss count."""

    groups: tuple[tuple[int, ...], ...]
    total_misses: float

    @property
    def n_caches_used(self) -> int:
        return len(self.groups)


def _groupings_into_at_most(items: list[int], k: int) -> Iterator[list[list[int]]]:
    """All set partitions of ``items`` with at most ``k`` parts."""
    from repro.core.partition_sharing import set_partitions

    for groups in set_partitions(items):
        if len(groups) <= k:
            yield groups


def optimal_assignment(
    footprints: Sequence[FootprintCurve],
    n_caches: int,
    cache_size: int,
) -> Assignment:
    """Exhaustively optimal grouping of programs onto ``n_caches`` sockets.

    Each cache is shared free-for-all by its group (the §II scenario);
    costs come from footprint composition.  Per-subset costs are memoized
    across groupings.
    """
    if n_caches < 1:
        raise ValueError("need at least one cache")
    indices = list(range(len(footprints)))
    cache: dict[tuple[int, ...], float] = {}

    def cost(subset: tuple[int, ...]) -> float:
        if subset not in cache:
            cache[subset] = group_shared_cost(
                [footprints[i] for i in subset], cache_size
            )
        return cache[subset]

    best: Assignment | None = None
    for groups in _groupings_into_at_most(indices, n_caches):
        key = tuple(tuple(sorted(g)) for g in groups)
        total = sum(cost(g) for g in key)
        if best is None or total < best.total_misses - 1e-9:
            best = Assignment(groups=key, total_misses=total)
    if best is None:
        raise RuntimeError("grouping enumeration yielded no assignment")
    return best


def greedy_assignment(
    footprints: Sequence[FootprintCurve],
    n_caches: int,
    cache_size: int,
) -> Assignment:
    """Marginal-cost greedy: place programs (largest solo demand first)
    on the cache where they raise the predicted misses least.

    O(P^2) cost evaluations; a practical heuristic for program counts
    where Eq. 1's Stirling space is out of reach.
    """
    if n_caches < 1:
        raise ValueError("need at least one cache")
    order = sorted(
        range(len(footprints)), key=lambda i: -footprints[i].m
    )
    groups: list[list[int]] = [[] for _ in range(n_caches)]
    costs = [0.0] * n_caches
    for i in order:
        best_j, best_delta, best_cost = 0, np.inf, 0.0
        for j in range(n_caches):
            trial = [footprints[k] for k in groups[j]] + [footprints[i]]
            new_cost = group_shared_cost(trial, cache_size)
            delta = new_cost - costs[j]
            if delta < best_delta:
                best_j, best_delta, best_cost = j, delta, new_cost
        groups[best_j].append(i)
        costs[best_j] = best_cost
    non_empty = tuple(tuple(sorted(g)) for g in groups if g)
    return Assignment(groups=non_empty, total_misses=float(sum(costs)))
