"""Baseline (fairness) optimization (paper §VI).

Fairness by *sharing incentive*: improve the group only if no member ends
up worse than it would be under an agreed baseline partition.  The paper
studies two baselines —

* **equal baseline**: the baseline is the equal partition (each of P
  programs gets C/P units; the "socialist" allocation);
* **natural baseline**: the baseline is the natural partition, i.e. the
  performance of free-for-all sharing (the "capitalist" allocation).

Both reduce to the unconstrained DP run on cost curves whose infeasible
sizes (cost above the program's baseline cost) are masked to ``+inf``
(:func:`repro.core.objectives.constrained_costs`).  The baseline partition
itself is always feasible, so the constrained DP can only improve on it.

On miss-count curves, which fall with size, the mask is mostly a leading
``+inf`` prefix: a program may not shrink below its baseline size.  The
DP trims those prefixes and folds only the slack the baseline leaves
(:func:`repro.core.dp.optimal_partition`) — for the natural baseline,
whose baseline already hands out the whole cache, a median of 9 units
of a 1024-unit grid over 70 sampled paper-scale groups.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dp import PartitionResult, optimal_partition
from repro.core.objectives import constrained_costs

__all__ = [
    "equal_allocation",
    "baseline_partition",
    "equal_baseline_partition",
    "natural_baseline_partition",
]


def equal_allocation(n_programs: int, budget: int) -> np.ndarray:
    """The equal partition: ``budget / P`` each, remainder to the first programs."""
    if n_programs < 1:
        raise ValueError("need at least one program")
    base, extra = divmod(budget, n_programs)
    alloc = np.full(n_programs, base, dtype=np.int64)
    alloc[:extra] += 1
    return alloc


def baseline_partition(
    costs: Sequence[np.ndarray], budget: int, baseline_alloc: np.ndarray
) -> PartitionResult:
    """Constrained optimum: no program worse than at ``baseline_alloc`` (§VI).

    ``baseline_alloc`` must be a feasible allocation (non-negative, summing
    to at most ``budget``); its per-program costs become the thresholds.
    """
    baseline_alloc = np.asarray(baseline_alloc, dtype=np.int64)
    if baseline_alloc.size != len(costs):
        raise ValueError("baseline allocation must cover every program")
    if baseline_alloc.min() < 0 or int(baseline_alloc.sum()) > budget:
        raise ValueError("baseline allocation must be feasible within the budget")
    thresholds = [float(c[a]) for c, a in zip(costs, baseline_alloc.tolist())]
    masked = constrained_costs(costs, thresholds)
    return optimal_partition(masked, budget)


def equal_baseline_partition(costs: Sequence[np.ndarray], budget: int) -> PartitionResult:
    """§VI equal-baseline optimization."""
    return baseline_partition(costs, budget, equal_allocation(len(costs), budget))


def natural_baseline_partition(
    costs: Sequence[np.ndarray], budget: int, natural_units: np.ndarray
) -> PartitionResult:
    """§VI natural-baseline optimization.

    ``natural_units`` is the unit-rounded Natural Cache Partition
    (:func:`repro.core.natural.natural_partition_units`).
    """
    return baseline_partition(costs, budget, natural_units)
