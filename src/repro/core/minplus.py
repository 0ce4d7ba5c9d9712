"""(min, +) convolution — the inner kernel of the partitioning DP (Eq. 16).

Combining two programs' cost curves under a shared budget is exactly a
min-plus convolution:

    out[k] = min_{i = 0..k} a[i] + b[k - i]

Folding all programs' curves this way *is* the paper's dynamic program;
keeping the kernel separate lets the experiment driver share intermediate
pair curves across the 1820 co-run groups (DESIGN.md §5 ablation).
A caller that reads a fold at one budget only runs its last stage as the
point query :func:`convolve_at` — one output cell in O(k) instead of the
whole O(C²) convolution.

The convolution itself is :func:`repro.core.kernels.convolve`, one tiled
kernel held byte for byte to the pure-Python oracle by the tests.

Costs are ``float64``; ``+inf`` marks infeasible sizes (used by the
baseline-constrained optimization, §VI) and propagates correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.kernels import check_costs, convolve

__all__ = [
    "convolve_at",
    "MinPlusFold",
    "fold_curves",
    "fold_curves_stages",
]


def convolve_at(a: np.ndarray, b: np.ndarray, k: int) -> tuple[float, int]:
    """One cell of ``a ⊕ b``: ``(out[k], split[k])`` without the other cells.

    The point query ``argmin(a[:k+1] + b[k::-1])`` performs exactly the
    float additions the kernel performs for output ``k``, in the same
    candidate order, so it returns the kernel's ``out[k]`` and
    first-occurrence ``split[k]`` byte for byte — an all-``+inf`` cell
    reports split 0 (the :mod:`repro.core.kernels` contract).  O(k) work
    instead of the full convolution's O(C²).
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("cost curves must be 1-D and of equal length")
    if not 0 <= k < a.size:
        raise ValueError(f"k must be in [0, {a.size - 1}]")
    candidates = a[: k + 1] + b[k::-1]
    split = int(np.argmin(candidates))
    return float(candidates[split]), split


@dataclass(frozen=True)
class MinPlusFold:
    """A left fold of P cost curves with full backtracking state.

    ``total[k]`` is the optimal combined cost with budget ``k``;
    :meth:`allocate` recovers the per-program budgets realizing it.
    """

    total: np.ndarray
    splits: tuple[np.ndarray, ...]  # splits[j][k]: budget kept by curves 0..j at stage j

    @property
    def n_programs(self) -> int:
        return len(self.splits) + 1

    def cost(self, budget: int) -> float:
        return float(self.total[budget])

    def allocate(self, budget: int) -> np.ndarray:
        """Optimal allocation ``(c_1..c_P)`` summing to ``budget`` (Eq. 15)."""
        if not 0 <= budget < self.total.size:
            raise ValueError(f"budget must be in [0, {self.total.size - 1}]")
        if not np.isfinite(self.total[budget]):
            raise ValueError(f"no feasible allocation at budget {budget}")
        alloc = np.zeros(self.n_programs, dtype=np.int64)
        k = int(budget)
        for j in range(len(self.splits) - 1, -1, -1):
            prefix_share = int(self.splits[j][k])
            alloc[j + 1] = k - prefix_share
            k = prefix_share
        alloc[0] = k
        return alloc


def fold_curves(costs: Sequence[np.ndarray]) -> MinPlusFold:
    """Fold P cost curves program-by-program (Eq. 16).

    Stage ``j`` adds program ``j + 1`` to the running optimum of the first
    ``j + 1`` programs — exactly the paper's recurrence; total time
    O(P · C²), space O(P · C).  Convolutions run on
    :func:`repro.core.kernels.convolve`; a NaN or ``-inf`` cost raises
    ``ValueError``.
    """
    fold, _ = fold_curves_stages(costs)
    return fold


def fold_curves_stages(
    costs: Sequence[np.ndarray],
) -> tuple[MinPlusFold, list[np.ndarray]]:
    """:func:`fold_curves`, also returning the per-stage running totals.

    ``prefixes[j]`` is the optimum over curves ``0..j`` (so
    ``prefixes[-1] is fold.total``) — the state the engine's warm-start
    re-solve resumes from when only a suffix of the curves changed.
    """
    if not costs:
        raise ValueError("need at least one cost curve")
    running = np.ascontiguousarray(costs[0], dtype=np.float64)
    check_costs(running)  # every later curve is checked by convolve
    prefixes: list[np.ndarray] = [running]
    splits: list[np.ndarray] = []
    for curve in costs[1:]:
        running, split = convolve(running, curve)
        prefixes.append(running)
        splits.append(split)
    return MinPlusFold(total=running, splits=tuple(splits)), prefixes
