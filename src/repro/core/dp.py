"""Optimal cache partitioning by dynamic programming (paper §V-B, Eq. 15/16).

Finds the allocation ``(c_1 .. c_P)`` with ``sum c_i = C`` minimizing the
total cost ``sum_i cost_i(c_i)``.  Unlike STTW (1992) it needs **no
convexity assumption** — the cost curves may be any functions, including
``+inf`` entries for infeasible sizes (which is how the §VI baseline
optimization is expressed).

Complexity: O(P · C²) time, O(P · C) space — the numbers the paper quotes
for 4 programs on a 1024-unit cache.  The solve reads the fold at one
budget only, so it folds less than that bound: each curve's leading
``+inf`` prefix ``s_i`` (sizes it may not receive) is trimmed off, the
trimmed curves fold on the slack ``B − Σ s_i``, and the last stage is the
point query :func:`~repro.core.minplus.convolve_at`.  A §VI baseline
instance whose thresholds leave a slack of 9 units folds 10-long curves
instead of 1025-long ones.  Callers that need the optimum at *every*
budget fold with :func:`~repro.core.minplus.fold_curves` directly.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.core.minplus import convolve_at, fold_curves

__all__ = [
    "PartitionMemo",
    "PartitionResult",
    "cost_fingerprint",
    "curve_fingerprint",
    "validate_instance",
    "optimal_partition",
    "brute_force_partition",
]


class PartitionMemo(Protocol):
    """What :func:`optimal_partition` needs from a ``memo``: get + setitem.

    Structural on purpose — a plain ``dict`` works, and so does the
    engine's :class:`~repro.engine.foldcache.FoldCache` (an LRU with
    hit/miss counters that is deliberately *not* a ``MutableMapping``).
    """

    def get(self, key: bytes, default: None = None) -> "PartitionResult | None": ...

    def __setitem__(self, key: bytes, value: "PartitionResult") -> None: ...


@dataclass(frozen=True)
class PartitionResult:
    """An optimal partition and its cost."""

    allocation: np.ndarray
    total_cost: float

    @property
    def budget(self) -> int:
        return int(self.allocation.sum())


def _quantized(curve: np.ndarray, quantum: float) -> np.ndarray:
    """The curve as hashed: snapped to the ``quantum`` lattice if any.

    ``np.round(arr / quantum)`` can produce ``-0.0`` (any negative value
    rounding to zero), whose byte pattern differs from ``0.0`` even
    though the two are equal on the lattice — adding ``0.0`` normalizes
    the signed zeros so lattice-equal instances always collide.  ``+inf``
    entries survive quantization unchanged.
    """
    arr = np.ascontiguousarray(curve, dtype=np.float64)
    if quantum > 0.0:
        arr = np.round(arr / quantum) + 0.0
    return arr


def cost_fingerprint(
    costs: Sequence[np.ndarray], budget: int, *, quantum: float = 0.0
) -> bytes:
    """Stable digest of a DP instance, for memoizing :func:`optimal_partition`.

    With ``quantum > 0`` the curves are quantized to that grid first, so
    instances whose costs differ by less than the quantum collide — the
    online solver cache (:mod:`repro.online.solver_cache`) exploits this
    to skip re-solves for tenants whose curves only jittered.
    """
    h = hashlib.blake2b(struct.pack("<qd", budget, quantum), digest_size=16)
    for c in costs:
        arr = _quantized(c, quantum)
        h.update(arr.tobytes())
        h.update(struct.pack("<q", arr.size))
    return h.digest()


def curve_fingerprint(curve: np.ndarray, *, quantum: float = 0.0) -> bytes:
    """Digest of one cost curve on the same lattice as :func:`cost_fingerprint`.

    The engine's warm-start re-solve keys its per-stage fold state on
    these: between two DP instances, stages up to the first curve whose
    fingerprint changed can be reused verbatim.
    """
    h = hashlib.blake2b(struct.pack("<d", quantum), digest_size=16)
    arr = _quantized(curve, quantum)
    h.update(arr.tobytes())
    h.update(struct.pack("<q", arr.size))
    return h.digest()


def validate_instance(costs: Sequence[np.ndarray], budget: int) -> int:
    """Check one DP instance's contract; returns the grid size.

    All curves equal length, every cost finite or ``+inf`` (a NaN or
    ``-inf`` would make the kernel's comparisons silently pick a wrong
    split), ``budget`` within the grid — shared by
    :func:`optimal_partition`, the engine's warm-start solver and STTW
    so every path rejects malformed instances identically.
    """
    if not costs:
        raise ValueError("need at least one cost curve")
    size = int(np.asarray(costs[0]).size)
    if any(np.asarray(c).size != size for c in costs):
        raise ValueError("all cost curves must have equal length")
    # one pass per curve: NaN > -inf is False, like -inf > -inf
    if not all(bool(np.all(np.asarray(c) > -np.inf)) for c in costs):
        raise ValueError("costs must be finite or +inf; got NaN or -inf")
    if not 0 <= budget < size:
        raise ValueError(f"budget must be within the curves' grid [0, {size - 1}]")
    return size


def optimal_partition(
    costs: Sequence[np.ndarray],
    budget: int,
    *,
    memo: PartitionMemo | None = None,
    quantum: float = 0.0,
) -> PartitionResult:
    """Solve Eq. 15: ``argmin sum_i cost_i(c_i)  s.t.  sum_i c_i = budget``.

    Parameters
    ----------
    costs:
        One cost curve per program over sizes ``0 .. C`` (all equal
        length, ``C >= budget``).  Use :mod:`repro.core.objectives` to
        build them from miss-ratio curves.
    budget:
        Total cache units to distribute.
    memo:
        Optional mapping keyed on :func:`cost_fingerprint`; a hit skips
        the O(P·C²) fold entirely.  Anything satisfying
        :class:`PartitionMemo` works — a plain ``dict``, or the online
        service's LRU/statistics wrapper
        (:class:`repro.online.solver_cache.SolverCache`).
    quantum:
        Fingerprint quantization for ``memo`` lookups (see
        :func:`cost_fingerprint`); ignored without a memo.

    Raises
    ------
    ValueError
        If no feasible allocation exists at ``budget`` (possible only when
        curves contain ``+inf`` constraints).
    """
    validate_instance(costs, budget)
    key = None
    if memo is not None:
        key = cost_fingerprint(costs, budget, quantum=quantum)
        cached = memo.get(key)
        if cached is not None:
            return cached
    result = _solve_trimmed(costs, budget)
    if memo is not None and key is not None:
        memo[key] = result
    return result


def _infeasible_prefix(curve: np.ndarray) -> int:
    """Length of ``curve``'s leading ``+inf`` run (its size if all ``+inf``)."""
    open_sizes = np.flatnonzero(curve != np.inf)
    return int(open_sizes[0]) if open_sizes.size else int(curve.size)


def _solve_trimmed(costs: Sequence[np.ndarray], budget: int) -> PartitionResult:
    """The DP on prefix-trimmed curves, read at ``budget`` by a point query.

    Exact for any curves: after trimming, the stage-``j`` candidates for
    an output are the untrimmed stage's finite candidates — the same
    float sums, in the same order — shifted by ``Σ_{i≤j} s_i``, so the
    first-occurrence argmins, the allocation and the total's bytes are
    those of the full fold.  Candidates outside the trimmed range are
    ``+inf`` and never realize a finite optimum.
    """
    curves = [np.ascontiguousarray(c, dtype=np.float64) for c in costs]
    starts = [_infeasible_prefix(c) for c in curves]
    slack = budget - sum(starts)
    if slack < 0:
        raise ValueError(f"no feasible allocation at budget {budget}")
    trimmed = [c[s : s + slack + 1] for c, s in zip(curves, starts)]
    head = fold_curves(trimmed[:-1]) if len(trimmed) > 1 else None
    if head is None:
        total, k = float(trimmed[0][slack]), 0
    else:
        total, k = convolve_at(head.total, trimmed[-1], slack)
    if not np.isfinite(total):
        raise ValueError(f"no feasible allocation at budget {budget}")
    shares: list[int] = [] if head is None else head.allocate(k).tolist()
    allocation = np.array(shares + [slack - k], dtype=np.int64)
    return PartitionResult(
        allocation=allocation + np.array(starts, dtype=np.int64), total_cost=total
    )


def brute_force_partition(
    costs: Sequence[np.ndarray], budget: int
) -> tuple[np.ndarray, float]:
    """Exhaustive search over all compositions of ``budget`` (testing only).

    Enumerates the full stars-and-bars space (Eq. 3) — exponential in the
    number of programs; the reference oracle for the DP.

    Raises
    ------
    ValueError
        If no feasible allocation exists at ``budget`` — the *same*
        contract as :func:`optimal_partition`, so a DP-vs-oracle
        comparison on an infeasible instance fails loudly on both sides
        instead of silently passing against a ``(zeros, inf)`` sentinel.
    """
    n_prog = len(costs)
    best_cost = np.inf
    best = np.zeros(n_prog, dtype=np.int64)

    def rec(i: int, remaining: int, partial: float, alloc: list[int]) -> None:
        nonlocal best_cost, best
        if i == n_prog - 1:
            total = partial + float(costs[i][remaining])
            if total < best_cost:
                best_cost = total
                best = np.array(alloc + [remaining], dtype=np.int64)
            return
        for c in range(remaining + 1):
            term = float(costs[i][c])
            if term == np.inf:
                continue
            rec(i + 1, remaining - c, partial + term, alloc + [c])

    rec(0, budget, 0.0, [])
    if not np.isfinite(best_cost):
        raise ValueError(f"no feasible allocation at budget {budget}")
    return best, best_cost
