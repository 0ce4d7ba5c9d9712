"""The (min, +) convolution kernel and its pure-Python oracle.

The partitioning DP (Eq. 15/16) is a left fold of min-plus convolutions,
and that convolution is the hot path of every scheme, sweep and online
epoch.  The kernel contract::

    out[k] = min_{i = 0..k} a[i] + b[k - i]
    split[k] = the smallest i realizing out[k]   (first-occurrence ties)

:func:`convolve` is the one production implementation: a 2-D tiling of
the candidate matrix, so the scratch is bounded at ``tile²`` floats
regardless of curve length and the working tile stays cache-resident on
long grids.  :func:`oracle_convolve` is the interpreted double loop the
tests hold it to: byte-identical ``out`` values **and** byte-identical
``split`` tie-breaks, including ``+inf`` constraint entries (an
all-infeasible output cell reports ``split == 0``), pinned by
``tests/test_kernels.py``.  NaN and ``-inf`` costs are rejected
(:func:`check_costs`): either would make the strict ``<`` comparisons
pick a wrong split silently.
"""

from __future__ import annotations

import numpy as np

__all__ = ["active_kernel", "check_costs", "convolve", "oracle_convolve"]

#: Tile edge: 256² doubles = 512 KiB per tile pair.
_BLOCKED_TILE = 256


# Kept because benchmarks/e2e/harness.py records it in its environment line.
def active_kernel() -> str:
    """The name of the one kernel :func:`convolve` runs."""
    return "blocked"


def check_costs(*curves: np.ndarray) -> None:
    """Raise ``ValueError`` unless every cost is finite or ``+inf``.

    ``+inf`` marks an infeasible size; NaN and ``-inf`` are malformed.
    """
    for c in curves:
        arr = np.asarray(c)
        # min propagates NaN, and NaN > -inf is False like -inf > -inf
        if arr.size and not arr.min() > -np.inf:
            raise ValueError("costs must be finite or +inf; got NaN or -inf")


def convolve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-plus convolution of two equal-length cost curves.

    Returns ``(out, split)`` where ``split[k]`` is the budget given to
    ``a`` in the optimal split of ``k`` (ties resolved to the smallest
    ``a``-share, matching ``argmin``'s first-occurrence rule).
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("cost curves must be 1-D and of equal length")
    check_costs(a, b)
    return _blocked_convolve_impl(a, b, tile=_BLOCKED_TILE)


def _blocked_convolve_impl(
    a: np.ndarray, b: np.ndarray, *, tile: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tile both the output index and the candidate index.

    Row ``k`` of the cost matrix is ``a[i] + b[k-i]``; all rows come
    from one sliding-window view of reversed-``b`` padded with ``+inf``
    (the ``i > k`` cells).  For an ``i``-tile ``[i0, i1)`` the view is
    sliced to the tile's columns.  Each tile contributes a per-output
    partial ``(min, argmin)``; merging ascending ``i``-tiles with a
    strict ``<`` preserves the global first-occurrence tie-break
    exactly.  Scratch is bounded at ``tile²`` cells however long the
    curves are, so the working pair of tiles stays cache-resident.
    """
    n = a.size
    out = np.full(n, np.inf, dtype=np.float64)
    split = np.zeros(n, dtype=np.int64)
    padded = np.concatenate([b[::-1], np.full(n - 1, np.inf)]) if n > 1 else b[::-1]
    windows = np.lib.stride_tricks.sliding_window_view(padded, n)
    for k0 in range(0, n, tile):
        ks = np.arange(k0, min(k0 + tile, n))
        best = np.full(ks.size, np.inf, dtype=np.float64)
        arg = np.zeros(ks.size, dtype=np.int64)
        # candidates i > k are +inf padding; the last useful tile is the
        # one containing max(ks)
        for i0 in range(0, int(ks[-1]) + 1, tile):
            i1 = min(i0 + tile, int(ks[-1]) + 1)
            rows = windows[n - 1 - ks, i0:i1] + a[None, i0:i1]
            idx = np.argmin(rows, axis=1)
            vals = rows[np.arange(ks.size), idx]
            upd = vals < best  # strict: earlier tiles keep equal minima
            best[upd] = vals[upd]
            arg[upd] = idx[upd] + i0
        out[ks] = best
        split[ks] = arg
    return out, split


def oracle_convolve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interpreted, dependency-free ground truth for the kernel contract.

    Python floats are IEEE doubles, so ``a[i] + b[k-i]`` here is the
    same bit pattern the vectorized kernel produces — making
    byte-identical comparison meaningful, not merely approximate.
    """
    n = a.size
    av = a.tolist()
    bv = b.tolist()
    out = np.empty(n, dtype=np.float64)
    split = np.empty(n, dtype=np.int64)
    for k in range(n):
        best = float("inf")
        arg = 0
        for i in range(k + 1):
            v = av[i] + bv[k - i]
            if v < best:  # strict: first occurrence wins ties
                best = v
                arg = i
        out[k] = best
        split[k] = arg
    return out, split
