"""Stone–Thiebaut–Turek–Wolf (1992) cache partitioning (paper §V-B, Eqs. 12–14).

STTW allocates the next cache unit to the process with the highest
miss-count derivative, stopping when derivatives are "as equal as
possible" — optimal **iff** every miss-ratio curve is convex and
decreasing.  The paper uses it as the classic comparison point (Fig. 7,
Table I last row) and shows the convexity assumption failing in ≥34% of
groups.

This implementation is the faithful greedy: it is *meant* to inherit the
convexity flaw — on a plateau-then-cliff curve the one-step marginal gain
is zero before the cliff, so the greedy never invests there and can end up
worse than free-for-all sharing, exactly as the paper reports.

The greedy runs as one sort rather than ``budget`` argmax steps.  A
program's units are taken in order, and a unit whose gain exceeds every
earlier unit's of the same program is taken right after the unit that
set that program's running minimum — at that moment it out-gains every
other program's next unit.  So each unit's priority is its program's
running-minimum gain, and the greedy's pick order is a stable sort by
(−running-min gain, program, position), ties included.  The step-by-step
loop survives in the tests as the oracle this equivalence is checked
against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dp import validate_instance

__all__ = ["sttw_partition"]


def sttw_partition(costs: Sequence[np.ndarray], budget: int) -> np.ndarray:
    """Greedy marginal-gain allocation of ``budget`` units.

    Each step gives one unit to the program whose cost drops the most for
    that unit (Eq. 14 with the access-fraction weights already folded into
    the cost curves, which are miss *counts*).  Ties go to the
    lowest-index program.  The curves must be finite: an ``+inf`` size
    (an SLO or baseline mask) has no marginal gain the greedy could rank.

    O(P · C log(P · C)) time: one stable sort of all P · C unit gains.
    """
    validate_instance(costs, budget)
    curves = np.array([np.asarray(c, dtype=np.float64) for c in costs])
    if not np.isfinite(curves).all():
        raise ValueError("STTW needs finite cost curves; got +inf, -inf or NaN")
    # gains[i, c]: cost drop of program i's unit c + 1; a unit ranks by
    # the smallest gain of that program's units up to and including it
    gains = curves[:, :-1] - curves[:, 1:]
    rank = np.minimum.accumulate(gains, axis=1).ravel()
    # row-major order is (program, position), so a stable sort on the
    # negated rank alone breaks its ties exactly as the greedy does
    picks = np.argsort(-rank, kind="stable")[:budget] // gains.shape[1]
    return np.bincount(picks, minlength=len(costs)).astype(np.int64)
