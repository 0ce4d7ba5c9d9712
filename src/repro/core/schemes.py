"""Scheme façade: evaluate all six cache-sharing solutions for one group.

The paper's §VII-A models six solutions per 4-program co-run group:

========  =========================================================
equal              each program gets C/P units
natural            free-for-all sharing (= natural partition, §V-A)
equal_baseline     §VI optimization, equal-partition thresholds
natural_baseline   §VI optimization, natural-partition thresholds
optimal            unconstrained DP optimum (Eq. 15)
sttw               Stone–Thiebaut–Turek–Wolf greedy (1992)
========  =========================================================

One :func:`evaluate_group` call produces every scheme's allocation,
per-program miss ratios, and access-weighted group miss ratio — the raw
material of Table I and Figures 5–7.

The schemes themselves live in the engine layer
(:mod:`repro.engine.solver`), registered once in the
:mod:`repro.engine.registry`; this module is the stable single-group
entry point (direct DP fold, no suite-level sharing) and
``SCHEMES`` is the registry-derived name tuple.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine import GroupEvaluation, GroupSolver, SchemeOutcome, scheme_names
from repro.locality.footprint import FootprintCurve
from repro.locality.mrc import MissRatioCurve

__all__ = ["SCHEMES", "SchemeOutcome", "GroupEvaluation", "evaluate_group"]

SCHEMES: tuple[str, ...] = scheme_names()


def evaluate_group(
    mrcs: Sequence[MissRatioCurve],
    footprints: Sequence[FootprintCurve],
    n_units: int,
    unit_blocks: int,
    *,
    schemes: Sequence[str] | None = None,
) -> GroupEvaluation:
    """Model every requested scheme for one co-run group.

    ``mrcs`` must be on the allocation-unit grid (``ratios[k]`` = miss
    ratio with ``k`` units); ``footprints`` are the block-level solo
    profiles used for the natural partition.  The group miss ratio is
    weighted by each program's access count (Eq. 15 works in miss counts).

    This is the engine's single-group path: the natural partition comes
    from the one exact fill-window solve, the optimum from the direct
    left fold.
    """
    solver = GroupSolver(n_units, unit_blocks, schemes=schemes)
    return solver.evaluate(mrcs, footprints)
