"""Composition theory: stretched footprints, co-run prediction, natural partition."""

from repro.composition.corun import (
    CoRunPrediction,
    group_miss_counts,
    group_miss_ratio_eq11,
    natural_partition,
    predict_corun,
    solve_fill_window,
)
from repro.composition.sensitivity import RateSensitivity, rate_sensitivity
from repro.composition.stretch import ComposedFootprint, compose_footprints

__all__ = [
    "CoRunPrediction",
    "group_miss_counts",
    "group_miss_ratio_eq11",
    "natural_partition",
    "predict_corun",
    "solve_fill_window",
    "ComposedFootprint",
    "compose_footprints",
    "RateSensitivity",
    "rate_sensitivity",
]
