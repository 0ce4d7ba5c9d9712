"""Tests for partition-sharing enumeration and the reduction theorem (§II, §V)."""

import numpy as np
import pytest

from repro.core.dp import optimal_partition
from repro.core.partition_sharing import (
    group_cost_curve,
    optimal_partition_sharing,
    set_partitions,
)
from repro.core.searchspace import stirling2
from repro.locality.footprint import average_footprint
from repro.locality.mrc import MissRatioCurve
from repro.workloads import cyclic, sawtooth, uniform_random, zipf


def test_set_partitions_counts_are_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        parts = list(set_partitions(range(n)))
        assert len(parts) == bell
        # each partition covers every element exactly once
        for groups in parts:
            flat = sorted(i for grp in groups for i in grp)
            assert flat == list(range(n))
        # distribution over group counts matches Stirling numbers
        by_k: dict[int, int] = {}
        for groups in parts:
            by_k[len(groups)] = by_k.get(len(groups), 0) + 1
        for k, count in by_k.items():
            assert count == stirling2(n, k)


def test_set_partitions_empty():
    assert list(set_partitions([])) == [[]]


def _suite():
    return [
        average_footprint(uniform_random(4000, 120, seed=0, name="u")),
        average_footprint(zipf(4000, 80, alpha=1.2, seed=1, name="z")),
        average_footprint(cyclic(4000, 60, name="c")),
    ]


def test_group_cost_curve_shape_and_monotonicity():
    fps = _suite()
    curve = group_cost_curve(fps, n_units=12, unit_blocks=16)
    assert curve.shape == (13,)
    assert curve[0] == pytest.approx(sum(fp.n for fp in fps))
    assert np.all(np.diff(curve) <= 1e-6)  # more cache never hurts


def test_singleton_group_curve_is_solo_miss_count():
    fps = [average_footprint(sawtooth(3000, 90, name="s"))]
    curve = group_cost_curve(fps, n_units=10, unit_blocks=16)
    mrc = MissRatioCurve.from_footprint(fps[0], 160).resample(16, 10)
    assert np.allclose(curve, mrc.miss_counts(), atol=fps[0].n * 5e-3)


def test_optimal_partition_sharing_explores_all_groupings():
    fps = _suite()
    res = optimal_partition_sharing(fps, n_units=8, unit_blocks=16)
    assert len(res.per_grouping_cost) == 5  # Bell(3)
    assert res.total_misses == pytest.approx(min(res.per_grouping_cost.values()))
    assert res.group_units.sum() == 8
    assert res.n_partitions == len(res.grouping)


def test_reduction_theorem_under_composition():
    """§V-A: under the composition model, the singleton grouping (pure
    partitioning) is optimal up to allocation granularity.  Coarse walls
    can make a shared partition beat unit-grid partitioning (a shared
    partition splits sub-unit), so the check compares against the
    block-granularity DP lower bound as well."""
    fps = _suite()
    n_units, unit = 8, 16
    res = optimal_partition_sharing(fps, n_units, unit)
    singleton = tuple((i,) for i in range(len(fps)))
    singleton_cost = res.per_grouping_cost[singleton]

    # block-granularity partitioning bound <= any partition-sharing cost
    costs_fine = [
        MissRatioCurve.from_footprint(fp, n_units * unit).miss_counts()
        for fp in fps
    ]
    fine = optimal_partition(costs_fine, n_units * unit)
    assert fine.total_cost <= res.total_misses + 1e-6 * fps[0].n
    # and the singleton grouping is within granularity slack of the best
    assert res.total_misses <= singleton_cost + 1e-9
    slack = singleton_cost - res.total_misses
    assert slack <= (singleton_cost - fine.total_cost) + 1e-6 * fps[0].n


def test_sharing_advantage_vanishes_at_block_granularity():
    """The paper's §II expectation: partitioning-only approaches optimal
    partition-sharing as granularity increases.  At block granularity the
    singleton grouping is (numerically) optimal."""
    fps = _suite()
    coarse = optimal_partition_sharing(fps, n_units=2, unit_blocks=64)
    fine = optimal_partition_sharing(fps, n_units=128, unit_blocks=1)
    singleton = tuple((i,) for i in range(len(fps)))

    def rel_gap(res):
        return (res.per_grouping_cost[singleton] - res.total_misses) / max(
            res.total_misses, 1.0
        )

    assert rel_gap(fine) < 0.01
    assert rel_gap(fine) <= rel_gap(coarse) + 1e-9


def test_optimal_partition_sharing_rejects_nan_group_curves(monkeypatch):
    """The wall placement folds group curves with fold_curves directly,
    so a NaN or -inf group cost raises instead of picking a wrong split."""
    from repro.core import partition_sharing

    b = np.array([4.0, 3.0, 2.0, 1.0])
    c = np.array([3.0, 2.0, 1.0, 0.0])
    for bad in (np.nan, -np.inf):
        solo = {"b": b, "a": np.array([5.0, bad, 1.0, 0.5]), "c": c}
        monkeypatch.setattr(
            partition_sharing,
            "group_cost_curve",
            lambda fps, n_units, unit_blocks: solo[fps[0]] if len(fps) == 1 else c,
        )
        with pytest.raises(ValueError, match="finite"):
            partition_sharing.optimal_partition_sharing(["b", "a", "c"], 3, 1)
