"""Tests for the optimal-partitioning DP (Eq. 15/16) against oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp import (
    brute_force_partition,
    cost_fingerprint,
    curve_fingerprint,
    optimal_partition,
)
from repro.core.minplus import fold_curves
from repro.core.sttw import sttw_partition


@given(
    st.integers(2, 4),
    st.integers(4, 12),
    st.integers(0, 10**9),
    st.floats(0.0, 0.3),
    st.floats(0.0, 0.5),
    st.sampled_from([0.0, 2.0]),
)
@settings(max_examples=120, deadline=None)
def test_dp_matches_brute_force(n_prog, size, seed, inf_fraction, prefix_fraction, tie_quantum):
    """DP = brute force, and the prefix-trimmed solve = the full fold.

    Curves draw interior ``+inf`` holes and a leading ``+inf`` prefix
    (the shape the §VI baselines give every curve) that the solve trims
    off; snapping to a coarse grid manufactures ties.  Every budget is
    solved, so curves longer than the budget are trimmed at both ends.
    Allocation and total bytes must equal the untrimmed full-grid fold's.
    """
    rng = np.random.default_rng(seed)
    costs = []
    for _ in range(n_prog):
        c = rng.random(size) * 10
        if tie_quantum:
            c = np.round(c / tie_quantum) * tie_quantum
        c[rng.random(size) < inf_fraction] = np.inf
        c[: rng.integers(0, int(prefix_fraction * size) + 1)] = np.inf
        costs.append(c)
    full = fold_curves(costs)
    for budget in range(size):
        try:
            bf_alloc, bf_cost = brute_force_partition(costs, budget)
        except ValueError:
            # constraints can make the exact budget unreachable; the DP
            # must refuse identically rather than return a
            # constraint-violating allocation
            with pytest.raises(ValueError, match="no feasible"):
                optimal_partition(costs, budget)
            continue
        res = optimal_partition(costs, budget)
        assert res.total_cost == pytest.approx(bf_cost)
        assert res.allocation.sum() == budget
        realized = sum(float(c[a]) for c, a in zip(costs, res.allocation))
        assert realized == pytest.approx(res.total_cost)
        assert np.array_equal(res.allocation, full.allocate(budget))
        assert np.float64(res.total_cost).tobytes() == full.total[budget].tobytes()


def test_dp_on_convex_curves_matches_sttw():
    """On convex decreasing curves the 1992 greedy is optimal (Eq. 13)."""
    rng = np.random.default_rng(42)
    size = 40
    costs = []
    for _ in range(4):
        drops = np.sort(rng.random(size))[::-1]  # decreasing marginal gains
        c = np.concatenate([[drops.sum() * 2], drops.sum() * 2 - np.cumsum(drops)])
        costs.append(c)
    budget = size
    dp = optimal_partition(costs, budget)
    greedy = sttw_partition(costs, budget)
    greedy_cost = sum(float(c[a]) for c, a in zip(costs, greedy))
    assert greedy_cost == pytest.approx(dp.total_cost, rel=1e-9)


def test_dp_handles_cliff_that_breaks_sttw():
    """A plateau-then-cliff program: DP invests through the plateau,
    the greedy never does (the paper's §VII-B finding in miniature)."""
    n = 10
    cliff = np.array([100.0] * 9 + [0.0, 0.0])  # useless until 9 units
    gentle = 50.0 - np.arange(11) * 1e-3  # tiny but always-positive gains
    costs = [cliff, gentle]
    dp = optimal_partition(costs, n)
    assert dp.allocation[0] >= 9  # DP pays for the cliff
    greedy = sttw_partition(costs, n)
    greedy_cost = sum(float(c[a]) for c, a in zip(costs, greedy))
    assert greedy_cost > dp.total_cost  # STTW strictly suboptimal here


def test_cost_curve_byproduct_monotone_for_decreasing_inputs():
    rng = np.random.default_rng(7)
    costs = [np.sort(rng.random(30))[::-1] for _ in range(3)]
    curve = fold_curves(costs).total
    assert curve.shape == (30,)
    assert np.all(np.diff(curve) <= 1e-12)


def test_budget_validation():
    costs = [np.zeros(5), np.zeros(5)]
    with pytest.raises(ValueError):
        optimal_partition(costs, 5)
    with pytest.raises(ValueError):
        optimal_partition(costs, -1)
    with pytest.raises(ValueError):
        optimal_partition([np.zeros(5), np.zeros(4)], 3)
    # NaN and -inf costs make the kernel's comparisons pick wrong splits
    # silently: [b, a, c] solved to [0, 0, 3] at 9.0 although [0, 2, 1]
    # costs 7.0, and [a, b, c] claimed no feasible allocation
    b = np.array([4.0, 3.0, 2.0, 1.0])
    c = np.array([3.0, 2.0, 1.0, 0.0])
    for bad in (np.nan, -np.inf):
        a = np.array([5.0, bad, 1.0, 0.5])
        for order in ([b, a, c], [a, b, c]):
            with pytest.raises(ValueError, match="finite"):
                optimal_partition(order, 3)
    # +inf is the constraint marker and stays legal
    assert optimal_partition([np.array([np.inf, 1.0]), np.zeros(2)], 1).total_cost == 1.0


def test_single_program_gets_everything():
    costs = [np.array([5.0, 3.0, 1.0])]
    res = optimal_partition(costs, 2)
    assert res.allocation.tolist() == [2]
    assert res.total_cost == 1.0


def test_zero_budget():
    costs = [np.array([4.0, 0.0]), np.array([6.0, 0.0])]
    res = optimal_partition(costs, 0)
    assert res.allocation.tolist() == [0, 0]
    assert res.total_cost == 10.0


def test_brute_force_skips_infeasible():
    costs = [np.array([np.inf, 1.0, 0.5]), np.array([2.0, 1.0, 0.1])]
    alloc, cost = brute_force_partition(costs, 2)
    assert alloc.tolist() == [1, 1]
    assert cost == pytest.approx(2.0)


def test_brute_force_raises_on_infeasible_like_the_dp():
    """Oracle and DP share one contract: infeasible instances raise.

    Regression: brute_force_partition used to return ``(zeros, inf)``,
    so a DP-vs-oracle comparison on an infeasible instance could pass
    silently against the sentinel instead of exercising either solver.
    """
    # both programs need >= 2 units, but the budget only covers one
    costs = [np.array([np.inf, np.inf, 1.0]), np.array([np.inf, np.inf, 1.0])]
    with pytest.raises(ValueError, match="no feasible"):
        brute_force_partition(costs, 2)
    with pytest.raises(ValueError, match="no feasible"):
        optimal_partition(costs, 2)


def test_fingerprint_normalizes_negative_zero():
    """Quantization can round tiny negatives to -0.0; the digest must not
    distinguish it from +0.0 (both are the same lattice point)."""
    neg = [np.array([-0.2, 1.0])]
    pos = [np.array([0.2, 1.0])]
    assert cost_fingerprint(neg, 0, quantum=1.0) == cost_fingerprint(pos, 0, quantum=1.0)
    assert curve_fingerprint(neg[0], quantum=1.0) == curve_fingerprint(pos[0], quantum=1.0)
    # unquantized digests still see the raw bytes (exact-match semantics)
    assert cost_fingerprint(neg, 0) != cost_fingerprint(pos, 0)


def test_fingerprint_sensitive_to_quantum_and_budget():
    c = [np.array([0.5, 1.5])]
    assert cost_fingerprint(c, 0, quantum=1.0) != cost_fingerprint(c, 1, quantum=1.0)
    assert cost_fingerprint(c, 0, quantum=1.0) != cost_fingerprint(c, 0, quantum=0.5)
    assert curve_fingerprint(c[0], quantum=1.0) != curve_fingerprint(c[0], quantum=0.5)
