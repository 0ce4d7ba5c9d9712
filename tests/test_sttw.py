"""Tests for the Stone–Thiebaut–Turek–Wolf greedy (Eqs. 12–14)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp import optimal_partition
from repro.core.sttw import sttw_partition


def _loop_sttw(costs, budget):
    """The greedy as the paper states it: one argmax per unit (the oracle).

    Each step gives the next unit to the program with the largest
    marginal gain, ties to the lowest index; a program at the grid end
    is out of the running.
    """
    curves = [np.asarray(c, dtype=np.float64) for c in costs]
    gains = [c[:-1] - c[1:] for c in curves]
    alloc = np.zeros(len(costs), dtype=np.int64)
    current = np.array([g[0] if g.size else -np.inf for g in gains])
    for _ in range(budget):
        i = int(np.argmax(current))
        alloc[i] += 1
        current[i] = gains[i][alloc[i]] if alloc[i] < gains[i].size else -np.inf
    return alloc


def _convex_costs(rng, n_prog, size):
    out = []
    for _ in range(n_prog):
        gains = np.sort(rng.random(size))[::-1]
        start = gains.sum() * 1.5
        out.append(np.concatenate([[start], start - np.cumsum(gains)]))
    return out


@given(st.integers(2, 4), st.integers(4, 16), st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_optimal_on_convex_curves(n_prog, size, seed):
    """On convex decreasing curves the greedy equals the DP (Stone's theorem)."""
    rng = np.random.default_rng(seed)
    costs = _convex_costs(rng, n_prog, size)
    budget = size
    greedy = sttw_partition(costs, budget)
    assert greedy.sum() == budget
    greedy_cost = sum(float(c[a]) for c, a in zip(costs, greedy))
    dp_cost = optimal_partition(costs, budget).total_cost
    assert greedy_cost == pytest.approx(dp_cost, rel=1e-9, abs=1e-9)


@given(st.integers(2, 4), st.integers(4, 12), st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_never_better_than_dp(n_prog, size, seed):
    rng = np.random.default_rng(seed)
    costs = [rng.random(size) * 10 for _ in range(n_prog)]
    budget = size - 1
    greedy = sttw_partition(costs, budget)
    greedy_cost = sum(float(c[a]) for c, a in zip(costs, greedy))
    assert greedy_cost >= optimal_partition(costs, budget).total_cost - 1e-9


@given(
    st.integers(1, 5),
    st.integers(1, 24),
    st.integers(0, 10**9),
    st.sampled_from([0.0, 1.0, 3.0]),
)
@settings(max_examples=200, deadline=None)
def test_sort_matches_the_greedy_loop(n_prog, size, seed, tie_quantum):
    """The one-sort STTW picks exactly the units the argmax loop picks.

    Snapping costs to a coarse grid manufactures tied gains and zero-gain
    plateaus; unsorted random costs make gains non-monotone (and
    negative), so a unit can out-gain the unit before it.
    """
    rng = np.random.default_rng(seed)
    costs = []
    for _ in range(n_prog):
        c = rng.random(size) * 10
        if tie_quantum:
            c = np.round(c / tie_quantum) * tie_quantum
        if rng.random() < 0.3:
            c = np.sort(c)[::-1]  # decreasing, as miss counts mostly are
        costs.append(c)
    for budget in range(size):
        assert np.array_equal(sttw_partition(costs, budget), _loop_sttw(costs, budget))


def test_misses_plateau_cliff():
    """The convexity flaw: zero marginal gain hides a future cliff."""
    cliff = np.array([10.0, 10.0, 10.0, 0.0])
    slope = np.array([5.0, 4.9, 4.8, 4.7])
    greedy = sttw_partition([cliff, slope], 3)
    assert greedy.tolist() == [0, 3]  # all units chase the tiny slope
    dp = optimal_partition([cliff, slope], 3)
    assert dp.allocation.tolist() == [3, 0]


def test_allocates_full_budget():
    costs = [np.linspace(8, 0, 9), np.linspace(4, 0, 9)]
    alloc = sttw_partition(costs, 8)
    assert alloc.sum() == 8


def test_equal_derivative_split():
    """Two identical strictly-convex curves: derivative equalization (Eq. 13)
    splits the budget evenly."""
    c = (10.0 - np.arange(11)) ** 2
    alloc = sttw_partition([c, c.copy()], 10)
    assert sorted(alloc.tolist()) == [5, 5]


def test_validation():
    with pytest.raises(ValueError, match="equal length"):
        sttw_partition([np.zeros(4), np.zeros(3)], 2)
    with pytest.raises(ValueError, match="grid"):
        sttw_partition([np.zeros(4)], 4)
    with pytest.raises(ValueError, match="at least one"):
        sttw_partition([], 0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_costs_raise(bad):
    """A masked size has no marginal gain to rank.

    Regression: ``inf - inf`` made the first gain NaN and the greedy
    silently allocated nothing, ``[0, 0]`` for a budget of 2.
    """
    with pytest.raises(ValueError, match="finite"):
        sttw_partition([np.array([bad, 3.0, 1.0]), np.array([4.0, 2.0, 1.0])], 2)


def test_zero_budget():
    assert sttw_partition([np.zeros(3), np.zeros(3)], 0).tolist() == [0, 0]
