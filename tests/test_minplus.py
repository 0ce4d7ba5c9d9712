"""Property tests for the (min,+) convolution kernel and fold."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import convolve
from repro.core.minplus import fold_curves

finite_curve = st.lists(
    st.floats(0, 100, allow_nan=False), min_size=1, max_size=24
).map(lambda xs: np.array(xs))


def curve_with_inf(min_size=1, max_size=24):
    return st.lists(
        st.one_of(st.floats(0, 100, allow_nan=False), st.just(float("inf"))),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda xs: np.array(xs))


def naive_minplus(a, b):
    n = a.size
    out = np.empty(n)
    split = np.empty(n, dtype=np.int64)
    for k in range(n):
        row = a[: k + 1] + b[k::-1]
        split[k] = int(np.argmin(row))
        out[k] = row[split[k]]
    return out, split


@given(st.integers(1, 24).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=n, max_size=n),
        st.lists(st.floats(0, 100, allow_nan=False), min_size=n, max_size=n),
    )
))
@settings(max_examples=150)
def test_matches_naive(ab):
    a, b = np.array(ab[0]), np.array(ab[1])
    out, split = convolve(a, b)
    ref_out, ref_split = naive_minplus(a, b)
    assert np.allclose(out, ref_out)
    assert np.array_equal(split, ref_split)


def test_handles_infinities():
    a = np.array([np.inf, 1.0, np.inf])
    b = np.array([5.0, np.inf, 2.0])
    out, split = convolve(a, b)
    assert out[0] == np.inf  # only a[0]+b[0] = inf
    assert out[1] == pytest.approx(6.0) and split[1] == 1  # a[1]+b[0]
    assert out[2] == np.inf  # every split blocked by an inf operand
    all_inf, _ = convolve(np.full(3, np.inf), b)
    assert np.all(np.isinf(all_inf))


def test_commutative_in_value():
    rng = np.random.default_rng(0)
    a, b = rng.random(20), rng.random(20)
    out_ab, _ = convolve(a, b)
    out_ba, _ = convolve(b, a)
    assert np.allclose(out_ab, out_ba)


def test_associative_in_value():
    rng = np.random.default_rng(1)
    a, b, c = rng.random(15), rng.random(15), rng.random(15)
    left, _ = convolve(*((convolve(a, b)[0], c)))
    right, _ = convolve(a, convolve(b, c)[0])
    assert np.allclose(left, right)


def test_shape_validation():
    with pytest.raises(ValueError):
        convolve(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        convolve(np.ones((2, 2)), np.ones((2, 2)))


@given(st.integers(2, 5), st.integers(3, 16), st.integers(0, 1_000_000))
@settings(max_examples=100)
def test_fold_allocation_realizes_cost(n_prog, size, seed):
    rng = np.random.default_rng(seed)
    costs = [rng.random(size) * 10 for _ in range(n_prog)]
    fold = fold_curves(costs)
    for budget in (0, size // 2, size - 1):
        alloc = fold.allocate(budget)
        assert alloc.sum() == budget
        assert np.all(alloc >= 0)
        realized = sum(float(c[a]) for c, a in zip(costs, alloc))
        assert realized == pytest.approx(fold.cost(budget))


@given(st.integers(3, 14), st.integers(0, 10**9))
@settings(max_examples=100)
def test_fold_is_true_minimum(size, seed):
    """Exhaustive cross-check of the fold against all 3-way splits."""
    rng = np.random.default_rng(seed)
    costs = [rng.random(size) * 5 for _ in range(3)]
    fold = fold_curves(costs)
    budget = size - 1
    best = min(
        costs[0][i] + costs[1][j] + costs[2][budget - i - j]
        for i in range(budget + 1)
        for j in range(budget + 1 - i)
    )
    assert fold.cost(budget) == pytest.approx(best)


def test_fold_single_curve():
    c = np.array([3.0, 2.0, 5.0])
    fold = fold_curves([c])
    assert fold.n_programs == 1
    assert fold.cost(1) == 2.0
    assert fold.allocate(2).tolist() == [2]


def test_fold_infeasible_budget_raises():
    a = np.array([np.inf, 0.0])
    b = np.array([np.inf, 0.0])
    fold = fold_curves([a, b])
    with pytest.raises(ValueError):
        fold.allocate(1)  # needs 1+1=2 units; only 1 available
    with pytest.raises(ValueError):
        fold.allocate(5)  # outside grid


def test_fold_empty_rejected():
    with pytest.raises(ValueError):
        fold_curves([])


def test_nan_and_negative_inf_costs_are_rejected():
    """Both made the kernel's comparisons pick wrong splits silently:
    ``convolve(a, b)`` returned all ``+inf`` where the oracle gives
    [9, 8, 5, 4], and ``fold_curves([b, a, c]).allocate(3)`` returned
    [0, 0, 3] at 9.0 although [0, 2, 1] costs 7.0."""
    b = np.array([4.0, 3.0, 2.0, 1.0])
    c = np.array([3.0, 2.0, 1.0, 0.0])
    for bad in (np.nan, -np.inf):
        a = np.array([5.0, bad, 1.0, 0.5])
        for call in (
            lambda: convolve(a, b),
            lambda: convolve(b, a),
            lambda: fold_curves([b, a, c]),
            lambda: fold_curves([a]),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()
