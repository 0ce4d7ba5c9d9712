"""The kernel contract: :func:`convolve` is bit-exact vs the oracle.

Bit-exact means byte-identical ``out`` values AND byte-identical
``split`` tie-breaks — including ``+inf`` constraint entries and
tie-heavy plateaus, where an argmin that scans in a different order
would still produce equal *values* but different *splits*.  The
tiled kernel merges per-tile partial minima, so the contract has to
hold across tile boundaries too, at the paper's 1025-cell grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import convolve, oracle_convolve
from repro.core.minplus import MinPlusFold, convolve_at, fold_curves


def _random_instance(rng, size, inf_fraction, tie_quantum):
    """A curve pair with controllable ties and +inf plateaus."""
    a = rng.random(size) * 8
    b = rng.random(size) * 8
    if tie_quantum:
        # snapping to a coarse grid manufactures ties, stressing the
        # first-occurrence argmin rule rather than just the min values
        a = np.round(a / tie_quantum) * tie_quantum
        b = np.round(b / tie_quantum) * tie_quantum
    for c in (a, b):
        mask = rng.random(size) < inf_fraction
        c[mask] = np.inf
    return a, b


def test_convolve_validates_shapes():
    with pytest.raises(ValueError, match="equal length"):
        convolve(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="1-D"):
        convolve(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="equal length"):
        convolve_at(np.zeros(3), np.zeros(4), 0)
    for k in (-1, 3):  # a negative k would silently read b reversed whole
        with pytest.raises(ValueError, match="k must be"):
            convolve_at(np.zeros(3), np.zeros(3), k)


# ----------------------------------------------------------------- parity
@given(
    st.integers(1, 48),
    st.integers(0, 10**9),
    st.floats(0.0, 0.4),
    st.sampled_from([0.0, 2.0, 8.0]),
)
@settings(max_examples=60, deadline=None)
def test_convolve_bit_exact_vs_oracle(size, seed, inf_fraction, tie_quantum):
    """Byte-identical totals AND argmin tie-breaks, cell by cell too.

    The point query ``convolve_at`` must return the same cell as the
    full convolution for every ``k`` — all-``+inf`` cells (split 0) and
    tie-heavy cells included — since callers swap one for the other.
    """
    rng = np.random.default_rng(seed)
    a, b = _random_instance(rng, size, inf_fraction, tie_quantum)
    want_out, want_split = oracle_convolve(a, b)
    got_out, got_split = convolve(a, b)
    assert got_out.tobytes() == want_out.tobytes()
    assert got_split.tobytes() == want_split.tobytes()
    for k in range(size):
        value, split = convolve_at(a, b, k)
        assert np.float64(value).tobytes() == want_out[k].tobytes(), k
        assert split == want_split[k], k


def test_production_tile_at_the_paper_size():
    """n = 1025: four full 256-wide tiles and a partial one, merged.

    Ties come from a coarse value grid and ``+inf`` plateaus from masked
    runs, including one straddling the 256/512 tile edges, so the strict
    ``<`` merge across ascending tiles must keep the first occurrence.
    """
    n = 1025
    rng = np.random.default_rng(1025)
    a = np.round(rng.random(n) * 4, 0)
    b = np.round(rng.random(n) * 4, 0)
    a[:40] = np.inf  # an infeasible prefix: the early rows are all +inf
    a[240:530] = np.inf  # a plateau across two tile edges
    b[700:900] = np.inf
    b[rng.random(n) < 0.1] = np.inf
    want_out, want_split = oracle_convolve(a, b)
    got_out, got_split = convolve(a, b)
    assert got_out.tobytes() == want_out.tobytes()
    assert got_split.tobytes() == want_split.tobytes()
    assert np.isinf(want_out[:40]).all() and (want_split[:40] == 0).all()
    for k in (0, 255, 256, 511, 1024):
        value, split = convolve_at(a, b, k)
        assert np.float64(value).tobytes() == want_out[k].tobytes(), k
        assert split == want_split[k], k


def test_all_inf_rows_report_split_zero():
    """An all-infeasible output cell reports split 0."""
    a = np.array([np.inf, np.inf, np.inf])
    b = np.array([np.inf, 1.0, np.inf])
    out, split = convolve(a, b)
    assert np.all(np.isinf(out))
    assert split.tolist() == [0, 0, 0]


def test_constant_curves_tie_everywhere():
    """Flat curves tie at every i; the split must always be 0."""
    a = np.full(16, 2.5)
    b = np.full(16, 2.5)
    out, split = convolve(a, b)
    assert np.all(out == 5.0)
    assert np.all(split == 0)


def test_blocked_kernel_tile_boundaries():
    """Tiny tiles force every merge path: partial tiles, cross-tile ties."""
    rng = np.random.default_rng(11)
    for size in (1, 2, 3, 7, 8, 9, 17):
        a, b = _random_instance(rng, size, 0.2, 2.0)
        want_out, want_split = oracle_convolve(a, b)
        for tile in (1, 2, 3, 5):
            got_out, got_split = kernels._blocked_convolve_impl(a, b, tile=tile)
            assert got_out.tobytes() == want_out.tobytes(), (size, tile)
            assert got_split.tobytes() == want_split.tobytes(), (size, tile)


def test_fold_curves_matches_an_oracle_fold():
    """The whole DP — totals, splits, allocation — equals a left fold of
    :func:`oracle_convolve`, byte for byte."""
    rng = np.random.default_rng(23)
    costs = [np.round(rng.random(33) * 4, 1) for _ in range(5)]
    costs[2][5:] = np.inf  # a constraint plateau in the middle program
    running = costs[0]
    splits = []
    for curve in costs[1:]:
        running, split = oracle_convolve(running, curve)
        splits.append(split)
    want = MinPlusFold(total=running, splits=tuple(splits))
    got = fold_curves(costs)
    assert got.total.tobytes() == want.total.tobytes()
    for gs, ws in zip(got.splits, want.splits):
        assert gs.tobytes() == ws.tobytes()
    assert np.array_equal(got.allocate(20), want.allocate(20))
