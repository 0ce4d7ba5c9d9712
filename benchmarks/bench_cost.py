"""§VII-A analysis cost — optimizer timings, plus the pair-memoization ablation.

Paper reference: the authors' C++ DP optimizes a 4-program group on a
1024-unit grid in ~0.21 s (STTW: 0.11 s), 1820 groups in ~4-5 minutes on a
2012 laptop.  These benchmarks time our NumPy implementation of the same
kernels at the active grid, and measure the ablation called out in
DESIGN.md: sharing the 120 two-program min-plus curves across the 1820
groups versus folding every group from scratch.
"""

BENCH_AREA = "cost"
BENCH_TIER = "quick"
BENCH_TIERS = {
    "bench_ablation_pair_memoization": "full",
    "bench_parallel_sweep": "full",
}

import numpy as np
import pytest

from repro.composition.corun import CorunSolver
from repro.core.baselines import equal_baseline_partition
from repro.core.dp import optimal_partition
from repro.core.kernels import convolve
from repro.core.sttw import sttw_partition
from repro.perf import record_metric


@pytest.fixture(scope="module")
def group_costs(suite_profile):
    costs = [m.miss_counts() for m in suite_profile.mrcs]
    return [costs[i] for i in (12, 2, 4, 6)]  # lbm, mcf, namd, soplex


def bench_minplus_convolve(group_costs, benchmark):
    """One min-plus convolution of a workload pair at the active grid."""
    a, b = group_costs[0], group_costs[1]
    out, _ = benchmark(convolve, a, b)
    assert out.shape == a.shape


def bench_optimal_partition_per_group(group_costs, suite_profile, benchmark):
    """The paper's 0.21 s/group data point (theirs: C++, 1024 units)."""
    n_units = suite_profile.config.n_units
    res = benchmark(optimal_partition, group_costs, n_units)
    assert res.allocation.sum() == n_units
    record_metric("optimal_total_cost", res.total_cost, direction="lower")


def bench_sttw_per_group(group_costs, suite_profile, benchmark):
    """The paper's 0.11 s/group STTW data point."""
    n_units = suite_profile.config.n_units
    alloc = benchmark(sttw_partition, group_costs, n_units)
    assert alloc.sum() == n_units
    record_metric(
        "sttw_total_cost",
        sum(float(c[a]) for c, a in zip(group_costs, alloc)),
        direction="lower",
    )


def bench_equal_baseline_per_group(group_costs, suite_profile, benchmark):
    n_units = suite_profile.config.n_units
    res = benchmark(equal_baseline_partition, group_costs, n_units)
    assert res.allocation.sum() == n_units


def bench_corun_solver_build(suite_profile, benchmark):
    """Natural-partition solver construction (per-group setup cost)."""
    fps = [suite_profile.footprints[i] for i in (12, 2, 4, 6)]
    cb = suite_profile.config.cache_blocks
    solver = benchmark(CorunSolver, fps, cb)
    assert solver.predict(cb).occupancies.sum() == pytest.approx(cb, rel=0.01)


def bench_footprint_profiling(suite_profile, benchmark):
    """Solo profiling cost per program (the paper cites 23x trace slowdown
    for full-trace footprint; ours is a vectorized O(n) pass)."""
    from repro.locality.footprint import average_footprint
    from repro.workloads.spec import make_program

    trace = make_program("mcf", suite_profile.config.cache_blocks)
    fp = benchmark(average_footprint, trace)
    assert fp.n == len(trace)


def bench_ablation_pair_memoization(suite_profile, benchmark):
    """DESIGN.md ablation: FoldCache pair-curve reuse vs direct folds.

    Times 100 groups through both paths and reports the speedup; the
    results must agree exactly.  Also checks that the engine's lazy
    FoldCache memoizes at least as well as the old eager pair tables
    (which pre-built all 120 pair curves whether needed or not).  The
    engine reads each group's final stage with a point query instead of a
    cache request, so only pair lookups count: over G groups (2 G pair
    requests) the old tables' pair hit rate was ``1 - 120 / (2 G)``.
    """
    from itertools import combinations

    from repro.engine import FoldCache, GroupContext, GroupSolver, SweepShared

    costs = [m.miss_counts() for m in suite_profile.mrcs]
    n_units = suite_profile.config.n_units
    unit_blocks = suite_profile.config.unit_blocks
    groups = list(combinations(range(16), 4))[:100]

    def direct():
        return [optimal_partition([costs[i] for i in g], n_units).total_cost
                for g in groups]

    def memoized():
        cache = FoldCache(max_entries=4096)
        solver = GroupSolver(
            n_units, unit_blocks, schemes=("optimal",),
            fold_cache=cache, shared=SweepShared(costs=costs), natural="grid",
        )
        totals = []
        for g in groups:
            ctx = GroupContext(
                solver,
                [suite_profile.mrcs[i] for i in g],
                [suite_profile.footprints[i] for i in g],
                tuple(g),
            )
            alloc = ctx.pair_tree_allocate(costs, "opt")
            totals.append(sum(float(costs[i][a]) for i, a in zip(g, alloc)))
        return totals, cache

    import time

    t0 = time.perf_counter()
    d = direct()
    t_direct = time.perf_counter() - t0
    m, cache = benchmark.pedantic(memoized, rounds=1, iterations=1)
    assert np.allclose(d, m)
    old_hit_rate = 1.0 - 120 / (2 * len(groups))
    st = cache.stats()
    print(f"\ndirect fold: {t_direct:.2f}s for {len(groups)} groups "
          f"(pair-memoized path timed by the harness above)")
    print(f"FoldCache: {st['hits']:,} hits / {st['lookups']:,} lookups "
          f"({st['hit_ratio']:.1%}; old eager pair tables: {old_hit_rate:.1%}), "
          f"{st['entries']:,}/{st['max_entries']:,} entries, "
          f"{st['evictions']:,} evictions")
    assert cache.hit_ratio >= old_hit_rate
    record_metric("fold_cache_hit_ratio", cache.hit_ratio, unit="ratio", direction="higher")
    record_metric("direct_fold_wall_s", t_direct, unit="s", direction="lower", noisy=True)


def bench_parallel_sweep(suite_profile, benchmark):
    """ISSUE 3 acceptance: the n_jobs=4 sweep matches serial bit-for-bit
    and, when the host actually has >= 4 CPUs, is >= 2x faster."""
    import os
    import time

    from itertools import combinations

    from repro.experiments.methodology import run_study

    groups = list(combinations(range(len(suite_profile.names)), 4))[:400]

    t0 = time.perf_counter()
    serial = run_study(suite_profile, groups=groups, n_jobs=1)
    t_serial = time.perf_counter() - t0

    timing = {}

    def run_parallel():
        t = time.perf_counter()
        result = run_study(suite_profile, groups=groups, n_jobs=4)
        timing["wall"] = time.perf_counter() - t
        return result

    parallel = benchmark.pedantic(run_parallel, rounds=1, iterations=1)
    t_parallel = timing["wall"]

    assert np.array_equal(serial.group_mr, parallel.group_mr)
    assert np.array_equal(serial.program_mr, parallel.program_mr)
    assert np.array_equal(serial.allocations, parallel.allocations)
    speedup = t_serial / t_parallel
    print(f"\nserial {t_serial:.2f}s, n_jobs=4 {t_parallel:.2f}s "
          f"-> {speedup:.2f}x on {os.cpu_count()} CPUs")
    st = parallel.fold_cache_stats
    print(f"fold cache (merged across {st['workers']} workers): "
          f"{st['hits']:,} hits / {st['lookups']:,} lookups "
          f"({st['hit_ratio']:.1%}), {st['entries']:,} entries, "
          f"{st['evictions']:,} evictions")
    record_metric("parallel_speedup_x4", speedup, direction="higher", noisy=True)
    record_metric(
        "fold_cache_hit_ratio_parallel", st["hit_ratio"], unit="ratio", direction="higher"
    )
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0
