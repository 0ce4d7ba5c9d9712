"""The engine layer: registry, FoldCache, GroupSolver, and parity pins.

The refactor's contract is behavioural invisibility: the study, the
single-group façade, the dynamic planners, and the online solver cache
must produce bit-identical results through the engine.  The golden file
``tests/golden/study_small.npz`` was generated by the pre-engine
``run_study`` on the mini configuration and pins that for the sweep.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.minplus import fold_curves_stages
from repro.core.schemes import SCHEMES, evaluate_group
from repro.engine import (
    FoldCache,
    GroupSolver,
    SweepShared,
    get_scheme,
    register_scheme,
    resolve_schemes,
    scheme_names,
)
from repro.experiments.methodology import STUDY_SCHEMES, run_study

GOLDEN = Path(__file__).parent / "golden" / "study_small.npz"


# ------------------------------------------------------------------ registry
def test_registry_has_the_six_paper_schemes_in_order():
    assert scheme_names() == (
        "equal",
        "natural",
        "equal_baseline",
        "natural_baseline",
        "optimal",
        "sttw",
    )


def test_scheme_tuples_are_registry_derived():
    """The old SCHEMES/STUDY_SCHEMES duplicates must agree in names AND order."""
    assert SCHEMES == scheme_names()
    assert STUDY_SCHEMES == scheme_names()
    assert SCHEMES is not None and SCHEMES == STUDY_SCHEMES


def test_get_scheme_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown scheme"):
        get_scheme("bogus")


def test_register_duplicate_raises_unless_replace():
    def solve(ctx):  # pragma: no cover - never called
        raise AssertionError

    with pytest.raises(ValueError, match="already registered"):
        register_scheme("optimal", solve)
    original = get_scheme("optimal")
    register_scheme("optimal", solve, replace=True)
    try:
        assert get_scheme("optimal").solve is solve
    finally:
        register_scheme("optimal", original.solve, replace=True)
    assert get_scheme("optimal").solve is original.solve


def test_resolve_schemes_preserves_request_order():
    names = tuple(s.name for s in resolve_schemes(("sttw", "equal")))
    assert names == ("sttw", "equal")
    assert tuple(s.name for s in resolve_schemes(None)) == scheme_names()


# ----------------------------------------------------------------- FoldCache
def test_foldcache_convolve_memoizes_by_key():
    rng = np.random.default_rng(7)
    a, b = rng.random(33), rng.random(33)
    cache = FoldCache()
    out1, split1 = cache.convolve(a, b, key=("pair", "t", 0, 1))
    out2, split2 = cache.convolve(a, b, key=("pair", "t", 0, 1))
    assert out1 is out2 and split1 is split2
    assert cache.hits == 1 and cache.misses == 1
    # content-keyed path: same arrays collide without an explicit token
    out3, _ = cache.convolve(a, b)
    out4, _ = cache.convolve(a, b)
    assert out3 is out4


def test_foldcache_convolve_matches_unmemoized():
    from repro.core.kernels import convolve

    rng = np.random.default_rng(11)
    a, b = rng.random(20), rng.random(20)
    expect_out, expect_split = convolve(a, b)
    out, split = FoldCache().convolve(a, b)
    assert np.array_equal(out, expect_out)
    assert np.array_equal(split, expect_split)


def test_foldcache_lru_eviction_keeps_hot_entries():
    cache = FoldCache(max_entries=2)
    cache["a"] = 1
    cache["b"] = 2
    assert cache.get("a") == 1  # touch "a": now "b" is the LRU entry
    cache["c"] = 3
    assert "b" not in cache and "a" in cache and "c" in cache
    assert len(cache) == 2


def test_foldcache_solve_matches_direct_dp():
    from repro.core.dp import optimal_partition

    rng = np.random.default_rng(3)
    costs = [np.sort(rng.random(17))[::-1].copy() for _ in range(3)]
    cache = FoldCache()
    res1 = cache.solve(costs, 16)
    res2 = cache.solve(costs, 16)
    assert res1 is res2  # second call is a fingerprint hit
    direct = optimal_partition(costs, 16)
    assert np.array_equal(res1.allocation, direct.allocation)
    assert res1.total_cost == direct.total_cost


def test_foldcache_validates_parameters():
    with pytest.raises(ValueError):
        FoldCache(quantum=-1.0)
    with pytest.raises(ValueError):
        FoldCache(max_entries=0)
    with pytest.raises(ValueError):
        FoldCache().solve([np.zeros(4)], 2, quantum=-0.5)


# ------------------------------------------------------------- golden parity
def test_run_study_matches_pre_engine_golden(mini_study):
    """Bit-identical to the pinned pre-refactor sweep on the mini config."""
    g = np.load(GOLDEN, allow_pickle=False)
    assert tuple(g["schemes"]) == mini_study.schemes
    assert np.array_equal(g["groups"], mini_study.groups)
    assert np.array_equal(g["group_mr"], mini_study.group_mr)
    assert np.array_equal(g["program_mr"], mini_study.program_mr)
    assert np.array_equal(g["allocations"], mini_study.allocations)


def test_parallel_sweep_is_bit_identical(mini_profile, mini_study):
    """n_jobs > 1 fans chunks to worker processes; same StudyResult."""
    par = run_study(mini_profile, n_jobs=2)
    assert par.schemes == mini_study.schemes
    assert np.array_equal(par.groups, mini_study.groups)
    assert np.array_equal(par.group_mr, mini_study.group_mr)
    assert np.array_equal(par.program_mr, mini_study.program_mr)
    assert np.array_equal(par.allocations, mini_study.allocations)
    assert np.array_equal(par.convexity_violations, mini_study.convexity_violations)


# ------------------------------------------------------------- facade parity
def test_group_solver_matches_evaluate_group(mini_profile):
    cfg = mini_profile.config
    mrcs = list(mini_profile.mrcs[:4])
    fps = list(mini_profile.footprints[:4])
    via_facade = evaluate_group(mrcs, fps, cfg.n_units, cfg.unit_blocks)
    via_engine = GroupSolver(cfg.n_units, cfg.unit_blocks).evaluate(mrcs, fps)
    assert via_facade.names == via_engine.names
    for name in scheme_names():
        a, b = via_facade.outcomes[name], via_engine.outcomes[name]
        assert np.array_equal(a.allocation, b.allocation), name
        assert np.array_equal(a.miss_ratios, b.miss_ratios), name
        assert a.group_miss_ratio == b.group_miss_ratio, name


def test_group_solver_scheme_subset_and_unknown(mini_profile):
    cfg = mini_profile.config
    mrcs = list(mini_profile.mrcs[:4])
    fps = list(mini_profile.footprints[:4])
    ev = GroupSolver(cfg.n_units, cfg.unit_blocks, schemes=("optimal",)).evaluate(
        mrcs, fps
    )
    assert set(ev.outcomes) == {"optimal"}
    with pytest.raises(ValueError, match="unknown scheme"):
        GroupSolver(cfg.n_units, cfg.unit_blocks, schemes=("nope",))


def test_sweep_shared_pair_tree_matches_direct_fold(mini_profile):
    """The sweep's pair-tree path must cost exactly what the direct DP costs."""
    from repro.core.dp import optimal_partition

    cfg = mini_profile.config
    costs = [m.miss_counts() for m in mini_profile.mrcs]
    solver = GroupSolver(
        cfg.n_units,
        cfg.unit_blocks,
        schemes=("optimal",),
        shared=SweepShared(costs=costs),
        natural="grid",
    )
    members = (0, 2, 3, 5)
    ev = solver.evaluate(
        [mini_profile.mrcs[i] for i in members],
        [mini_profile.footprints[i] for i in members],
        members=members,
    )
    alloc = ev.outcomes["optimal"].allocation
    direct = optimal_partition([costs[i] for i in members], cfg.n_units)
    tree_cost = sum(float(costs[i][int(a)]) for i, a in zip(members, alloc))
    assert tree_cost == pytest.approx(direct.total_cost, rel=1e-12)
    assert int(alloc.sum()) == cfg.n_units


def test_dynamic_planners_accept_shared_cache():
    from repro.core.dynamic import plan_dynamic, plan_static
    from repro.workloads import cyclic, sawtooth

    traces = [cyclic(300, 12, name="a"), sawtooth(300, 16, name="b")]
    cache = FoldCache(max_entries=64)
    base = plan_dynamic(traces, 32, 100)
    shared = plan_dynamic(traces, 32, 100, cache=cache)
    assert np.array_equal(base.allocations, shared.allocations)
    assert cache.lookups > 0
    static = plan_static(traces, 32, 100, cache=cache)
    assert static.n_epochs == base.n_epochs


def test_solver_cache_is_a_foldcache():
    from repro.online.solver_cache import SolverCache

    sc = SolverCache(quantum=0.5, max_entries=4)
    assert isinstance(sc, FoldCache)
    assert sc.quantum == 0.5 and sc.max_entries == 4


# -------------------------------------------------------------- observability
def test_foldcache_stats_and_registry_export(mini_profile):
    from repro.obs import Registry, validate_exposition

    cache = FoldCache(max_entries=4)
    cfg = mini_profile.config
    costs = [m.miss_counts() for m in mini_profile.mrcs[:3]]
    cache.solve(costs, cfg.n_units)
    cache.solve(costs, cfg.n_units)
    st = cache.stats()
    assert st["lookups"] == st["hits"] + st["misses"]
    assert st["hits"] > 0 and st["misses"] > 0
    assert st["hit_ratio"] == pytest.approx(st["hits"] / st["lookups"])
    assert st["entries"] <= st["max_entries"] == 4
    assert st["evictions"] >= 0

    reg = Registry()
    cache.register_with(reg)
    families = validate_exposition(reg.render())
    assert (
        families["repro_solver_cache_hits_total"]["samples"][
            ("repro_solver_cache_hits_total", ())
        ]
        == st["hits"]
    )
    assert (
        families["repro_solver_cache_entries"]["samples"][
            ("repro_solver_cache_entries", ())
        ]
        == st["entries"]
    )


def test_foldcache_spans_wrap_solves_and_computed_folds(mini_profile):
    from repro.obs import Tracer

    tracer = Tracer()
    cache = FoldCache(tracer=tracer)
    cfg = mini_profile.config
    costs = [m.miss_counts() for m in mini_profile.mrcs[:3]]
    cache.solve(costs, cfg.n_units)
    solve = next(s for s in tracer.spans() if s.name == "foldcache.solve")
    assert solve.attrs == {
        "n_costs": 3, "budget": cfg.n_units, "hit": False, "warm": False,
    }

    tracer.drain()
    cache.solve(costs, cfg.n_units)  # warm: the hit solves nothing
    (solve,) = tracer.spans()
    assert solve.name == "foldcache.solve"
    assert solve.attrs["hit"] is True

    tracer.drain()
    cache.convolve(costs[0], costs[1], key=("t", 0, 1))  # cold: computed fold
    assert [s.name for s in tracer.spans()] == ["foldcache.convolve"]
    tracer.drain()
    cache.convolve(costs[0], costs[1], key=("t", 0, 1))  # hit: span-free
    assert tracer.spans() == ()


def test_group_solver_emits_nested_scheme_spans(mini_profile):
    from repro.obs import Tracer

    cfg = mini_profile.config
    tracer = Tracer()
    solver = GroupSolver(cfg.n_units, cfg.unit_blocks, tracer=tracer)
    solver.evaluate(list(mini_profile.mrcs[:4]), list(mini_profile.footprints[:4]))
    by_name = {s.name: s for s in tracer.spans()}
    evaluate = by_name["solver.evaluate"]
    for name in scheme_names():
        child = by_name[f"solver.scheme.{name}"]
        assert child.parent_id == evaluate.span_id


def test_run_study_reports_fold_cache_stats_serial(mini_study):
    st = mini_study.fold_cache_stats
    assert st["workers"] == 1
    assert st["lookups"] == st["hits"] + st["misses"] > 0
    assert 0.0 <= st["hit_ratio"] <= 1.0


def test_run_study_parallel_merges_stats_and_worker_spans(mini_profile, mini_study):
    from repro.obs import Tracer

    tracer = Tracer(capacity=65536)
    par = run_study(mini_profile, n_jobs=2, tracer=tracer)
    assert np.array_equal(par.group_mr, mini_study.group_mr)  # tracing is inert
    st = par.fold_cache_stats
    assert st["workers"] == 2
    assert st["lookups"] == st["hits"] + st["misses"] > 0
    chunks = [s for s in tracer.spans() if s.name == "sweep.chunk"]
    assert chunks and all(s.worker for s in chunks)
    assert sum(s.attrs["size"] for s in chunks) == len(mini_study.groups)
    # adopted worker spans keep their tree: every evaluate hangs off a chunk
    chunk_ids = {s.span_id for s in chunks}
    evaluates = [s for s in tracer.spans() if s.name == "solver.evaluate"]
    assert len(evaluates) == len(mini_study.groups)
    assert all(s.parent_id in chunk_ids for s in evaluates)


# ------------------------------------------------------------- warm start
def test_foldcache_warm_solve_bit_identical_to_cold():
    """Warm re-solve from per-stage state == cold solve, byte for byte."""
    rng = np.random.default_rng(31)
    costs = [rng.random(48) for _ in range(7)]
    warm_cache = FoldCache()
    warm_cache.solve(costs, 30, warm=True)  # seeds the warm state

    drifted = list(costs)
    drifted[4] = rng.random(48)  # curves 0..3 unchanged
    drifted[6] = rng.random(48)
    got = warm_cache.solve(drifted, 30, warm=True)
    want = FoldCache().solve(drifted, 30)
    assert got.total_cost == want.total_cost
    assert np.array_equal(got.allocation, want.allocation)
    # the kept stage arrays are the ones a cold full-grid fold computes
    cold, prefixes = fold_curves_stages(drifted)
    state = warm_cache._warm
    assert [p.tobytes() for p in state.prefixes] == [p.tobytes() for p in prefixes]
    assert [s.tobytes() for s in state.splits] == [s.tobytes() for s in cold.splits]
    st = warm_cache.stats()
    assert st["warm_folds"] == 1
    assert st["warm_stages_reused"] == 4  # prefixes for curves 0..3
    assert st["warm_stages_computed"] == 3  # stages folding curves 4..6


def test_foldcache_warm_budget_only_change_reuses_every_stage():
    rng = np.random.default_rng(37)
    costs = [rng.random(32) for _ in range(5)]
    cache = FoldCache()
    cache.solve(costs, 20, warm=True)
    got = cache.solve(costs, 12, warm=True)  # same curves, new budget
    want = FoldCache().solve(costs, 12)
    assert np.array_equal(got.allocation, want.allocation)
    st = cache.stats()
    assert st["warm_stages_reused"] == 5 and st["warm_stages_computed"] == 0


def test_foldcache_warm_first_curve_change_refolds_everything():
    rng = np.random.default_rng(41)
    costs = [rng.random(24) for _ in range(4)]
    cache = FoldCache()
    cache.solve(costs, 10, warm=True)
    drifted = [rng.random(24)] + costs[1:]
    got = cache.solve(drifted, 10, warm=True)
    want = FoldCache().solve(drifted, 10)
    assert np.array_equal(got.allocation, want.allocation)
    assert cache.stats()["warm_folds"] == 0  # nothing was reusable


def test_foldcache_warm_quantum_change_invalidates_state():
    """State on a different lattice must never be resumed."""
    rng = np.random.default_rng(43)
    costs = [rng.random(16) for _ in range(3)]
    cache = FoldCache()
    cache.solve(costs, 8, quantum=1e-3, warm=True)
    got = cache.solve(costs, 8, quantum=1e-4, warm=True)
    want = FoldCache().solve(costs, 8, quantum=1e-4)
    assert np.array_equal(got.allocation, want.allocation)
    assert cache.stats()["warm_folds"] == 0


def test_foldcache_warm_tenant_count_change_invalidates_state():
    rng = np.random.default_rng(47)
    costs = [rng.random(16) for _ in range(3)]
    cache = FoldCache()
    cache.solve(costs, 8, warm=True)
    grown = costs + [rng.random(16)]
    got = cache.solve(grown, 8, warm=True)
    want = FoldCache().solve(grown, 8)
    assert np.array_equal(got.allocation, want.allocation)
    assert cache.stats()["warm_folds"] == 0


def test_foldcache_warm_infeasible_budget_still_raises_and_keeps_state():
    cache = FoldCache()
    feasible = [np.array([3.0, 2.0, 1.0]), np.array([3.0, 2.0, 1.0])]
    cache.solve(feasible, 2, warm=True)
    blocked = [np.array([np.inf, np.inf, 1.0]), np.array([np.inf, np.inf, 1.0])]
    with pytest.raises(ValueError, match="no feasible"):
        cache.solve(blocked, 2, warm=True)
    # the failed solve's state is still valid warm input: re-solving the
    # same instance at a feasible shape must not crash or corrupt
    relaxed = [np.array([np.inf, np.inf, 1.0]), np.array([5.0, 2.0, 1.0])]
    got = cache.solve(relaxed, 2, warm=True)
    want = FoldCache().solve(relaxed, 2)
    assert np.array_equal(got.allocation, want.allocation)


def test_foldcache_contains_counts_as_lookup_and_refreshes_lru():
    """Membership probes share the hit/miss accounting with get()."""
    cache = FoldCache(max_entries=2)
    cache["a"] = 1
    cache["b"] = 2
    h, m = cache.hits, cache.misses
    assert "a" in cache  # hit: refreshes recency, so "b" is now LRU
    assert cache.hits == h + 1 and cache.misses == m
    assert "zzz" not in cache
    assert cache.misses == m + 1
    cache["c"] = 3  # evicts "b", not the freshly-touched "a"
    assert cache.get("a") == 1 and cache.get("c") == 3


def test_foldcache_warm_solve_memo_hit_short_circuits():
    rng = np.random.default_rng(53)
    costs = [rng.random(16) for _ in range(3)]
    cache = FoldCache()
    first = cache.solve(costs, 8, warm=True)
    again = cache.solve(costs, 8, warm=True)
    assert first is again  # fingerprint hit, no refold at all
