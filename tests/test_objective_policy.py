"""ObjectivePolicy: validation, fingerprints, compilation, cache salting.

Acceptance anchors (ISSUE 8):

* the default policy is *transparent*: policy-threaded code paths
  reproduce the pre-policy outputs bit for bit (golden-pinned via the
  ``mini_study`` fixture);
* ``policy_fingerprint()`` is mixed into every memo/warm-start key —
  the stale-plan tests here fail if the salt is dropped from either the
  FoldCache solve key or the online solver-cache key;
* an unsatisfiable SLO cap raises an actionable error offline and
  degrades to best effort (counted) online.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objectives import constrained_costs, miss_count_costs, qos_costs
from repro.core.policy import (
    DEFAULT_POLICY,
    InfeasibleSLOError,
    ObjectivePolicy,
    compile_costs,
    compile_tenant_cost,
    equal_share_costs,
    explicit_baseline_costs,
    policy_fingerprint,
    slo_headroom,
)
from repro.locality.mrc import MissRatioCurve


def _mrc(ratios, n=1000, name="p"):
    return MissRatioCurve(np.asarray(ratios, dtype=float), n_accesses=n, name=name)


# ----------------------------------------------------------- validation
def test_policy_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        ObjectivePolicy(weights=())
    with pytest.raises(ValueError):
        ObjectivePolicy(weights=(1.0, -0.5))
    with pytest.raises(ValueError):
        ObjectivePolicy(weights=(0.0, 0.0))
    with pytest.raises(ValueError):
        ObjectivePolicy(weights=(float("nan"), 1.0))
    with pytest.raises(ValueError):
        ObjectivePolicy(slo_caps=(1.5,))
    with pytest.raises(ValueError):
        ObjectivePolicy(slo_caps=(-0.1,))
    with pytest.raises(ValueError):
        ObjectivePolicy(baseline="free-for-all")
    with pytest.raises(ValueError):
        ObjectivePolicy(baseline=(2.0,))
    with pytest.raises(ValueError):
        ObjectivePolicy(slo_rtol=0.0)
    with pytest.raises(ValueError):
        ObjectivePolicy(weights=(1.0, 2.0), slo_caps=(0.5,))


def test_policy_arity_and_default_flag():
    assert DEFAULT_POLICY.is_default
    assert DEFAULT_POLICY.n_tenants is None
    DEFAULT_POLICY.check_arity(7)  # unpinned: any arity fits
    p = ObjectivePolicy(weights=(1.0, 2.0))
    assert not p.is_default
    assert p.n_tenants == 2
    p.check_arity(2)
    with pytest.raises(ValueError, match="2 tenants but 3"):
        p.check_arity(3)
    # None caps entries leave tenants uncapped but still pin arity
    q = ObjectivePolicy(slo_caps=(None, 0.3))
    assert q.n_tenants == 2
    assert q.cap(0) is None and q.cap(1) == 0.3


# ---------------------------------------------------------- fingerprints
def test_fingerprint_is_stable_and_value_based():
    a = ObjectivePolicy(weights=(1.0, 2.0), slo_caps=(None, 0.5))
    b = ObjectivePolicy(weights=(1.0, 2.0), slo_caps=(None, 0.5))
    assert a.fingerprint() == b.fingerprint()
    assert policy_fingerprint(a) == a.fingerprint()
    assert len(a.fingerprint()) == 16


def test_fingerprint_separates_every_field():
    base = ObjectivePolicy(weights=(1.0, 2.0))
    fps = {
        DEFAULT_POLICY.fingerprint(),
        base.fingerprint(),
        ObjectivePolicy(weights=(2.0, 1.0)).fingerprint(),
        ObjectivePolicy(weights=(1.0, 2.0), slo_caps=(0.5, None)).fingerprint(),
        ObjectivePolicy(weights=(1.0, 2.0), slo_caps=(None, 0.5)).fingerprint(),
        ObjectivePolicy(weights=(1.0, 2.0), baseline="equal").fingerprint(),
        ObjectivePolicy(weights=(1.0, 2.0), baseline=(0.5, 0.5)).fingerprint(),
        ObjectivePolicy(weights=(1.0, 2.0), slo_rtol=1e-6).fingerprint(),
    }
    assert len(fps) == 8


def test_fingerprint_normalizes_negative_zero():
    a = ObjectivePolicy(weights=(0.0, 1.0))
    b = ObjectivePolicy(weights=(-0.0, 1.0))
    assert a.fingerprint() == b.fingerprint()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=6,
    ).filter(lambda w: any(v > 0 for v in w))
)
def test_fingerprint_roundtrips_for_any_weights(weights):
    """Value-equal policies always agree; a perturbed weight never does."""
    p = ObjectivePolicy(weights=tuple(weights))
    q = ObjectivePolicy(weights=tuple(weights))
    assert p.fingerprint() == q.fingerprint()
    bumped = list(weights)
    bumped[0] = bumped[0] + 1.0
    assert ObjectivePolicy(weights=tuple(bumped)).fingerprint() != p.fingerprint()


# ----------------------------------------------------------- compilation
def test_default_policy_compiles_to_miss_count_costs_bit_exactly():
    mrcs = [_mrc([1.0, 0.5, 0.25, 0.0], n=321), _mrc([0.9, 0.6, 0.3, 0.1], n=765)]
    compiled = compile_costs(mrcs, DEFAULT_POLICY)
    reference = miss_count_costs(mrcs)
    for c, r in zip(compiled, reference):
        assert c.tobytes() == r.tobytes()


def test_weighted_and_capped_compilation():
    m = _mrc([0.9, 0.4, 0.1], n=10, name="cap-me")
    w = compile_tenant_cost(m, ObjectivePolicy(weights=(3.0,)), 0)
    assert w.tolist() == [27.0, 12.0, 3.0]
    capped = compile_tenant_cost(m, ObjectivePolicy(slo_caps=(0.5,)), 0)
    assert np.isinf(capped[0]) and np.isfinite(capped[1:]).all()


def test_infeasible_cap_raises_actionable_error():
    m = _mrc([0.9, 0.8, 0.7], n=10, name="greedy")
    policy = ObjectivePolicy(slo_caps=(0.1,))
    with pytest.raises(InfeasibleSLOError) as exc:
        compile_tenant_cost(m, policy, 0)
    assert exc.value.tenant == "greedy"
    assert exc.value.cap == 0.1
    assert exc.value.best_achievable == pytest.approx(0.7)
    assert "greedy" in str(exc.value) and "0.7" in str(exc.value)
    # relax: the online degradation path returns the uncapped curve
    relaxed = compile_tenant_cost(m, policy, 0, on_infeasible="relax")
    assert np.isfinite(relaxed).all()


def test_qos_costs_cap_tolerance_is_relative():
    """Regression: a cap within rtol of an exact curve point must pass.

    The old absolute 1e-15 slack banned a ratio of 0.5 against a cap of
    0.5 - 2.5e-10; the relative tolerance (matching constrained_costs)
    admits it.
    """
    m = _mrc([0.9, 0.5], n=100)
    (c,) = qos_costs([m], [0.5 - 2.5e-10])
    assert np.isfinite(c[1])
    # a genuinely violated cap still masks
    (c,) = qos_costs([m], [0.4])
    assert np.isinf(c[1])


def test_equal_share_costs_matches_legacy_construction():
    from repro.core.baselines import equal_allocation

    mrcs = [_mrc([1.0, 0.6, 0.3, 0.1, 0.0], n=100 * (i + 1)) for i in range(2)]
    costs = miss_count_costs(mrcs)
    share = equal_allocation(len(costs), 4)[0]
    legacy = constrained_costs(costs, [float(c[share]) for c in costs])
    modern = equal_share_costs(costs, 4)
    for a, b in zip(legacy, modern):
        assert a.tobytes() == b.tobytes()


def test_explicit_baseline_costs_masks_and_raises():
    mrcs = [_mrc([0.9, 0.4, 0.1], n=10, name="a"), _mrc([0.8, 0.5, 0.2], n=10, name="b")]
    costs = miss_count_costs(mrcs)
    ratios = [m.ratios for m in mrcs]
    masked = explicit_baseline_costs(costs, ratios, [0.5, 0.6])
    assert np.isinf(masked[0][0]) and np.isfinite(masked[0][1:]).all()
    assert np.isinf(masked[1][0]) and np.isfinite(masked[1][1:]).all()
    with pytest.raises(InfeasibleSLOError, match="'b'"):
        explicit_baseline_costs(costs, ratios, [0.5, 0.05], names=["a", "b"])


def test_slo_headroom_reports_per_tenant_slack():
    policy = ObjectivePolicy(slo_caps=(0.5, None))
    assert slo_headroom(policy, [0.3, 0.9]) == [pytest.approx(0.2), None]
    assert slo_headroom(DEFAULT_POLICY, [0.3, 0.9]) == [None, None]


# --------------------------------------------------- default bit-exactness
def test_run_study_under_explicit_default_policy_is_bit_exact(mini_profile, mini_study):
    """Golden anchor: policy threading is invisible for the default policy."""
    from repro.experiments.methodology import run_study

    result = run_study(mini_profile, policy=ObjectivePolicy())
    assert result.group_mr.tobytes() == mini_study.group_mr.tobytes()
    assert result.program_mr.tobytes() == mini_study.program_mr.tobytes()
    assert result.allocations.tobytes() == mini_study.allocations.tobytes()


def test_sweep_rejects_policy_mismatched_shared_bundle():
    from repro.engine import GroupSolver, SweepShared

    shared = SweepShared(costs=[np.array([2.0, 1.0, 0.0])], policy_salt=b"")
    with pytest.raises(ValueError, match="different policy"):
        GroupSolver(
            2, 1, shared=shared, policy=ObjectivePolicy(weights=(2.0,))
        )


# ------------------------------------------------------- cache-key salting
def test_foldcache_salt_separates_identical_cost_bytes():
    from repro.engine import FoldCache

    cache = FoldCache()
    costs = [np.array([4.0, 1.0, 0.0]), np.array([3.0, 2.0, 0.0])]
    a = cache.solve(costs, 2, salt=b"")
    assert (cache.hits, cache.misses) == (0, 1)
    b = cache.solve(costs, 2, salt=b"policy-fp")
    assert (cache.hits, cache.misses) == (0, 2)  # same bytes, new salt: re-solved
    assert np.array_equal(a.allocation, b.allocation)
    cache.solve(costs, 2, salt=b"")
    assert cache.hits == 1  # original salt still hits


def test_warm_state_is_invalidated_by_a_salt_change():
    from repro.engine import FoldCache

    cache = FoldCache()
    costs = [np.array([4.0, 1.0, 0.0]), np.array([3.0, 2.0, 0.0])]
    cache.solve(costs, 2, warm=True, salt=b"A")
    cache.solve(costs, 2, warm=True, salt=b"A")  # memo hit, no refold
    reused_before = cache.warm_stages_reused
    cache.solve([costs[0], costs[1] + 0.5], 2, warm=True, salt=b"B")
    # the salt changed: no stage of A's fold may be reused for B
    assert cache.warm_stages_reused == reused_before


def test_stale_plan_is_prevented_by_the_solver_cache_salt():
    """The ISSUE-8 acceptance reproducer, at the solver-cache level.

    A coarse quantum makes the default and the weighted objective's cost
    curves fingerprint-collide; only the policy salt keeps the second
    solve from being served the first policy's (stale) plan.
    """
    from repro.online.solver_cache import SolverCache

    mrcs = [_mrc([1.0, 0.9, 0.1, 0.0], n=100), _mrc([1.0, 0.4, 0.3, 0.0], n=100)]
    default_costs = compile_costs(mrcs, DEFAULT_POLICY)
    weighted = ObjectivePolicy(weights=(1.0, 100.0))
    weighted_costs = compile_costs(mrcs, weighted)
    quantum = 1e9  # snaps every curve to the same lattice point
    cache = SolverCache(quantum=quantum)
    plan_default = cache.solve(default_costs, 3, salt=b"")
    # without the salt the weighted solve is a (stale) cache hit
    stale = cache.solve(weighted_costs, 3, salt=b"")
    assert cache.hits == 1
    assert np.array_equal(stale.allocation, plan_default.allocation)
    # with the salt it re-solves and lands on the weighted optimum
    fresh = cache.solve(weighted_costs, 3, salt=weighted.fingerprint())
    assert cache.misses == 2
    reference = SolverCache(quantum=quantum).solve(
        weighted_costs, 3, salt=weighted.fingerprint()
    )
    assert np.array_equal(fresh.allocation, reference.allocation)
    assert not np.array_equal(fresh.allocation, plan_default.allocation)


def test_pair_tree_folds_do_not_leak_across_policies():
    """Identity-keyed pair folds in a *shared* FoldCache carry the salt."""
    from repro.engine import FoldCache, GroupSolver, SweepShared
    from repro.locality.footprint import average_footprint
    from repro.workloads.spec import make_program

    cb, unit, n_units = 128, 8, 16
    traces = [make_program(n, cb, length_scale=0.2) for n in ("lbm", "mcf", "namd", "soplex")]
    fps = [average_footprint(t) for t in traces]
    mrcs = [
        MissRatioCurve.from_footprint(fp, cb).resample(unit, n_units) for fp in fps
    ]
    weighted = ObjectivePolicy(weights=(1.0, 50.0, 1.0, 1.0))
    cache = FoldCache(max_entries=1024)

    def outcome(policy, fold_cache):
        salt = b"" if policy.is_default else policy.fingerprint()
        shared = SweepShared(costs=compile_costs(mrcs, policy), policy_salt=salt)
        solver = GroupSolver(
            n_units, unit,
            schemes=("optimal",), fold_cache=fold_cache, shared=shared,
            natural="grid", policy=policy,
        )
        return solver.evaluate(mrcs, fps, members=(0, 1, 2, 3)).outcomes["optimal"]

    first = outcome(DEFAULT_POLICY, cache)
    second = outcome(weighted, cache)  # same cache, different policy
    isolated = outcome(weighted, FoldCache(max_entries=1024))
    assert np.array_equal(second.allocation, isolated.allocation)
    assert second.group_miss_ratio == isolated.group_miss_ratio
    assert not np.array_equal(first.allocation, second.allocation)


# ------------------------------------------------------------ online layer
def _steady_traces():
    from repro.online.replay import steady_pair

    return steady_pair()


def test_controller_set_policy_live_update_changes_the_plan():
    """Mid-replay weight change re-solves under the new objective."""
    from repro.online.controller import ControllerConfig, OnlineController

    traces, epoch = _steady_traces()
    config = ControllerConfig(cache_blocks=56, epoch_length=epoch)
    half = len(traces[0]) // 2

    def run(policy_after):
        ctrl = OnlineController(2, config, names=("a", "b"))
        list(ctrl.ingest([t.blocks[:half] for t in traces]))
        if policy_after is not None:
            assert ctrl.set_policy(policy_after) is True
        list(ctrl.ingest([t.blocks[half:] for t in traces]))
        list(ctrl.finish())
        return ctrl

    skewed = ObjectivePolicy(weights=(1000.0, 1.0))
    changed = run(skewed)
    unchanged = run(None)
    assert changed.policy is skewed
    n_pre = min(3, len(unchanged.decisions))
    for d_c, d_u in zip(changed.decisions[:n_pre], unchanged.decisions[:n_pre]):
        assert np.array_equal(d_c.allocation, d_u.allocation)
    post_c = np.stack([d.allocation for d in changed.decisions[n_pre:]])
    post_u = np.stack([d.allocation for d in unchanged.decisions[n_pre:]])
    assert not np.array_equal(post_c, post_u)
    # tenant a's weight dominates: it must end up with more cache
    assert post_c[-1][0] > post_u[-1][0]


def test_set_policy_is_a_noop_for_value_identical_policies():
    from repro.online.controller import ControllerConfig, OnlineController

    ctrl = OnlineController(
        2, ControllerConfig(cache_blocks=56, epoch_length=100), names=("a", "b")
    )
    p = ObjectivePolicy(weights=(1.0, 2.0))
    assert ctrl.set_policy(p) is True
    assert ctrl.set_policy(ObjectivePolicy(weights=(1.0, 2.0))) is False
    assert ctrl.set_policy(DEFAULT_POLICY) is True


def test_controller_rejects_the_natural_baseline_online():
    from repro.online.controller import ControllerConfig, OnlineController

    with pytest.raises(ValueError, match="natural baseline"):
        OnlineController(
            2,
            ControllerConfig(cache_blocks=56, epoch_length=100),
            names=("a", "b"),
            policy=ObjectivePolicy(baseline="natural"),
        )


def test_infeasible_cap_degrades_online_and_is_counted():
    """A cap of 0.0 no allocation can meet: epochs complete best-effort."""
    from repro.online.replay import replay, steady_pair
    from repro.online.controller import ControllerConfig

    traces, epoch = steady_pair()
    policy = ObjectivePolicy(slo_caps=(0.0, None))
    report = replay(
        traces,
        ControllerConfig(cache_blocks=56, epoch_length=epoch),
        policy=policy,
    )
    assert report.metrics["slo_infeasible_epochs"] > 0
    assert report.metrics["slo_violations"] > 0
    assert any(not d.slo_feasible for d in report.decisions)
    assert "cap violations" in report.summary()
    # headroom lands in the timeseries: capped tenant negative, other None
    row = report.timeseries["rows"][-1]
    assert row["slo_headroom"][0] < 0
    assert row["slo_headroom"][1] is None


def test_jointly_infeasible_epoch_snapshots_each_tenant_once(monkeypatch):
    """The best-effort relaxation reuses the epoch's curves, not new snapshots.

    Each cyclic tenant meets its cap alone (40 of 56 blocks) but not both
    together, so every epoch fails the capped solve and re-solves relaxed.
    """
    from repro.online.controller import ControllerConfig, OnlineController
    from repro.online.profiler import StreamingProfiler
    from repro.workloads.generators import cyclic

    snapshots = []
    real_mrc = StreamingProfiler.mrc

    def counting_mrc(self, capacity):
        snapshots.append(self.name)
        return real_mrc(self, capacity)

    monkeypatch.setattr(StreamingProfiler, "mrc", counting_mrc)
    ctrl = OnlineController(
        2,
        ControllerConfig(cache_blocks=56, epoch_length=400),
        names=("a", "b"),
        policy=ObjectivePolicy(slo_caps=(0.5, 0.5)),
    )
    stream = cyclic(1200, 40).blocks
    decisions = ctrl.ingest([stream, stream + 1000])
    assert len(decisions) == 3
    assert not any(d.slo_feasible for d in decisions)
    assert ctrl.metrics.slo_infeasible_epochs == 3
    assert snapshots == ["a", "b"] * 3


def test_feasible_slo_run_reports_headroom_and_no_violations():
    from repro.online.replay import replay, steady_pair
    from repro.online.controller import ControllerConfig

    traces, epoch = steady_pair()
    report = replay(
        traces,
        ControllerConfig(cache_blocks=56, epoch_length=epoch),
        policy=ObjectivePolicy(slo_caps=(0.99, 0.99)),
    )
    assert report.metrics["slo_infeasible_epochs"] == 0
    assert report.metrics["slo_violations"] == 0
    assert all(d.slo_feasible for d in report.decisions)
    row = report.timeseries["rows"][-1]
    assert row["slo_headroom"][0] > 0 and row["slo_headroom"][1] > 0


def test_slo_counters_are_scrapable():
    from repro.obs import Registry, parse_exposition
    from repro.online.controller import ControllerConfig
    from repro.online.replay import replay, steady_pair

    traces, epoch = steady_pair()
    registry = Registry()
    replay(
        traces,
        ControllerConfig(cache_blocks=56, epoch_length=epoch),
        registry=registry,
        policy=ObjectivePolicy(slo_caps=(0.0, None)),
    )
    families = parse_exposition(registry.render())
    assert families["repro_slo_violations_total"]["type"] == "counter"
    samples = families["repro_slo_violations_total"]["samples"]
    assert any(v > 0 for _, v in samples.items())
    assert "repro_slo_infeasible_epochs_total" in families


# ---------------------------------------------------------------- CLI layer
def test_serve_cli_accepts_policy_flags(tmp_path, capsys):
    import json

    from repro.cli import main

    out = tmp_path / "metrics.json"
    rc = main(
        [
            "serve", "--workload", "steady", "--cache-blocks", "56",
            "--slo", "0.0,none", "--weights", "1.0,2.0",
            "--metrics-out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["metrics"]["slo_infeasible_epochs"] > 0
    assert "slo_headroom" in payload["timeseries"]["rows"][-1]
    assert "slo" in capsys.readouterr().out


def test_serve_cli_rejects_bad_policy_flags(capsys):
    from repro.cli import main

    assert main(["serve", "--workload", "steady", "--slo", "2.0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["serve", "--workload", "steady", "--baseline", "natural"]) == 2
    assert "natural baseline" in capsys.readouterr().err


def test_study_cli_policy_flags(capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_SCALE", "smoke")
    assert main(["study", "--weights", "2.0", "--baseline", "equal"]) == 0
    out = capsys.readouterr().out
    assert "objective policy" in out
