"""Schema contract: snapshot keys and Prometheus families are pinned.

Dashboards and scrapers bind to these names; renaming one is a breaking
change and must show up here, not in production.
"""

import numbers

from repro.obs import Registry, parse_exposition
from repro.online import ControllerConfig, OnlineController, replay
from repro.online.metrics import OnlineMetrics
from repro.online.replay import steady_pair

SNAPSHOT_KEYS = {
    "accesses_seen": numbers.Integral,
    "samples_seen": numbers.Integral,
    "effective_sampling_rate": numbers.Real,
    "buffered_accesses": numbers.Integral,
    "late_batches": numbers.Integral,
    "max_tenant_lag": numbers.Integral,
    "epochs": numbers.Integral,
    "resolves": numbers.Integral,
    "warm_resolves": numbers.Integral,
    "drift_skips": numbers.Integral,
    "walls_moved": numbers.Integral,
    "hysteresis_holds": numbers.Integral,
    "blocks_moved": numbers.Integral,
    "solver_cache_hits": numbers.Integral,
    "solver_cache_misses": numbers.Integral,
    "solver_cache_hit_ratio": numbers.Real,
    "slo_violations": numbers.Integral,
    "slo_infeasible_epochs": numbers.Integral,
    "resolve_latency_total_s": numbers.Real,
    "resolve_latency_mean_s": numbers.Real,
    "resolve_latency_last_s": numbers.Real,
    "resolve_errors": numbers.Integral,
}

EXPOSITION_FAMILIES = {
    # OnlineMetrics.register_with
    "repro_accesses_ingested_total": "counter",
    "repro_samples_kept_total": "counter",
    "repro_late_batches_total": "counter",
    "repro_epochs_total": "counter",
    "repro_resolves_total": "counter",
    "repro_warm_resolves_total": "counter",
    "repro_drift_skips_total": "counter",
    "repro_walls_moved_total": "counter",
    "repro_hysteresis_holds_total": "counter",
    "repro_blocks_moved_total": "counter",
    "repro_slo_violations_total": "counter",
    "repro_slo_infeasible_epochs_total": "counter",
    "repro_resolve_errors_total": "counter",
    "repro_buffered_accesses": "gauge",
    "repro_effective_sampling_rate": "gauge",
    "repro_tenant_lag": "gauge",
    "repro_resolve_latency_seconds": "histogram",
    # SolverCache (FoldCache.register_with, solver-cache prefix)
    "repro_solver_cache_hits_total": "counter",
    "repro_solver_cache_misses_total": "counter",
    "repro_solver_cache_evictions_total": "counter",
    "repro_solver_cache_entries": "gauge",
    # controller extras
    "repro_tenant_allocation_blocks": "gauge",
}


def test_snapshot_schema_is_pinned():
    """Exactly these keys, of these kinds (plus flattened lag[...] keys)."""
    m = OnlineMetrics()
    m.tenant_lag = {"a": 2}
    snap = m.snapshot()
    assert set(snap) == set(SNAPSHOT_KEYS) | {"lag[a]"}
    for key, kind in SNAPSHOT_KEYS.items():
        assert isinstance(snap[key], kind), f"{key} is {type(snap[key])}, wanted {kind}"
    assert isinstance(snap["lag[a]"], numbers.Integral)


def test_snapshot_schema_holds_after_a_real_run():
    traces, epoch = steady_pair()
    report = replay(traces, ControllerConfig(cache_blocks=56, epoch_length=epoch))
    lag_keys = {k for k in report.metrics if k.startswith("lag[")}
    assert set(report.metrics) == set(SNAPSHOT_KEYS) | lag_keys


def test_exposition_families_are_pinned():
    """register_metrics exposes exactly these families with these types."""
    registry = Registry()
    controller = OnlineController(
        2, ControllerConfig(cache_blocks=56, epoch_length=240), names=("a", "b")
    )
    controller.register_metrics(registry)
    assert set(registry.names()) == set(EXPOSITION_FAMILIES)
    families = parse_exposition(registry.render())
    for name, mtype in EXPOSITION_FAMILIES.items():
        assert families[name]["type"] == mtype, name


def test_registration_attaches_latency_histogram():
    registry = Registry()
    controller = OnlineController(
        2, ControllerConfig(cache_blocks=56, epoch_length=240), names=("a", "b")
    )
    controller.register_metrics(registry)
    hist = registry.get("repro_resolve_latency_seconds")
    assert controller.metrics.resolve_timer.histogram is hist
    with controller.metrics.resolve_timer:
        pass
    assert hist.count == 1
