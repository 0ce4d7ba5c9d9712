"""Command-line front end: ``repro-cps``.

Subcommands mirror the paper's workflow:

* ``searchspace`` — print the §II solution-space sizes;
* ``optimize``    — evaluate the six schemes for one co-run group;
* ``study``       — the full §VII sweep (Table I + figure summaries);
* ``validate``    — §VII-C NPA validation against the simulator;
* ``figure1``     — the motivating partition-sharing example;
* ``serve``       — stream a workload through the online allocation
  service (:mod:`repro.online`) and score it against the offline optima;
  ``--metrics-port`` exposes Prometheus ``/metrics`` + ``/healthz``
  while it runs, ``--metrics-out`` dumps the final snapshot and epoch
  time-series as JSON, ``--trace-out`` journals spans as JSONL,
  ``--flight-out`` journals decision provenance (the flight recorder)
  and ``--alerts`` arms multi-window SLO burn-rate alerting;
* ``explain``     — read a flight journal back as causal narratives:
  why a tenant's allocation changed at an epoch, why an epoch
  re-solved cold (:mod:`repro.obs.explain`);
* ``top``         — the live terminal view of the controller: per-tenant
  allocation bars, miss-ratio sparklines, lag and solver counters,
  redrawn as each epoch closes; ``--format json`` instead runs the
  stream headless and prints one machine-readable snapshot;
* ``lint``        — repro-lint, the project's own static contract
  checker (:mod:`repro.analysis`): determinism, engine-facade,
  telemetry, and robustness invariants (``lint --list-rules``);
* ``bench``       — the perf subsystem (:mod:`repro.perf`):
  ``bench list`` shows the discovered suite, ``bench run`` executes a
  tier under the isolated-subprocess runner and persists
  ``BENCH_<area>.json`` trajectories, ``bench compare`` is the
  direction-aware regression gate, ``bench report`` renders the
  markdown trajectory table.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["main"]


def _cmd_searchspace(args: argparse.Namespace) -> int:
    from repro.core.searchspace import (
        paper_example,
        partition_sharing_single_cache,
        partitioning_only,
    )

    ex = paper_example()
    print("Paper §II worked example (4 programs, 8 MB cache, 64 B units):")
    print(f"  S2 (partition-sharing) = {ex.s2:,}")
    print(f"  S3 (partitioning only) = {ex.s3:,}")
    print(f"  coverage               = {ex.coverage:.6%}")
    c = args.units
    print(f"\nAt {c} allocation units (npr=4):")
    print(f"  S2 = {partition_sharing_single_cache(4, c):,}")
    print(f"  S3 = {partitioning_only(4, c):,}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.engine import GroupSolver, scheme_names
    from repro.locality.footprint import average_footprint
    from repro.locality.mrc import MissRatioCurve
    from repro.workloads.spec import make_program

    names = args.programs.split(",")
    cb, unit = args.cache_blocks, args.unit_blocks
    if unit < 1 or cb < 1:
        print("error: --cache-blocks and --unit-blocks must be >= 1", file=sys.stderr)
        return 2
    if cb % unit != 0:
        print(
            f"error: --cache-blocks ({cb}) must be divisible by "
            f"--unit-blocks ({unit}); {cb % unit} blocks would be silently "
            f"unallocatable",
            file=sys.stderr,
        )
        return 2
    n_units = cb // unit
    traces = [make_program(n.strip(), cb) for n in names]
    fps = [average_footprint(t) for t in traces]
    mrcs = [MissRatioCurve.from_footprint(fp, cb).resample(unit, n_units) for fp in fps]
    ev = GroupSolver(n_units, unit).evaluate(mrcs, fps)
    print(f"Group: {', '.join(names)}   cache {cb} blocks in {n_units} units")
    header = f"{'scheme':18s} {'group mr':>9s}  allocations (units)"
    print(header)
    print("-" * len(header))
    for s in scheme_names():
        o = ev.outcomes[s]
        alloc = ", ".join(f"{a:.1f}" for a in np.atleast_1d(o.allocation))
        print(f"{s:18s} {o.group_miss_ratio:9.4f}  [{alloc}]")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.experiments.figures import gainer_fraction, sttw_failure_stats
    from repro.experiments.methodology import (
        ExperimentConfig,
        build_suite_profile,
        run_study,
    )
    from repro.experiments.table1 import format_table, improvement_table

    cfg = ExperimentConfig.from_env()
    jobs = args.jobs if args.jobs is not None else cfg.n_jobs
    tracer = None
    if args.trace_out is not None:
        from repro.obs import Tracer

        tracer = Tracer(journal=args.trace_out)
    print(
        f"Running the exhaustive study: {cfg.n_groups} groups of "
        f"{cfg.group_size}, {cfg.n_units} units of {cfg.unit_blocks} blocks"
        + (f", {jobs} worker processes" if jobs > 1 else "")
    )
    t0 = time.perf_counter()
    profile = build_suite_profile(cfg)
    print(f"  profiled {len(profile.names)} programs in {time.perf_counter() - t0:.1f}s")
    try:
        policy = _parse_policy(
            args.weights, args.slo, args.baseline, len(profile.names)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if policy is not None:
        print(f"  objective policy {policy.fingerprint().hex()[:12]} "
              f"(baseline {policy.baseline!r})")
    t0 = time.perf_counter()
    result = run_study(profile, progress=True, n_jobs=jobs, tracer=tracer, policy=policy)
    per_group = (time.perf_counter() - t0) / cfg.n_groups
    print(f"  swept {cfg.n_groups} groups in {time.perf_counter() - t0:.1f}s "
          f"({per_group * 1e3:.1f} ms/group)")
    fc = result.fold_cache_stats
    if fc:
        print(f"  fold cache: {fc['hits']:,} hits / {fc['lookups']:,} lookups "
              f"({fc['hit_ratio']:.1%} hit ratio), {fc['entries']:,} entries, "
              f"{fc['evictions']:,} evictions, {fc['workers']} worker(s)")
    if tracer is not None:
        tracer.close()
        print(f"  wrote span journal to {args.trace_out}")
    print()
    print("Table I — improvement of Optimal over each method:")
    print(format_table(improvement_table(result)))
    print("\nSTTW convexity failures:", sttw_failure_stats(result))
    gf = gainer_fraction(result)
    print("\nSharing gainers (fraction of groups where Natural < Equal):")
    for name, frac in sorted(gf.items(), key=lambda kv: -kv[1]):
        print(f"  {name:12s} {frac:6.1%}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validation import validate_corun, validate_solo
    from repro.workloads.spec import make_program

    cb = args.cache_blocks
    names = ["mcf", "tonto", "wrf", "povray"]
    print("Solo HOTL-vs-LRU validation:")
    for n in names:
        tr = make_program(n, cb, length_scale=0.25)
        sizes = [cb // 8, cb // 4, cb // 2]
        v = validate_solo(tr, sizes)
        print(f"  {n:10s} max |pred - meas| = {v.max_error:.4f}")
    print("Pairwise co-run validation (NPA check):")
    for a, b in [("mcf", "tonto"), ("wrf", "povray")]:
        ta = make_program(a, cb, length_scale=0.25)
        tb = make_program(b, cb, length_scale=0.25)
        v = validate_corun([ta, tb], cb)
        print(f"  {a}+{b}: max error = {v.max_error:.4f}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.workloads.spec import make_program
    from repro.workloads.stats import summarize_trace

    for name in args.programs.split(","):
        trace = make_program(name.strip(), args.cache_blocks)
        stats = summarize_trace(trace)
        print(stats.format())
        print()
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_study
    from repro.experiments.methodology import (
        ExperimentConfig,
        build_suite_profile,
        run_study,
    )

    cfg = ExperimentConfig.from_env()
    jobs = args.jobs if args.jobs is not None else cfg.n_jobs
    print(f"Running the study ({cfg.n_groups} groups, {cfg.n_units} units)...")
    t0 = time.perf_counter()
    result = run_study(build_suite_profile(cfg), n_jobs=jobs)
    print(f"  done in {time.perf_counter() - t0:.1f}s; writing CSVs to {args.out}")
    for path in export_study(result, args.out):
        print(f"  wrote {path}")
    return 0


def _changed_files() -> list[str]:
    """Paths git considers modified or untracked, relative to the cwd.

    Raises ``RuntimeError`` when git is unavailable or the cwd is not a
    work tree — ``--changed`` silently linting everything (or nothing)
    would defeat its purpose.
    """
    import subprocess

    out: list[str] = []
    for cmd in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            raise RuntimeError(f"--changed needs git: {' '.join(cmd)} failed") from exc
        out.extend(line.strip() for line in proc.stdout.splitlines() if line.strip())
    return out


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        DEFAULT_CACHE_PATH,
        LintCache,
        get_rule,
        lint_project,
        render_json,
        render_sarif,
        render_text,
        resolve_rules,
        rule_ids,
    )

    if args.list_rules:
        for rid in rule_ids():
            cls = get_rule(rid)
            print(f"{rid}  {cls.name:22s} {cls.contract}")
        return 0
    selected = None
    if args.select is not None:
        try:
            selected = resolve_rules(
                tok.strip() for tok in args.select.split(",") if tok.strip()
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    only: list[Path] | None = None
    if args.changed:
        try:
            changed = {Path(p).resolve() for p in _changed_files()}
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        only = sorted(p for p in changed if p.suffix == ".py")

    cache = None
    if args.cache is not None:
        from repro.analysis import catalog_fingerprint

        rids = [cls.id for cls in selected] if selected is not None else list(rule_ids())
        cache_path = Path(args.cache if args.cache else DEFAULT_CACHE_PATH)
        cache = LintCache.load(cache_path, catalog_fingerprint(rids))
    try:
        run = lint_project(
            args.paths, rules=selected, jobs=args.jobs, cache=cache, only=only
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = list(run.findings)
    render = {
        "json": render_json,
        "sarif": render_sarif,
        "text": render_text,
    }[args.format]
    print(render(findings))
    if args.stats:
        print(
            f"files {run.files}  linted {run.linted}  cache hits {run.cache_hits}  "
            f"misses {run.cache_misses}  graph modules {run.graph_modules}",
            file=sys.stderr,
        )
    return 1 if findings else 0


def _cmd_bench_list(args: argparse.Namespace) -> int:
    from repro.perf import discover

    try:
        files = discover(args.root)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = f"{'module':36s} {'area':11s} {'functions':>9s} {'quick':>5s} {'full':>4s}"
    print(header)
    print("-" * len(header))
    total = quick_total = 0
    for bf in files:
        quick = len(bf.functions_at("quick"))
        print(f"{bf.module:36s} {bf.area:11s} {len(bf.functions):9d} "
              f"{quick:5d} {len(bf.functions) - quick:4d}")
        total += len(bf.functions)
        quick_total += quick
    print(f"\n{len(files)} files, {total} benches ({quick_total} quick-tier)")
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.perf import (
        RunOptions,
        append_run,
        bench_filename,
        load_document,
        run_benches,
        write_document,
    )
    from repro.obs import NULL_TRACER, Tracer
    from repro.perf.report import format_seconds

    tracer = None
    if args.trace_out is not None:
        tracer = Tracer(journal=args.trace_out)
    try:
        opts = RunOptions(
            root=args.root,
            tier=args.tier,
            areas=tuple(args.areas.split(",")) if args.areas else None,
            repeats=args.repeats,
            warmup=args.warmup,
            jobs=args.jobs,
            scale=args.scale,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"Running the {opts.tier} tier at scale={opts.scale} seed={opts.seed} "
        f"({opts.effective_jobs} worker(s), {opts.repeats} repeat(s) "
        f"+ {opts.warmup} warmup)..."
    )
    try:
        result = run_benches(opts, tracer=tracer if tracer is not None else NULL_TRACER)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.close()
    for area, run in sorted(result.records.items()):
        print(f"\n[{area}] {len(run['benches'])} bench(es):")
        for bench_id, entry in sorted(run["benches"].items()):
            timing = entry.get("timing")
            label = (
                f"{format_seconds(timing['median_s'])} "
                f"±{format_seconds(timing['iqr_s'])}"
                if timing else "(no timing)"
            )
            flag = "" if entry["status"] == "ok" else "  ** FAILED **"
            print(f"  {bench_id:60s} {label}{flag}")
            for name, metric in sorted(entry.get("metrics", {}).items()):
                print(f"    {name} = {metric['value']:.6g} {metric['unit']}".rstrip())
    if not args.dry_run:
        from pathlib import Path

        for area, run in sorted(result.records.items()):
            path = Path(args.out) / bench_filename(area)
            doc = load_document(path) if path.is_file() else None
            write_document(path, append_run(doc, area, run, keep=args.keep))
            print(f"\nwrote {path} ({len(run['benches'])} bench(es) appended)")
    print(
        f"\n{result.files_run} file(s), {result.benches_run} bench(es), "
        f"{result.deselected} deselected, {result.wall_s:.1f}s wall"
    )
    if result.failures:
        print(f"\n{len(result.failures)} failure(s):", file=sys.stderr)
        for failure in result.failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.perf import (
        StoreError,
        Thresholds,
        compare_documents,
        load_document,
        regressions,
        trajectory_files,
    )

    try:
        thresholds = Thresholds(
            time_rel=args.time_tolerance, quality_rel=args.quality_tolerance
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    paths = trajectory_files(args.root)
    if args.areas:
        wanted = set(args.areas.split(","))
        missing = sorted(wanted - set(paths))
        if missing:
            print(
                f"error: no BENCH_<area>.json for area(s): {', '.join(missing)}",
                file=sys.stderr,
            )
            return 2
        paths = {a: p for a, p in paths.items() if a in wanted}
    if not paths:
        print("error: no BENCH_<area>.json trajectories found", file=sys.stderr)
        return 2
    try:
        docs = {area: load_document(path) for area, path in paths.items()}
    except StoreError as exc:
        # schema damage always hard-fails, even under --warn-only: an
        # unreadable baseline must not read as "no regression"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings, notes = compare_documents(docs, thresholds=thresholds)
    for note in notes:
        print(f"note: {note}")
    shown = [f for f in findings if f.severity != "ok"] if not args.verbose else findings
    for f in shown:
        print(f.format())
    bad = regressions(findings)
    compared = sum(
        1 for f in findings if f.severity in ("ok", "regression", "improvement", "noisy")
    )
    noisy = sum(1 for f in findings if f.severity == "noisy")
    print(
        f"\ncompared {compared} measurement(s) across {len(docs)} area(s): "
        f"{len(bad)} regression(s), "
        f"{sum(1 for f in findings if f.severity == 'improvement')} improvement(s), "
        f"{noisy} noisy drift(s)"
    )
    if bad:
        if args.warn_only:
            print("warn-only: not failing the gate despite regressions", file=sys.stderr)
            return 0
        return 1
    return 0


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.perf import StoreError, load_document, render_markdown, trajectory_files

    paths = trajectory_files(args.root)
    if not paths:
        print("error: no BENCH_<area>.json trajectories found", file=sys.stderr)
        return 2
    try:
        docs = {area: load_document(path) for area, path in paths.items()}
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_markdown(docs, max_runs=args.max_runs)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    import itertools

    from repro.cachesim.shared import simulate_partition_sharing
    from repro.workloads.generators import FIGURE1_CACHE_SIZE, figure1_traces

    traces = figure1_traces()
    C = FIGURE1_CACHE_SIZE

    def misses(grouping, sizes):
        r = simulate_partition_sharing(traces, grouping, sizes)
        return int((r.misses + r.cold_misses).sum())

    ffa = misses([[0, 1, 2, 3]], [C])
    best_part = min(
        (misses([[0], [1], [2], [3]], s), s)
        for s in itertools.product(range(1, C + 1), repeat=4)
        if sum(s) == C
    )
    ps = misses([[0], [1], [2, 3]], [1, 1, 4])
    print(f"Figure 1 (cache of {C} blocks, every program keeps >= 1):")
    print(f"  free-for-all sharing      : {ffa} misses")
    print(f"  best strict partitioning  : {best_part[0]} misses {best_part[1]}")
    print(f"  partition-sharing 1/1/{{3,4}}: {ps} misses")
    return 0


def _parse_policy(weights: str | None, slo: str | None, baseline: str, n_tenants: int):
    """Build an :class:`ObjectivePolicy` from CLI flags (None = default).

    ``weights``/``slo`` are comma-separated per-tenant values; a single
    value broadcasts to every tenant; ``-`` or ``none`` in ``slo`` leaves
    that tenant uncapped.  ``baseline`` is a family name or explicit
    comma-separated per-tenant miss-ratio thresholds.
    """
    if weights is None and slo is None and baseline == "none":
        return None
    from repro.core.policy import BASELINE_FAMILIES, ObjectivePolicy

    def _broadcast(vals: list) -> tuple:
        return tuple(vals * n_tenants if len(vals) == 1 else vals)

    w = None
    if weights is not None:
        w = _broadcast([float(tok) for tok in weights.split(",") if tok.strip()])
    caps = None
    if slo is not None:
        caps = _broadcast(
            [
                None if tok.strip().lower() in ("-", "none") else float(tok)
                for tok in slo.split(",")
                if tok.strip()
            ]
        )
    b: str | tuple = baseline
    if baseline not in BASELINE_FAMILIES:
        b = _broadcast([float(tok) for tok in baseline.split(",") if tok.strip()])
    policy = ObjectivePolicy(weights=w, slo_caps=caps, baseline=b)
    policy.check_arity(n_tenants)
    return policy


def _serve_setup(args: argparse.Namespace):
    """Workload + controller config + policy shared by ``serve`` and ``top``."""
    from repro.online.controller import ControllerConfig
    from repro.online.replay import phase_opposed_pair, steady_pair

    if args.workload == "phase-opposed":
        traces, epoch = phase_opposed_pair(loops=args.loops)
    else:
        traces, epoch = steady_pair()
    if args.epoch is not None:
        epoch = args.epoch
    config = ControllerConfig(
        cache_blocks=args.cache_blocks,
        epoch_length=epoch,
        sampling_rate=args.rate,
        drift_threshold=args.drift,
        hysteresis=args.hysteresis,
        quantum=args.quantum,
        max_buffered=args.max_buffer,
        seed=args.seed,
    )
    if args.batch < 1:
        raise ValueError("--batch must be >= 1")
    policy = _parse_policy(args.weights, args.slo, args.baseline, len(traces))
    if policy is not None:
        from repro.online.controller import check_online_policy

        check_online_policy(policy, len(traces))
    return traces, config, policy


def _parse_alert_policy(spec: str | None):
    """``FAST,SLOW`` epoch windows → :class:`AlertPolicy` (None = defaults)."""
    from repro.obs import AlertPolicy

    if spec is None:
        return AlertPolicy()
    toks = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if len(toks) != 2:
        raise ValueError("--alert-windows takes FAST,SLOW epoch counts")
    return AlertPolicy(fast_window=int(toks[0]), slow_window=int(toks[1]))


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.online.replay import replay

    try:
        traces, config, policy = _serve_setup(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    registry = server = tracer = flight = alerts = None
    if args.metrics_port is not None:
        from repro.obs import MetricsServer, Registry

        registry = Registry()
        server = MetricsServer(registry, port=args.metrics_port).start()
        print(f"metrics on {server.url}/metrics (health: {server.url}/healthz)")
    if args.trace_out is not None:
        from repro.obs import Tracer

        tracer = Tracer(journal=args.trace_out)
    if args.flight_out is not None:
        from repro.obs import FlightRecorder

        flight = FlightRecorder(journal=args.flight_out)
    if args.alerts:
        from repro.obs import BurnRateAlerts

        try:
            alert_policy = _parse_alert_policy(args.alert_windows)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        alerts = BurnRateAlerts(
            tuple(t.name for t in traces), policy=alert_policy, flight=flight
        )
    print(
        f"Serving the {args.workload} workload online "
        f"({', '.join(t.name for t in traces)}; cache {args.cache_blocks} blocks, "
        f"sampling {args.rate:.0%}):"
    )
    try:
        report = replay(
            traces,
            config,
            batch_size=args.batch,
            registry=registry,
            tracer=tracer,
            policy=policy,
            flight=flight,
            alerts=alerts,
        )
        print(report.summary())
        if report.alerts is not None:
            firing = sorted(t for t, s in report.alerts.items() if s["active"])
            print(
                f"  burn-rate alerts  {alerts.fired} fired, {alerts.cleared} cleared"
                + (f"; still FIRING: {', '.join(firing)}" if firing else "")
            )
        print("\nPer-epoch decisions:")
        print(f"{'epoch':>5s} {'allocation':>16s} {'solved':>6s} {'moved':>5s} "
              f"{'drift':>8s} {'gain':>8s}")
        for d in report.decisions:
            alloc = "/".join(str(int(a)) for a in d.allocation)
            drift = "   --" if not np.isfinite(d.drift) else f"{d.drift:8.4f}"
            print(f"{d.epoch:5d} {alloc:>16s} {str(d.resolved):>6s} "
                  f"{str(d.moved):>5s} {drift:>8s} {d.predicted_gain:8.4f}")
        if args.metrics_out is not None:
            import json

            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                json.dump(
                    {"metrics": report.metrics, "timeseries": report.timeseries},
                    fh,
                    indent=2,
                )
                fh.write("\n")
            print(f"\nwrote metrics snapshot + epoch time-series to {args.metrics_out}")
        if args.trace_out is not None:
            print(f"wrote span journal to {args.trace_out}")
        if flight is not None:
            flight.close()
            print(f"wrote flight journal to {args.flight_out}")
        if server is not None and args.linger > 0:
            print(f"holding /metrics open for {args.linger:.0f}s (final snapshot)...")
            time.sleep(args.linger)
    finally:
        if server is not None:
            server.stop()
        if tracer is not None:
            tracer.close()
        if flight is not None:
            flight.close()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import explain_allocation, explain_resolve, load_journal

    try:
        events = load_journal(args.journal)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.tenant is not None:
            print(explain_allocation(events, args.tenant, args.epoch))
        else:
            print(explain_resolve(events, args.epoch))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.console import ANSI_HOME_CLEAR, render_dashboard
    from repro.online.controller import OnlineController
    from repro.online.replay import stream

    try:
        traces, config, policy = _serve_setup(args)
        alerts = None
        if args.alerts:
            from repro.obs import BurnRateAlerts

            alerts = BurnRateAlerts(
                tuple(t.name for t in traces),
                policy=_parse_alert_policy(args.alert_windows),
            )
        controller = OnlineController(
            len(traces), config, names=tuple(t.name for t in traces),
            policy=policy, alerts=alerts,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        for _ in stream(traces, controller, batch_size=args.batch):
            pass
        doc = {
            "workload": args.workload,
            "cache_blocks": config.cache_blocks,
            "epoch_length": config.epoch_length,
            "metrics": controller.metrics.snapshot(),
            "timeseries": controller.timeseries.to_dict(),
        }
        if alerts is not None:
            doc["alerts"] = alerts.states()
        json.dump(doc, sys.stdout, indent=2)
        print()
        return 0
    use_ansi = sys.stdout.isatty() and not args.plain
    header = (
        f"repro-cps top — {args.workload} workload, "
        f"cache {config.cache_blocks} blocks, epoch {config.epoch_length} accesses"
    )
    for _ in stream(traces, controller, batch_size=args.batch):
        frame = render_dashboard(
            controller.timeseries,
            controller.metrics.snapshot(),
            cache_blocks=config.cache_blocks,
            alerts=None if alerts is None else alerts.states(),
        )
        if use_ansi:
            sys.stdout.write(f"{ANSI_HOME_CLEAR}{header}\n\n{frame}\n")
        else:
            print(header)
            print()
            print(frame)
            print("-" * 78)
        sys.stdout.flush()
        if args.refresh > 0:
            time.sleep(args.refresh)
    print(f"\nfinished: {controller.metrics.epochs} epochs")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cps",
        description="Optimal Cache Partition-Sharing (ICPP 2015) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("searchspace", help="§II solution-space sizes")
    p.add_argument("--units", type=int, default=1024)
    p.set_defaults(func=_cmd_searchspace)

    p = sub.add_parser("optimize", help="six schemes for one co-run group")
    p.add_argument("--programs", default="lbm,mcf,namd,soplex")
    p.add_argument("--cache-blocks", type=int, default=4096)
    p.add_argument("--unit-blocks", type=int, default=16)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("study", help="the full §VII sweep (REPRO_SCALE=full for 1024 units)")
    p.add_argument("--jobs", type=int, default=None,
                   help="sweep worker processes (default: REPRO_JOBS or 1)")
    p.add_argument("--trace-out", default=None,
                   help="journal sweep/solver spans to this path as JSONL")
    p.add_argument("--weights", default=None,
                   help="per-program objective weights (suite order), "
                        "comma-separated; one value broadcasts")
    p.add_argument("--slo", default=None,
                   help="per-program miss-ratio SLO caps (suite order), "
                        "comma-separated; '-' or 'none' leaves a program "
                        "uncapped; one value broadcasts")
    p.add_argument("--baseline", default="none",
                   help="baseline constraint: 'none', 'equal', 'natural', or "
                        "explicit per-program thresholds (comma-separated)")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("validate", help="§VII-C NPA validation")
    p.add_argument("--cache-blocks", type=int, default=1024)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("figure1", help="the motivating example")
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("export", help="run the study and write table/figure CSVs")
    p.add_argument("--out", default="results")
    p.add_argument("--jobs", type=int, default=None,
                   help="sweep worker processes (default: REPRO_JOBS or 1)")
    p.set_defaults(func=_cmd_export)

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workload", choices=("phase-opposed", "steady"), default="phase-opposed"
        )
        p.add_argument("--cache-blocks", type=int, default=56)
        p.add_argument("--epoch", type=int, default=None,
                       help="epoch length in accesses (default: the workload's phase)")
        p.add_argument("--rate", type=float, default=1.0, help="spatial sampling rate")
        p.add_argument("--drift", type=float, default=0.0,
                       help="re-solve only when mean-L1 MRC drift exceeds this")
        p.add_argument("--hysteresis", type=float, default=0.0,
                       help="min predicted group-miss-ratio gain to move walls")
        p.add_argument("--quantum", type=float, default=0.0,
                       help="solver-cache fingerprint quantization (miss-ratio units)")
        p.add_argument("--batch", type=int, default=64, help="ingest batch size")
        p.add_argument("--max-buffer", type=int, default=None,
                       help="per-tenant bound on epoch-alignment buffering "
                            "(accesses; raises backpressure beyond it)")
        p.add_argument("--loops", type=int, default=6,
                       help="phase swaps in the phase-opposed workload")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--weights", default=None,
                       help="per-tenant objective weights, comma-separated "
                            "(one value broadcasts to every tenant)")
        p.add_argument("--slo", default=None,
                       help="per-tenant miss-ratio SLO caps, comma-separated "
                            "('-' or 'none' leaves a tenant uncapped; one "
                            "value broadcasts)")
        p.add_argument("--baseline", default="none",
                       help="baseline constraint: 'none', 'equal', or explicit "
                            "per-tenant miss-ratio thresholds (comma-separated)")

    p = sub.add_parser(
        "serve", help="replay a workload through the online allocation service"
    )
    add_workload_args(p)
    p.add_argument("--metrics-port", type=int, default=None,
                   help="expose Prometheus /metrics and /healthz on this port "
                        "while the replay runs (0 picks a free port)")
    p.add_argument("--metrics-out", default=None,
                   help="write the final metrics snapshot and epoch time-series "
                        "to this path as JSON")
    p.add_argument("--trace-out", default=None,
                   help="journal controller/solver spans to this path as JSONL")
    p.add_argument("--flight-out", default=None,
                   help="journal decision provenance (flight-recorder events) "
                        "to this path as JSONL — the input of repro-cps explain")
    p.add_argument("--alerts", action="store_true",
                   help="arm multi-window SLO burn-rate alerting "
                        "(repro_alert_active gauges; needs --slo to fire)")
    p.add_argument("--alert-windows", default=None, metavar="FAST,SLOW",
                   help="burn-rate windows in epochs (default: 5,20)")
    p.add_argument("--linger", type=float, default=0.0,
                   help="keep /metrics up this many seconds after the replay "
                        "so scrapers can collect the final snapshot")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "explain", help="answer why-questions from a flight journal"
    )
    p.add_argument("journal", help="JSONL flight journal (serve --flight-out)")
    p.add_argument("--epoch", type=int, required=True,
                   help="the epoch to narrate")
    p.add_argument("--tenant", default=None,
                   help="narrate this tenant's allocation change "
                        "(default: the epoch's re-solve provenance)")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "top", help="live terminal dashboard of the online controller"
    )
    add_workload_args(p)
    p.add_argument("--refresh", type=float, default=0.0,
                   help="pause this many seconds between epoch frames")
    p.add_argument("--plain", action="store_true",
                   help="print frames sequentially instead of redrawing in place")
    p.add_argument("--format", choices=("live", "json"), default="live",
                   help="'json' streams headless and prints one snapshot "
                        "document (metrics, time-series, SLO headroom, alerts)")
    p.add_argument("--alerts", action="store_true",
                   help="arm burn-rate alerting and show the alert panel")
    p.add_argument("--alert-windows", default=None, metavar="FAST,SLOW",
                   help="burn-rate windows in epochs (default: 5,20)")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "lint", help="check the project contracts (repro-lint, rules RL001-RL014)"
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--select", default=None,
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--format", choices=("text", "json", "sarif"), default="text",
                   help="report format")
    p.add_argument("--jobs", type=int, default=1,
                   help="lint files in N worker processes (default: 1)")
    p.add_argument("--changed", action="store_true",
                   help="only report files git sees as modified/untracked "
                        "(the import graph still spans all paths)")
    p.add_argument("--cache", nargs="?", const="", default=None, metavar="PATH",
                   help="reuse an incremental lint cache "
                        "(default path: .repro-lint-cache.json)")
    p.add_argument("--stats", action="store_true",
                   help="print cache/graph statistics to stderr")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "bench", help="benchmark runner, perf trajectory, and regression gate"
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    def add_root_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--root", default=".",
                       help="repo root holding benchmarks/ and BENCH_*.json (default: .)")

    b = bench_sub.add_parser("list", help="discovered bench files, areas and tiers")
    add_root_arg(b)
    b.set_defaults(func=_cmd_bench_list)

    b = bench_sub.add_parser(
        "run", help="run a tier in isolated subprocesses and persist BENCH_<area>.json"
    )
    add_root_arg(b)
    b.add_argument("--tier", choices=("quick", "full"), default="quick")
    b.add_argument("--areas", default=None,
                   help="comma-separated areas to run (default: all)")
    b.add_argument("--scale", choices=("default", "smoke", "full"), default="default",
                   help="REPRO_SCALE pinned inside the bench workers")
    b.add_argument("--seed", type=int, default=0,
                   help="REPRO_BENCH_SEED pinned inside the bench workers")
    b.add_argument("--repeats", type=int, default=5,
                   help="timed repeats per bench (median/IQR are persisted)")
    b.add_argument("--warmup", type=int, default=1,
                   help="discarded warmup iterations per bench")
    b.add_argument("--jobs", type=int, default=0,
                   help="concurrent bench-file workers (default: min(4, CPUs))")
    b.add_argument("--out", default=".",
                   help="directory receiving BENCH_<area>.json (default: repo root)")
    b.add_argument("--keep", type=int, default=20,
                   help="runs retained per trajectory file")
    b.add_argument("--dry-run", action="store_true",
                   help="run and print, but do not touch BENCH_*.json")
    b.add_argument("--trace-out", default=None,
                   help="journal runner spans to this path as JSONL")
    b.set_defaults(func=_cmd_bench_run)

    b = bench_sub.add_parser(
        "compare",
        help="diff each trajectory's newest run against its last same-tier/scale run",
    )
    add_root_arg(b)
    b.add_argument("--areas", default=None,
                   help="comma-separated areas to gate (default: every BENCH_*.json)")
    b.add_argument("--time-tolerance", type=float, default=0.30,
                   help="relative timing regression threshold (default: 0.30)")
    b.add_argument("--quality-tolerance", type=float, default=0.02,
                   help="relative quality-metric regression threshold (default: 0.02)")
    b.add_argument("--warn-only", action="store_true",
                   help="report regressions but exit 0 (schema errors still exit 2)")
    b.add_argument("--verbose", action="store_true",
                   help="also print measurements that are within tolerance")
    b.set_defaults(func=_cmd_bench_compare)

    b = bench_sub.add_parser("report", help="render the markdown trajectory table")
    add_root_arg(b)
    b.add_argument("--max-runs", type=int, default=8,
                   help="trajectory columns per area (default: 8)")
    b.add_argument("--out", default=None, help="write to this path instead of stdout")
    b.set_defaults(func=_cmd_bench_report)

    p = sub.add_parser("profile", help="locality summary of catalog programs")
    p.add_argument("--programs", default="lbm,mcf,povray")
    p.add_argument("--cache-blocks", type=int, default=4096)
    p.set_defaults(func=_cmd_profile)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
