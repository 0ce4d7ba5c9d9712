"""Workloads, output checks and layer accounting of the end-to-end benchmark.

Two units of work are measured, each through public entry points only and
timed from outside with ``time.perf_counter``:

* the §VII-A co-run study: ``build_suite_profile`` once per set-up, then
  ``run_study`` over *windows* — the exhaustive 4-program groups of five
  cyclically consecutive suite programs (five groups per call), cycling
  through all sixteen windows.  Every group of a window shares the
  window's pair folds, as the full 1820-group sweep shares its pairs;
* the online epoch: ``OnlineController.ingest`` fed lockstep batches in a
  closed loop (one caller, the next batch only after the previous call
  returned).

An *operation* is one ``run_study`` call on a window (study workloads) or
one epoch (epoch workloads).  ``run.py`` is the command-line entry point;
the functions here take sizes as arguments so tests can shrink them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.kernels import active_kernel
from repro.experiments.methodology import (
    STUDY_SCHEMES,
    ExperimentConfig,
    SuiteProfile,
    build_suite_profile,
    run_study,
)
from repro.locality.footprint import average_footprint
from repro.locality.mrc import MissRatioCurve
from repro.obs.trace import NULL_TRACER, Tracer
from repro.online import ControllerConfig, OnlineController
from repro.workloads.spec import make_suite

#: Set-up runs at least this many times, and until SETUP_MIN_S has passed;
#: ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
#: Run-time metrics are taken per slice of this many seconds of the
#: measured window, and the slice value at the quartile toward "better"
#: is reported (25th percentile of latencies, 75th of throughputs).  On a
#: shared host, contention from other processes slows whole slices; like
#: timeit's minimum, the quartile keeps it out of the result, and unlike
#: the minimum it is not set by one lucky slice.
SLICE_S = 1.0
#: Ring capacity of the traced run's tracer; it is drained after every
#: operation, so this only has to hold one operation's spans.
TRACE_CAPACITY = 1 << 16


#: Programs per study window: C(5, 4) = 5 groups per ``run_study`` call.
WINDOW = 5
UNIT_BLOCKS = 16
#: Epoch workloads: tenants, cache size in blocks, SHARDS sampling rate,
#: and accesses per tenant in each lockstep ``ingest`` call.
TENANTS = 8
EPOCH_CACHE_BLOCKS = 1024
SAMPLING_RATE = 0.1
BATCH = 1024


@dataclass(frozen=True)
class StudyWorkload:
    """The §VII-A study at one grid size, swept window by window."""

    cache_blocks: int
    length_scale: float = 1.0
    #: Mean Optimal group miss ratio over one full cycle of windows,
    #: pinned at 1e-9 relative (``None``: not checked).
    golden_optimal_mr: float | None = None

    @property
    def config(self) -> ExperimentConfig:
        # built explicitly so REPRO_SCALE / REPRO_JOBS cannot change it
        return ExperimentConfig(
            cache_blocks=self.cache_blocks,
            unit_blocks=UNIT_BLOCKS,
            length_scale=self.length_scale,
            n_jobs=1,
        )


@dataclass(frozen=True)
class EpochWorkload:
    """Tenants streaming lockstep batches of BATCH accesses into one controller.

    ``drift=False``: tenant ``i`` replays one fixed zipf period over
    ``200 + 60 i`` blocks every epoch, so every epoch after the first
    hits the solver cache.  ``drift=True``: every epoch each tenant
    draws a fresh uniform working set of 100–599 blocks, so every epoch
    re-solves cold.  Drift and hysteresis thresholds are 0.

    The controller's SHARDS hash seed stays at its default: it is
    configuration, not input.  Hot blocks keep low ids, so every access
    seed profiles the same blocks and does the same amount of work.
    """

    drift: bool
    epoch_length: int

    @property
    def config(self) -> ControllerConfig:
        return ControllerConfig(
            cache_blocks=EPOCH_CACHE_BLOCKS,
            epoch_length=self.epoch_length,
            sampling_rate=SAMPLING_RATE,
        )


Workload = StudyWorkload | EpochWorkload

WORKLOADS: dict[str, Workload] = {
    # 1024 units of 16 blocks, full-length traces: the paper's grid
    "study-paper": StudyWorkload(cache_blocks=16384, golden_optimal_mr=0.08965441351852277),
    # 64 units on quarter-length traces: REPRO_SCALE=smoke
    "study-smoke": StudyWorkload(
        cache_blocks=1024, length_scale=0.25, golden_optimal_mr=0.10582591763912437
    ),
    "epoch-steady": EpochWorkload(drift=False, epoch_length=8192),
    "epoch-drift": EpochWorkload(drift=True, epoch_length=4096),
}

#: Span name -> layer.  A span's self time (its duration minus the time
#: its child spans cover) is charged to its layer; a span not listed here
#: is charged to its nearest listed ancestor.  ``bench.op`` is the
#: benchmark's own span around each operation.
STUDY_LAYERS = {
    "bench.op": "core.policy.compile_ms",
    "sweep.chunk": "experiments.sweep_self_ms",
    "solver.evaluate": "engine.evaluate_self_ms",
    "solver.scheme.equal": "engine.evaluate_self_ms",
    "solver.scheme.optimal": "engine.pairtree_self_ms",
    "solver.scheme.equal_baseline": "engine.pairtree_self_ms",
    "solver.scheme.natural": "composition.ncp_ms",
    "solver.scheme.natural_baseline": "core.baselines.natural_ms",
    "solver.scheme.sttw": "core.sttw_ms",
    "foldcache.convolve": "engine.foldcache.convolve_ms",
}
EPOCH_LAYERS = {
    "bench.op": "online.ingest_ms",
    "controller.epoch": "online.epoch_self_ms",
    "controller.resolve": "online.resolve_self_ms",
    "foldcache.solve": "engine.foldcache.solve_ms",
}
SETUP_LAYERS = ("workloads.make_suite_s", "locality.footprint_s", "locality.mrc_s")

#: name -> unit of every metric a run reports (``BENCHMARK.json`` lists
#: the same names; the contract test keeps them in step).
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **dict.fromkeys(SETUP_LAYERS, "s"),
    "locality.accesses": "count",
    **dict.fromkeys(STUDY_LAYERS.values(), "ms"),
    "engine.foldcache.convolve_per_op": "count",
    "engine.foldcache.hit_ratio": "ratio",
    **dict.fromkeys(EPOCH_LAYERS.values(), "ms"),
    "online.solver_cache_hit_ratio": "ratio",
    "online.samples_per_access": "ratio",
    "trace.op_p50_ms": "ms",
}


@dataclass
class Run:
    """What one run measured, before it is turned into metrics."""

    setup_s: list[float] = field(default_factory=list)
    #: Per operation: its latency (for an epoch, of the call that closes
    #: it), the summed latency of all its timed calls, and when it ended
    #: in seconds after ``started``.
    latencies_s: list[float] = field(default_factory=list)
    busy_s: list[float] = field(default_factory=list)
    ends_s: list[float] = field(default_factory=list)
    started: float = 0.0
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    #: layer -> total self time in seconds (traced runs only)
    layers: dict[str, float] = field(default_factory=dict)
    #: per-layer metrics reported as measured: set-up layer times, counts
    #: and ratios (traced runs only)
    direct: dict[str, float] = field(default_factory=dict)
    #: digest of the deterministic outputs, for the determinism tests
    digest: str = ""

    @property
    def ops(self) -> int:
        return len(self.latencies_s)

    def record(self, latency: float, busy: float) -> None:
        self.latencies_s.append(latency)
        self.busy_s.append(busy)
        self.ends_s.append(time.perf_counter() - self.started)

    def keep_going(self, seconds: float, min_ops: int) -> bool:
        return self.ops < min_ops or time.perf_counter() - self.started < seconds


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------
def check_groups(result) -> np.ndarray:
    """Per-group failure mask of one ``StudyResult``.

    A group fails if any scheme's group miss ratio is non-finite or
    outside [0, 1]; if an integer scheme's allocation is not non-negative
    integers summing to the cache size in units; if Optimal's group miss
    ratio exceeds another integer scheme's by more than 1e-12 relative;
    or if a member does worse under Equal Baseline than under the equal
    allocation by more than 1e-9 relative.
    """
    n_units = result.profile.config.n_units
    mr = result.group_mr
    bad = ~np.all(np.isfinite(mr) & (mr >= 0.0) & (mr <= 1.0), axis=1)
    integer = [s for s, name in enumerate(result.schemes) if name != "natural"]
    alloc = result.allocations[:, :, integer]
    whole = np.all(np.isfinite(alloc) & (alloc >= 0) & (alloc == np.round(alloc)), axis=(1, 2))
    sums_ok = np.all(np.isclose(alloc.sum(axis=1), n_units, rtol=0.0, atol=1e-9), axis=1)
    bad |= ~(whole & sums_ok)
    opt = mr[:, result.scheme_index("optimal")]
    bad |= np.any(opt[:, None] > mr[:, integer] * (1 + 1e-12), axis=1)
    eq = result.program_mr[:, :, result.scheme_index("equal")]
    eqb = result.program_mr[:, :, result.scheme_index("equal_baseline")]
    bad |= np.any(eqb > eq * (1 + 1e-9), axis=1)
    return bad


def check_epoch(per_call: list[list], epoch: int) -> bool:
    """Whether one epoch's ``ingest`` calls produced a valid decision.

    The call that reaches the epoch boundary must return exactly one
    decision, numbered ``epoch``, whose allocation is one non-negative
    integer per tenant, summing to the cache size in blocks; every earlier
    call of the epoch must return none.
    """
    *head, last = per_call
    if any(head) or len(last) != 1 or last[0].epoch != epoch:
        return False
    alloc = np.asarray(last[0].allocation)
    return (
        alloc.shape == (TENANTS,)
        and np.issubdtype(alloc.dtype, np.integer)
        and bool((alloc >= 0).all())
        and int(alloc.sum()) == EPOCH_CACHE_BLOCKS
    )


def exit_code(result: dict) -> int:
    """0 for a correct run without failed operations, else 1."""
    return 0 if result["correct"] and result["failed"] == 0 else 1


# --------------------------------------------------------------------------
# layer accounting
# --------------------------------------------------------------------------
def layer_self_times(spans: list[dict], layers: dict[str, str]) -> dict[str, float]:
    """Sum span self times (seconds) per layer; see :data:`STUDY_LAYERS`."""
    by_id = {s["id"]: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = dict.fromkeys(layers.values(), 0.0)
    for s in spans:
        node = s
        while node["name"] not in layers:
            node = by_id.get(node["parent"])
            if node is None:
                raise ValueError(f"span {s['name']!r} has no ancestor in the layer map")
        out[layers[node["name"]]] += (s["end"] - s["start"]) - covered[s["id"]]
    return out


class _LayerAccount:
    """Drains a tracer after each operation and accumulates layer times."""

    def __init__(self, layers: dict[str, str]) -> None:
        self.layers = layers
        self.tracer = Tracer(capacity=TRACE_CAPACITY)
        self.totals = dict.fromkeys(layers.values(), 0.0)
        self.seen: set[str] = set()
        self.counts: dict[str, int] = defaultdict(int)

    def collect(self) -> None:
        spans = self.tracer.drain()
        if self.tracer.dropped:
            raise RuntimeError(f"tracer dropped {self.tracer.dropped} spans")
        for name, secs in layer_self_times(spans, self.layers).items():
            self.totals[name] += secs
        for s in spans:
            self.seen.add(s["name"])
            self.counts[s["name"]] += 1

    def check_complete(self) -> None:
        missing = sorted(set(self.layers) - self.seen)
        if missing:
            raise RuntimeError(f"spans never emitted: {', '.join(missing)}")


# --------------------------------------------------------------------------
# set-up and measurement loop
# --------------------------------------------------------------------------
def _repeat_setup(build: Callable[[], object]) -> tuple[list[float], object]:
    """Run ``build`` SETUP_REPEATS+ times; returns the times and last result."""
    times: list[float] = []
    built = None
    started = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - started < SETUP_MIN_S:
        built = None  # release the previous set-up before building the next
        t0 = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - t0)
    return times, built


def traced_profile(config: ExperimentConfig) -> tuple[SuiteProfile, dict[str, float]]:
    """``build_suite_profile`` step by step, timing each layer."""
    t0 = time.perf_counter()
    traces = make_suite(config.cache_blocks, names=config.names, length_scale=config.length_scale)
    t1 = time.perf_counter()
    footprints = tuple(average_footprint(t) for t in traces)
    t2 = time.perf_counter()
    mrcs = tuple(
        MissRatioCurve.from_footprint(fp, config.cache_blocks).resample(
            config.unit_blocks, config.n_units
        )
        for fp in footprints
    )
    t3 = time.perf_counter()
    times = dict(zip(SETUP_LAYERS, (t1 - t0, t2 - t1, t3 - t2)))
    times["locality.accesses"] = float(sum(len(t) for t in traces))
    return SuiteProfile(config=config, footprints=footprints, mrcs=mrcs), times


def windows(profile: SuiteProfile) -> list[SuiteProfile]:
    """Sub-suites of WINDOW cyclically consecutive programs, one per program."""
    n = len(profile.names)
    out = []
    for start in range(n):
        idx = [(start + k) % n for k in range(WINDOW)]
        names = tuple(profile.names[i] for i in idx)
        out.append(
            SuiteProfile(
                config=dataclasses.replace(profile.config, names=names),
                footprints=tuple(profile.footprints[i] for i in idx),
                mrcs=tuple(profile.mrcs[i] for i in idx),
            )
        )
    return out


def run_study_workload(
    wl: StudyWorkload, *, seconds: float, trace: bool, min_ops: int | None = None
) -> Run:
    """Set up, then sweep windows until ``seconds`` and ``min_ops`` are reached.

    ``min_ops`` defaults to one full cycle of windows, which the golden
    check needs.
    """
    run = Run()
    config = wl.config
    if trace:
        profile, setup_layers = traced_profile(config)
        run.direct.update(setup_layers)
    else:
        run.setup_s, profile = _repeat_setup(lambda: build_suite_profile(config))
    subs = windows(profile)
    min_ops = len(subs) if min_ops is None else min_ops
    account = _LayerAccount(STUDY_LAYERS) if trace else None
    tracer = account.tracer if account else NULL_TRACER
    first_cycle: list[np.ndarray] = []
    hits = lookups = 0
    run.started = time.perf_counter()
    while run.keep_going(seconds, min_ops):
        k = run.ops % len(subs)
        t0 = time.perf_counter()
        with tracer.span("bench.op"):
            result = run_study(subs[k], n_jobs=1, tracer=tracer)
        latency = time.perf_counter() - t0
        run.record(latency, latency)
        if account:
            account.collect()
        bad = check_groups(result)
        if len(first_cycle) < len(subs):
            first_cycle.append(result.group_mr)
        else:  # every later sweep of a window must repeat its first one
            bad |= np.array(
                [not np.array_equal(a, b) for a, b in zip(result.group_mr, first_cycle[k])]
            )
        run.attempted += len(bad)
        run.failed += int(bad.sum())
        hits += result.fold_cache_stats["hits"]
        lookups += result.fold_cache_stats["lookups"]
    if len(first_cycle) == len(subs) and wl.golden_optimal_mr is not None:
        s = STUDY_SCHEMES.index("optimal")
        optimal = np.concatenate([mr[:, s] for mr in first_cycle]).mean()
        run.correct = bool(np.isclose(optimal, wl.golden_optimal_mr, rtol=1e-9, atol=0.0))
    run.digest = hashlib.sha256(b"".join(mr.tobytes() for mr in first_cycle)).hexdigest()
    if account:
        account.check_complete()
        run.layers = account.totals
        run.direct["engine.foldcache.convolve_per_op"] = (
            account.counts["foldcache.convolve"] / run.ops
        )
        run.direct["engine.foldcache.hit_ratio"] = hits / lookups if lookups else 0.0
    return run


def epoch_inputs(wl: EpochWorkload, seed: int):
    """Yield one epoch's per-tenant access arrays at a time."""
    rng = np.random.default_rng(seed)
    if not wl.drift:
        periods = []
        for i in range(TENANTS):
            m = 200 + 60 * i
            p = 1.0 / np.arange(1, m + 1)
            periods.append(rng.choice(m, size=wl.epoch_length, p=p / p.sum()))
        while True:
            yield periods
    while True:
        yield [
            rng.integers(0, rng.integers(100, 600), size=wl.epoch_length)
            for _ in range(TENANTS)
        ]


def feed_epoch(
    controller: OnlineController, wl: EpochWorkload, accesses: list[np.ndarray], tracer
) -> tuple[list[list], float, float]:
    """Feed one epoch in lockstep batches.

    Returns the decisions of each call, the latency of the last call (the
    one that closes the epoch) and the summed latency of all calls.
    """
    per_call: list[list] = []
    busy = dt = 0.0
    for start in range(0, wl.epoch_length, BATCH):
        batches = [a[start : start + BATCH] for a in accesses]
        t0 = time.perf_counter()
        with tracer.span("bench.op"):
            out = controller.ingest(batches)
        dt = time.perf_counter() - t0
        busy += dt
        per_call.append(out)
    return per_call, dt, busy


def run_epoch_workload(
    wl: EpochWorkload, *, seed: int, seconds: float, trace: bool, min_ops: int = 1
) -> Run:
    """Set up (constructor + first epoch), then decide epochs until done."""
    if wl.epoch_length % BATCH:
        raise ValueError("epoch_length must be a multiple of BATCH")
    run = Run()
    inputs = epoch_inputs(wl, seed)
    first = next(inputs)
    account = _LayerAccount(EPOCH_LAYERS) if trace else None
    tracer = account.tracer if account else NULL_TRACER

    def setup() -> OnlineController:
        controller = OnlineController(TENANTS, wl.config, tracer=tracer)
        per_call, _, _ = feed_epoch(controller, wl, first, tracer)
        if not check_epoch(per_call, 0):
            raise RuntimeError("the set-up epoch produced no valid decision")
        return controller

    if trace:
        controller = setup()
        account.tracer.drain()  # set-up spans are not measured
    else:
        run.setup_s, controller = _repeat_setup(setup)
    decided: list[bytes] = []
    run.started = time.perf_counter()
    while run.keep_going(seconds, min_ops):
        epoch = run.ops + 1
        accesses = next(inputs)
        run.attempted += 1
        try:
            per_call, latency, spent = feed_epoch(controller, wl, accesses, tracer)
        except Exception:  # a raising call fails the epoch; state is unknown after it
            traceback.print_exc(file=sys.stderr)
            run.failed += 1
            break
        run.record(latency, spent)
        if account:
            account.collect()
        if check_epoch(per_call, epoch):
            decided.append(np.asarray(per_call[-1][0].allocation).tobytes())
        else:
            run.failed += 1
    if not run.failed:  # after a failure the controller's state is unknown
        run.correct = controller.finish() == []
    run.digest = hashlib.sha256(b"".join(decided)).hexdigest()
    if account:
        account.check_complete()
        run.layers = account.totals
        snap = controller.metrics.snapshot()
        run.direct["online.solver_cache_hit_ratio"] = snap["solver_cache_hit_ratio"]
        run.direct["online.samples_per_access"] = snap["effective_sampling_rate"]
    return run


# --------------------------------------------------------------------------
# metrics and output
# --------------------------------------------------------------------------
def _sliced(run: Run, stat: Callable[[np.ndarray], float], higher_is_better: bool) -> float:
    """``stat`` of each slice's operation indices, at the better quartile."""
    slice_of = np.asarray(run.ends_s) // SLICE_S
    slices = np.unique(slice_of)
    if len(slices) > 1:  # the last slice is cut short by the end of the run
        slices = slices[:-1]
    values = [stat(np.flatnonzero(slice_of == k)) for k in slices]
    return float(np.percentile(values, 75 if higher_is_better else 25))


def _percentile_ms(run: Run, q: float) -> float:
    latencies = np.asarray(run.latencies_s)
    return _sliced(run, lambda ops: float(np.percentile(latencies[ops], q)) * 1e3, False)


def metrics(run: Run, trace: bool) -> dict[str, dict]:
    """The contract's metric object: every end-to-end or per-layer metric.

    Layer self times are reported per operation, so they compare across
    runs that fit a different number of operations into their seconds.
    A layer the workload never enters reads 0.
    """
    if trace:
        values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        values.update(run.direct)
        values.update({name: secs / run.ops * 1e3 for name, secs in run.layers.items()})
        values["trace.op_p50_ms"] = _percentile_ms(run, 50)
        units = PER_LAYER_UNITS
    else:
        busy = np.asarray(run.busy_s)
        values = {
            "setup_s": statistics.median(run.setup_s),
            "ops_per_s": _sliced(run, lambda ops: len(ops) / busy[ops].sum(), True),
            "op_p50_ms": _percentile_ms(run, 50),
            "op_p90_ms": _percentile_ms(run, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def measure(
    wl: Workload, *, seed: int, seconds: float, trace: bool, min_ops: int | None = None
) -> Run:
    """Run one workload for at least ``seconds`` and ``min_ops`` operations.

    The seed drives the epoch workloads' inputs; the study workloads run
    the fixed suite, whose programs are seeded by name.
    """
    if isinstance(wl, StudyWorkload):
        return run_study_workload(wl, seconds=seconds, trace=trace, min_ops=min_ops)
    return run_epoch_workload(wl, seed=seed, seconds=seconds, trace=trace, min_ops=min_ops or 1)


def result_object(run: Run, trace: bool) -> dict:
    """The last output line: ``{"correct", "attempted", "failed", "metrics"}``."""
    return {
        "correct": run.correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics(run, trace),
    }


def environment() -> dict:
    """Host and build facts recorded with every result."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": active_kernel(),
    }
