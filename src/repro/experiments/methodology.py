"""The §VII-A evaluation methodology: exhaustive 4-program co-run study.

The paper enumerates *all* C(16, 4) = 1820 four-program subsets of its
16-program suite and models six cache-sharing solutions per group on an
8 MB cache split into 1024 allocation units ("sampling is unscientific",
§VII-B).  This module reproduces that pipeline:

1. profile every program once (footprint → unit-grid miss-ratio curve);
2. sweep every group through the engine's
   :class:`~repro.engine.solver.GroupSolver` (all registered schemes);
3. return a :class:`StudyResult` holding per-group and per-program miss
   ratios — the raw data behind Table I and Figures 5–7.

The unconstrained and equal-baseline DPs are accelerated by *pair-curve
memoization*: the min-plus fold is associative, so the 120 two-program
combined curves are shared across all 1820 groups (a ~3x saving measured
by ``benchmarks/bench_cost.py``).  The engine's
:class:`~repro.engine.foldcache.FoldCache` carries them, keyed by
program identity via the sweep's :class:`~repro.engine.solver.SweepShared`
suite-curve bundle.  A group reads its final ``(a⊕b)⊕(c⊕d)`` stage at
one budget only, so that stage is a point query rather than a full fold;
likewise the natural-baseline DP folds on its slack after trimming the
infeasible sizes, and STTW is one sort instead of ``n_units`` greedy steps.

Groups are independent, so the sweep parallelizes: set
``ExperimentConfig.n_jobs`` (or ``run_study(..., n_jobs=...)``, or
``REPRO_JOBS`` in the environment) to fan contiguous group chunks out to
worker processes.  Chunks are merged by their start index, so the result
is bit-identical to the serial sweep regardless of completion order.

Observability: pass ``run_study(..., tracer=...)`` to record one
``sweep.chunk`` span per contiguous chunk (in the parallel sweep each
worker runs its own tracer and its spans are merged into the parent
trace on join, tagged with the worker's chunk); the engine-level
FoldCache counters are aggregated across workers into
:attr:`StudyResult.fold_cache_stats` either way.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.core.policy import (
    DEFAULT_POLICY,
    ObjectivePolicy,
    compile_costs,
    equal_share_costs,
)
from repro.engine import GroupSolver, SweepShared, resolve_schemes, scheme_names
from repro.locality.footprint import FootprintCurve, average_footprint
from repro.locality.mrc import MissRatioCurve
from repro.obs.trace import NULL_TRACER, Tracer
from repro.workloads.spec import SPEC_NAMES, make_suite

__all__ = [
    "STUDY_SCHEMES",
    "ExperimentConfig",
    "SuiteProfile",
    "build_suite_profile",
    "StudyResult",
    "run_study",
]

# The registry defines the scheme tuple once; this module used to carry
# its own copy of the six names (and `core.schemes` another).
STUDY_SCHEMES: tuple[str, ...] = scheme_names()


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and membership of the co-run study.

    The paper's scale is ``cache_blocks=131072`` (8 MB of 64 B blocks) with
    ``unit_blocks=128`` (8 KB units → 1024 units).  The default here keeps
    the same 4-program × 16-program exhaustive structure at a laptop-friendly
    grid; set ``REPRO_SCALE=full`` (see :func:`ExperimentConfig.from_env`)
    for the paper's 1024-unit grid.

    ``n_jobs`` is the sweep's worker-process count (1 = in-process
    serial); the result is bit-identical either way.
    """

    cache_blocks: int = 4096
    unit_blocks: int = 16
    group_size: int = 4
    names: tuple[str, ...] = SPEC_NAMES
    length_scale: float = 1.0
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.cache_blocks % self.unit_blocks != 0:
            raise ValueError("cache_blocks must be a multiple of unit_blocks")
        if not 2 <= self.group_size <= len(self.names):
            raise ValueError("group_size must be between 2 and the suite size")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")

    @property
    def n_units(self) -> int:
        return self.cache_blocks // self.unit_blocks

    @property
    def n_groups(self) -> int:
        from math import comb

        return comb(len(self.names), self.group_size)

    @classmethod
    def from_env(cls) -> "ExperimentConfig":
        """Scale selected by ``REPRO_SCALE``: default (fast), ``full`` for
        the paper's 1024-unit grid, or ``smoke`` — a 64-unit grid on
        quarter-length traces for CI smoke jobs and the bench runner's
        quick tier, where wall-clock budget matters more than grid
        resolution.

        ``REPRO_JOBS`` sets the sweep's worker count at any scale.
        """
        jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        scale = os.environ.get("REPRO_SCALE", "").lower()
        if scale == "full":
            return cls(cache_blocks=16384, unit_blocks=16, n_jobs=jobs)
        if scale == "smoke":
            return cls(cache_blocks=1024, unit_blocks=16, length_scale=0.25, n_jobs=jobs)
        return cls(n_jobs=jobs)


@dataclass(frozen=True)
class SuiteProfile:
    """Solo profiles of every program: the only measured inputs of the study."""

    config: ExperimentConfig
    footprints: tuple[FootprintCurve, ...]
    mrcs: tuple[MissRatioCurve, ...]  # on the allocation-unit grid

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(fp.name for fp in self.footprints)


def build_suite_profile(config: ExperimentConfig | None = None) -> SuiteProfile:
    """Generate the suite traces and profile each program once."""
    cfg = config if config is not None else ExperimentConfig()
    traces = make_suite(cfg.cache_blocks, names=cfg.names, length_scale=cfg.length_scale)
    footprints = tuple(average_footprint(t) for t in traces)
    mrcs = tuple(
        MissRatioCurve.from_footprint(fp, cfg.cache_blocks).resample(
            cfg.unit_blocks, cfg.n_units
        )
        for fp in footprints
    )
    return SuiteProfile(config=cfg, footprints=footprints, mrcs=mrcs)


@dataclass
class StudyResult:
    """Raw output of the exhaustive co-run sweep.

    ``group_mr[g, s]`` — group miss ratio of group ``g`` under scheme ``s``;
    ``program_mr[g, p, s]`` — member ``p``'s individual miss ratio;
    ``allocations[g, p, s]`` — member ``p``'s allocation in units
    (fractional for the natural scheme);
    ``groups[g]`` — the member indices into ``profile.names``.
    """

    profile: SuiteProfile
    schemes: tuple[str, ...]
    groups: np.ndarray
    group_mr: np.ndarray
    program_mr: np.ndarray
    allocations: np.ndarray
    convexity_violations: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Engine FoldCache counters of the sweep (summed across workers in a
    #: parallel run, plus ``workers``): the memoization behaviour behind
    #: the wall-clock numbers, surfaced instead of staying bench-internal.
    fold_cache_stats: dict = field(default_factory=dict)

    def scheme_index(self, scheme: str) -> int:
        return self.schemes.index(scheme)

    def series(self, scheme: str) -> np.ndarray:
        return self.group_mr[:, self.scheme_index(scheme)]

    def groups_containing(self, program: int | str) -> np.ndarray:
        """Row indices of the groups that include the given program."""
        if isinstance(program, str):
            program = self.profile.names.index(program)
        return np.flatnonzero((self.groups == program).any(axis=1))

    def program_series(self, program: int | str, scheme: str) -> np.ndarray:
        """One program's individual miss ratio across all its groups."""
        if isinstance(program, str):
            program = self.profile.names.index(program)
        rows = self.groups_containing(program)
        member = np.argmax(self.groups[rows] == program, axis=1)
        return self.program_mr[rows, member, self.scheme_index(scheme)]


def _sweep_solver(
    profile: SuiteProfile,
    schemes: tuple[str, ...],
    policy: ObjectivePolicy | None = None,
    tracer=None,
) -> GroupSolver:
    """The engine facade for one sweep, with the suite curves shared.

    The :class:`~repro.engine.solver.SweepShared` bundle holds every
    program's policy-compiled cost curve (and, when the equal baseline
    applies, its §VI masked counterpart — per-program thresholds depend
    only on the group-independent equal share, so they memoize across
    groups too).  The solver's FoldCache then shares pair folds across
    all groups containing a pair.  A non-default policy's fingerprint
    rides along as the bundle's salt so its curves can never collide
    with another policy's in a reused cache.
    """
    cfg = profile.config
    policy = policy if policy is not None else DEFAULT_POLICY
    costs = compile_costs(profile.mrcs, policy)
    eq_costs = None
    wants_equal = "equal_baseline" in schemes or (
        isinstance(policy.baseline, str) and policy.baseline == "equal"
    )
    if wants_equal:
        eq_costs = equal_share_costs(
            costs, cfg.n_units, cfg.group_size, rtol=policy.slo_rtol
        )
    shared = SweepShared(
        costs=costs,
        eq_costs=eq_costs,
        policy_salt=b"" if policy.is_default else policy.fingerprint(),
    )
    return GroupSolver(
        cfg.n_units,
        cfg.unit_blocks,
        schemes=schemes,
        shared=shared,
        policy=policy,
        tracer=tracer,
    )


def _merge_cache_stats(stats: Sequence[dict]) -> dict:
    """Sum FoldCache counters across sweep workers into one view."""
    merged: dict = {
        k: sum(s[k] for s in stats)
        for k in ("hits", "misses", "lookups", "entries", "evictions")
    }
    merged["hit_ratio"] = merged["hits"] / merged["lookups"] if merged["lookups"] else 0.0
    merged["workers"] = len(stats)
    return merged


def _sweep_chunk(
    profile: SuiteProfile,
    schemes: tuple[str, ...],
    solver: GroupSolver,
    groups: Sequence[tuple[int, ...]],
    *,
    progress_base: int = 0,
    progress_total: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate a contiguous run of groups; returns the chunk's arrays."""
    P = profile.config.group_size
    n_s = len(schemes)
    group_mr = np.full((len(groups), n_s), np.nan)
    program_mr = np.full((len(groups), P, n_s), np.nan)
    allocations = np.full((len(groups), P, n_s), np.nan)
    for g, members in enumerate(groups):
        members = tuple(members)
        ev = solver.evaluate(
            [profile.mrcs[i] for i in members],
            [profile.footprints[i] for i in members],
            members=members,
        )
        for s, scheme in enumerate(schemes):
            out = ev.outcomes[scheme]
            allocations[g, :, s] = out.allocation
            program_mr[g, :, s] = out.miss_ratios
            group_mr[g, s] = out.group_miss_ratio
        done = progress_base + g + 1
        if progress_total and done % 200 == 0:  # pragma: no cover - console aid
            print(f"  swept {done}/{progress_total} groups")
    return group_mr, program_mr, allocations


# Worker-process state for the parallel sweep: the profile and solver are
# built once per worker (via the pool initializer) rather than pickled
# with every chunk; each worker grows its own FoldCache of pair curves
# and, when tracing is on, its own Tracer (a live tracer with an open
# journal cannot cross the process boundary — span dicts can).
_POOL_STATE: dict = {}


def _pool_init(
    profile: SuiteProfile,
    schemes: tuple[str, ...],
    policy: ObjectivePolicy | None = None,
    trace: bool = False,
) -> None:
    _POOL_STATE["profile"] = profile
    _POOL_STATE["schemes"] = schemes
    _POOL_STATE["tracer"] = Tracer() if trace else NULL_TRACER
    _POOL_STATE["solver"] = _sweep_solver(
        profile, schemes, policy, _POOL_STATE["tracer"]
    )


def _pool_sweep(
    task: tuple[int, tuple[tuple[int, ...], ...]],
) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray], dict, list[dict]]:
    start, chunk = task
    tracer = _POOL_STATE["tracer"]
    with tracer.span("sweep.chunk", start=start, size=len(chunk)):
        arrays = _sweep_chunk(
            _POOL_STATE["profile"], _POOL_STATE["schemes"], _POOL_STATE["solver"], chunk
        )
    # stats are cumulative per worker *process*; tag them so the parent
    # can keep one (final) snapshot per worker even if a worker happened
    # to process several chunks
    stats = {**_POOL_STATE["solver"].fold_cache.stats(), "pid": os.getpid()}
    return start, arrays, stats, tracer.drain()


def run_study(
    profile: SuiteProfile,
    *,
    schemes: Sequence[str] | None = None,
    groups: Sequence[tuple[int, ...]] | None = None,
    progress: bool = False,
    n_jobs: int | None = None,
    policy: ObjectivePolicy | None = None,
    tracer=None,
) -> StudyResult:
    """Sweep all co-run groups under every requested scheme.

    ``groups`` defaults to *all* size-``group_size`` subsets of the suite
    (the paper's exhaustive design).  Group miss ratios are weighted by
    access counts; individual miss ratios come from each program's solo
    curve at its allocation, per the Natural Partition Assumption.

    ``policy`` (default: the identity :data:`~repro.core.policy.DEFAULT_POLICY`)
    reshapes the objective: per-tenant fields are indexed by *suite*
    program, so weights/caps follow a program into every group it joins.

    ``n_jobs`` overrides ``profile.config.n_jobs``; with more than one
    job the groups are split into contiguous chunks swept by worker
    processes and merged by start index — same result, less wall clock.

    ``tracer`` records ``sweep.chunk`` spans (and, inside them, the
    engine's solver/fold spans); worker spans are merged into it as each
    chunk joins.  Tracing changes timings only, never results.
    """
    cfg = profile.config
    tracer = tracer if tracer is not None else NULL_TRACER
    scheme_tuple = STUDY_SCHEMES if schemes is None else tuple(schemes)
    resolve_schemes(scheme_tuple)  # fail on unknown names before any work
    all_groups = (
        [tuple(g) for g in groups]
        if groups is not None
        else list(combinations(range(len(profile.names)), cfg.group_size))
    )
    if any(len(g) != cfg.group_size for g in all_groups):
        raise ValueError("every group must match config.group_size")
    n_g, P = len(all_groups), cfg.group_size
    n_s = len(scheme_tuple)

    jobs = cfg.n_jobs if n_jobs is None else int(n_jobs)
    if jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    jobs = min(jobs, n_g) if n_g else 1

    if jobs == 1:
        solver = _sweep_solver(profile, scheme_tuple, policy, tracer)
        with tracer.span("sweep.chunk", start=0, size=n_g):
            group_mr, program_mr, allocations = _sweep_chunk(
                profile,
                scheme_tuple,
                solver,
                all_groups,
                progress_total=n_g if progress else 0,
            )
        cache_stats = solver.fold_cache.stats() if solver.fold_cache else {}
        cache_stats = {**cache_stats, "workers": 1}
    else:
        group_mr = np.full((n_g, n_s), np.nan)
        program_mr = np.full((n_g, P, n_s), np.nan)
        allocations = np.full((n_g, P, n_s), np.nan)
        chunk_size = (n_g + jobs - 1) // jobs
        tasks = [
            (start, tuple(all_groups[start : start + chunk_size]))
            for start in range(0, n_g, chunk_size)
        ]
        worker_stats: dict[int, dict] = {}
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_pool_init,
            initargs=(profile, scheme_tuple, policy, tracer.enabled),
        ) as pool:
            for start, (gm, pm, al), stats, spans in pool.map(_pool_sweep, tasks):
                stop = start + gm.shape[0]
                group_mr[start:stop] = gm
                program_mr[start:stop] = pm
                allocations[start:stop] = al
                # snapshots from the same worker are cumulative; keep the
                # furthest-along one (map yields in submission order, not
                # completion order, so compare rather than overwrite)
                pid = stats.pop("pid")
                if (
                    pid not in worker_stats
                    or stats["lookups"] >= worker_stats[pid]["lookups"]
                ):
                    worker_stats[pid] = stats
                tracer.adopt(spans, worker=f"chunk{start}")
                if progress:  # pragma: no cover - console aid
                    print(f"  swept {stop}/{n_g} groups")
        cache_stats = _merge_cache_stats(list(worker_stats.values()))

    # census of *material* convexity violations (tolerance filters the
    # sampling noise; what remains are real plateau-then-cliff structures)
    violations = np.array([m.convexity_violations(tol=1e-3) for m in profile.mrcs])
    return StudyResult(
        profile=profile,
        schemes=scheme_tuple,
        groups=np.array(all_groups, dtype=np.int64),
        group_mr=group_mr,
        program_mr=program_mr,
        allocations=allocations,
        convexity_violations=violations,
        fold_cache_stats=cache_stats,
    )
