"""FoldCache: one memoization layer for every min-plus fold in the repo.

Before the engine existed the repo had two ad-hoc memoizers for the same
(min, +) algebra: the §VII-A sweep kept a dict of two-program pair curves
(`_pair_tables` in the old methodology module) and the online service
kept an LRU of fingerprinted DP results (`SolverCache`).  FoldCache
subsumes both:

* :meth:`convolve` memoizes a single pair fold ``a ⊕ b`` — keyed either
  by an explicit caller token (cheap, for curves with a stable identity,
  e.g. "suite program i's cost curve") or by a content fingerprint.
  Only full curves that are read again belong here: the sweep's
  per-group final stage is read at one budget, so it is a point query
  (:func:`repro.core.minplus.convolve_at`) and never a cache entry;
* :meth:`solve` memoizes a complete partitioning DP
  (:func:`repro.core.dp.optimal_partition`) on quantized cost
  fingerprints, exactly as the online solver cache always did.  A cold
  solve runs the prefix-trimmed, point-queried DP; the warm path
  (``warm=True``) keeps full-grid stages, because its stage reuse, the
  flight journal's ``stages_*`` counts and its budget-only re-solve
  (DESIGN §13) all read them.

Invariants:

* a hit returns the result computed for the *first* instance that
  landed in the bucket — bit-identical replay for exact keys
  (``quantum=0`` or token keys), and within ``P · C · quantum`` of
  optimal for quantized colliders;
* entries are LRU-evicted beyond ``max_entries``, so the hot pair
  curves of a sweep survive a stream of one-shot solves;
* ``hits``/``misses`` count every lookup, across both entry kinds, so
  one hit-rate describes the whole engine's memoization.

Observability: :meth:`FoldCache.stats` is the canonical flat view of the
counters (surfaced by ``run_study`` results and the cost benchmarks);
:meth:`FoldCache.register_with` binds them to callback metrics in a
:class:`~repro.obs.prom.Registry`; a ``tracer`` (default: the no-op
:data:`~repro.obs.trace.NULL_TRACER`) records a span around every
*computed* pair fold (hits stay span-free) and every DP solve (tagged
``hit`` when the memo supplied the result).

The class implements the ``MutableMapping`` subset that
:func:`repro.core.dp.optimal_partition` expects from its ``memo``
argument.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, Sequence, cast

import numpy as np

from repro.core.dp import (
    PartitionResult,
    cost_fingerprint,
    curve_fingerprint,
    optimal_partition,
    validate_instance,
)
from repro.core.kernels import convolve
from repro.core.minplus import MinPlusFold, fold_curves_stages
from repro.obs import NULL_FLIGHT_RECORDER, FlightLike
from repro.obs.trace import NULL_TRACER, TracerLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.prom import Registry

__all__ = ["FoldCache"]

_MISSING = object()  # sentinel: distinguishes "absent" from a stored None


@dataclass
class _WarmState:
    """Per-stage fold state of the last warm-eligible solve.

    ``prefixes[j]`` is the running optimum over curves ``0..j`` and
    ``splits[j-1]`` the backtracking row of the stage that folded curve
    ``j`` in — exactly the arrays a subsequent solve reuses up to the
    first curve whose fingerprint changed.  Valid only for instances on
    the same quantization lattice and grid, which is why both are part
    of the state.
    """

    quantum: float
    grid: int
    salt: bytes
    curve_fps: list[bytes]
    prefixes: list[np.ndarray]
    splits: list[np.ndarray]


class FoldCache:
    """LRU-bounded memo for min-plus folds and partitioning DP solves.

    Parameters
    ----------
    quantum:
        Cost-curve quantization for :meth:`solve` fingerprints; ``0``
        requires exact byte equality.  Costs are miss *counts*, so pick
        the quantum in miss-count units (e.g. ``epsilon * n_accesses``).
    max_entries:
        Cached results kept; least-recently-used beyond that are evicted.
    tracer:
        Span tracer recording computed folds/solves; the default no-op
        tracer keeps the uninstrumented cost.
    flight:
        Flight recorder receiving one ``solve`` provenance event per
        :meth:`solve` call (memo hit, warm-start stages reused vs.
        recomputed, why warm state was unusable); the default no-op
        recorder keeps the uninstrumented cost.
    """

    def __init__(
        self,
        *,
        quantum: float = 0.0,
        max_entries: int = 128,
        tracer: TracerLike | None = None,
        flight: FlightLike | None = None,
    ) -> None:
        if quantum < 0.0:
            raise ValueError("quantum must be >= 0")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.quantum = float(quantum)
        self.max_entries = int(max_entries)
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        self.flight: FlightLike = flight if flight is not None else NULL_FLIGHT_RECORDER
        self._store: OrderedDict[Hashable, Any] = OrderedDict()
        self._warm: _WarmState | None = None
        # provenance of the most recent solve(): (reuse reason, stages
        # reused, stages computed) — the flight recorder's `solve` event
        self._last_reuse: tuple[str, int, int] = ("cold", 0, 0)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.warm_folds = 0
        self.warm_stages_reused = 0
        self.warm_stages_computed = 0

    # ---------------------------------------------------------- mapping
    def get(self, key: Hashable, default: Any = None) -> Any:
        if key in self._store:
            self.hits += 1
            self._store.move_to_end(key)
            return self._store[key]
        self.misses += 1
        return default

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        # membership is a lookup like any other: it must hit the same
        # hit/miss counters and refresh LRU recency, or probing would
        # skew eviction order relative to get() and under-report traffic
        return self.get(key, _MISSING) is not _MISSING

    def __len__(self) -> int:
        return len(self._store)

    # ------------------------------------------------------------ stats
    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def clear(self) -> None:
        self._store.clear()

    def stats(self) -> dict[str, float | int]:
        """Flat counter snapshot: the one hit-rate of the whole engine."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "hit_ratio": self.hit_ratio,
            "entries": len(self._store),
            "max_entries": self.max_entries,
            "evictions": self.evictions,
            "warm_folds": self.warm_folds,
            "warm_stages_reused": self.warm_stages_reused,
            "warm_stages_computed": self.warm_stages_computed,
        }

    def register_with(
        self, registry: "Registry", *, prefix: str = "repro_solver_cache"
    ) -> "Registry":
        """Bind the live counters to callback metrics in ``registry``.

        Registers ``<prefix>_{hits,misses,evictions}_total`` counters and
        a ``<prefix>_entries`` gauge, all reading this cache at scrape
        time.  Returns the registry for chaining.
        """
        registry.counter(
            f"{prefix}_hits_total", "FoldCache lookups served from the memo."
        ).set_function(lambda: self.hits)
        registry.counter(
            f"{prefix}_misses_total", "FoldCache lookups that had to compute."
        ).set_function(lambda: self.misses)
        registry.counter(
            f"{prefix}_evictions_total", "FoldCache LRU evictions."
        ).set_function(lambda: self.evictions)
        registry.gauge(
            f"{prefix}_entries", "FoldCache entries currently resident."
        ).set_function(lambda: len(self._store))
        return registry

    # ------------------------------------------------------------ folds
    def convolve(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        key: Hashable | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Memoized :func:`repro.core.kernels.convolve`.

        With an explicit ``key`` the caller asserts that the curve pair's
        contents are stable for that token over the cache's lifetime (the
        sweep uses ``(tag, i, j)`` program-identity tokens — no hashing
        of megabyte curves per lookup).  Without one, the pair is keyed
        by an exact content fingerprint.
        """
        full_key: Hashable = (
            ("conv", key)
            if key is not None
            else ("conv", cost_fingerprint([a, b], 0))
        )
        cached = self.get(full_key)
        if cached is not None:
            return cast("tuple[np.ndarray, np.ndarray]", cached)
        with self.tracer.span("foldcache.convolve", size=int(a.size)):
            result = convolve(a, b)
        self[full_key] = result
        return result

    # ------------------------------------------------------------ solve
    def solve(
        self,
        costs: Sequence[np.ndarray],
        budget: int,
        *,
        quantum: float | None = None,
        warm: bool = False,
        salt: bytes = b"",
    ) -> PartitionResult:
        """Memoized Eq. 15: identical (quantized) instances solve once.

        ``quantum`` overrides the constructor's value for this solve —
        the online controller uses it to rescale the lattice by each
        epoch's *real* access count, so a short final epoch (whose
        miss-count magnitudes shrink with it) keeps the same miss-ratio
        resolution as a full one instead of a silently coarser one.

        ``salt`` is prepended to the memo key (and pins warm state):
        callers whose cost curves depend on parameters *outside* the
        curve bytes — the objective policy's weights/SLO caps, via
        :func:`repro.core.policy.policy_fingerprint` — pass it so two
        objectives can never be served each other's cached plan, even
        when quantization makes their cost fingerprints collide.

        With ``warm=True`` the solve additionally keeps per-stage fold
        state keyed on per-curve fingerprints: if only a suffix of the
        curves changed since the last warm solve (on the same lattice
        and grid, under the same salt), the fold resumes from the first
        changed stage instead of refolding all P stages — O(k · C²) for
        k changed curves.  The result is bit-identical to a cold solve
        because reused prefixes *are* the arrays the cold fold would
        recompute from unchanged inputs.  Callers gate this on their own
        drift verdict (the online controller only warms once it has a
        prior solve).
        """
        q = self.quantum if quantum is None else float(quantum)
        if q < 0.0:
            raise ValueError("quantum must be >= 0")
        hits_before = self.hits
        self._last_reuse = ("cold", 0, len(costs))
        with self.tracer.span(
            "foldcache.solve", n_costs=len(costs), budget=int(budget)
        ) as span:
            if warm:
                result = self._solve_warm(costs, budget, q, salt)
            else:
                validate_instance(costs, budget)
                key = salt + cost_fingerprint(costs, budget, quantum=q)
                cached = self.get(key)
                if cached is None:
                    result = optimal_partition(costs, budget)
                    self[key] = result
                else:
                    result = cast("PartitionResult", cached)
            hit = self.hits > hits_before
            span.set(hit=hit, warm=warm)
        reuse, reused, computed = self._last_reuse
        if hit:
            reuse, reused, computed = "memo_hit", 0, 0
        self.flight.emit(
            "solve",
            n_costs=len(costs),
            budget=int(budget),
            cache_hit=hit,
            warm=bool(warm),
            salted=bool(salt),
            reuse=reuse,
            stages_reused=reused,
            stages_computed=computed,
        )
        return result

    def _solve_warm(
        self, costs: Sequence[np.ndarray], budget: int, q: float, salt: bytes
    ) -> PartitionResult:
        """Incremental re-solve: refold only from the first changed curve."""
        size = validate_instance(costs, budget)
        key = salt + cost_fingerprint(costs, budget, quantum=q)
        cached = self.get(key)
        if cached is not None:
            return cast("PartitionResult", cached)
        fps = [curve_fingerprint(c, quantum=q) for c in costs]
        state = self._warm
        changed = 0
        reason = "no_state"
        if state is not None:
            if state.salt != salt:
                reason = "salt_changed"
            elif state.quantum != q or state.grid != size:
                reason = "lattice_changed"
            elif len(state.curve_fps) != len(fps):
                reason = "tenant_count_changed"
            else:
                while changed < len(fps) and state.curve_fps[changed] == fps[changed]:
                    changed += 1
                reason = "first_curve_changed" if changed == 0 else "warm"
        if reason != "warm":
            self._last_reuse = (reason, 0, len(costs))
            fold, prefixes = fold_curves_stages(costs)
        else:
            # stage j folds curve j in: curve m changing invalidates
            # prefixes[m:] and splits[m-1:], everything before survives
            start = max(changed, 1)
            prefixes = list(state.prefixes[:start])
            splits = list(state.splits[: start - 1])
            running = prefixes[-1]
            for j in range(start, len(costs)):
                running, split = convolve(
                    running, np.ascontiguousarray(costs[j], dtype=np.float64)
                )
                prefixes.append(running)
                splits.append(split)
            fold = MinPlusFold(total=running, splits=tuple(splits))
            self.warm_folds += 1
            self.warm_stages_reused += start
            self.warm_stages_computed += len(costs) - start
            self._last_reuse = ("warm", start, len(costs) - start)
        # state is valid even if allocate() raises on an infeasible budget
        self._warm = _WarmState(
            quantum=q,
            grid=size,
            salt=salt,
            curve_fps=fps,
            prefixes=prefixes,
            splits=list(fold.splits),
        )
        result = PartitionResult(
            allocation=fold.allocate(budget), total_cost=fold.cost(budget)
        )
        self[key] = result
        return result
