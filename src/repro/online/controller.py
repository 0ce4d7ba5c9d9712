"""Epoch-driven allocation controller: drift detection + hysteresis.

The controller is the online analogue of :func:`repro.core.dynamic.plan_dynamic`:
it ingests per-tenant access batches — which need *not* arrive in
lockstep — buffers them into epoch alignment, profiles each epoch with a
:class:`~repro.online.profiler.StreamingProfiler`, and emits one
allocation decision per epoch.  Two dampers keep it cheap and stable:

* **drift detection** — the DP re-runs only when some tenant's MRC moved
  more than ``drift_threshold`` (mean L1 distance over the size grid)
  since the profile that produced the standing allocation; otherwise the
  standing walls are kept and the epoch costs no solve at all;
* **hysteresis** — a re-solve's allocation is adopted only when its
  predicted group-miss-ratio gain over the standing allocation exceeds
  ``hysteresis``; sub-epsilon gains don't move walls (churn has real cost
  in a live cache: moved blocks arrive cold).

Ingestion contract (per-tenant epoch-aligned buffering):

* each tenant has its own buffer; accesses beyond the current epoch
  boundary wait there until the epoch can close;
* an epoch finalizes only when every **live** tenant has reached the
  boundary — a lagging tenant holds the epoch open rather than having
  its accesses misattributed to a later epoch;
* a tenant that will send no more data must be closed explicitly
  (:meth:`OnlineController.close`); closed tenants stop gating epochs
  and cost the DP nothing, exactly like finished programs in
  :func:`~repro.core.dynamic.plan_dynamic`;
* ``max_buffered`` bounds how far ahead of the laggard any tenant may
  run; exceeding it raises :class:`BackpressureError` (the data is
  retained — the error is flow control, not loss).

With ``sampling_rate=1.0``, ``drift_threshold=0`` and ``hysteresis=0``
the controller reproduces ``plan_dynamic`` exactly — for *any* batching,
aligned or not — the equivalence the test-suite pins down; nonzero knobs
trade fidelity for work, which the :mod:`~repro.online.metrics` counters
quantify.

Observability: every epoch appends one row to a bounded
:class:`~repro.obs.timeseries.EpochTimeSeries` (per-tenant allocation,
miss ratio, lag; resolve latency, drift, decision flags); a ``tracer``
records ``controller.epoch``/``controller.resolve`` spans (no-op by
default); :meth:`OnlineController.register_metrics` binds the counters
to a Prometheus registry for ``repro-cps serve --metrics-port``.

Decision provenance: a ``flight`` recorder (default: the no-op
:data:`~repro.obs.flight.NULL_FLIGHT_RECORDER`) journals every epoch's
``drift_verdict``, ``solve`` (via the solver cache), ``plan_delta``,
``slo`` and ``epoch_finalized`` events plus ``policy_swap`` on
:meth:`OnlineController.set_policy` — the input of ``repro-cps
explain``; an optional :class:`~repro.obs.alerts.BurnRateAlerts`
instance is fed each epoch's per-tenant cap-violation flags.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.dynamic import EpochPlan
from repro.core.policy import (
    DEFAULT_POLICY,
    InfeasibleSLOError,
    ObjectivePolicy,
    compile_tenant_cost,
    equal_share_costs,
    explicit_baseline_costs,
    slo_headroom,
)
from repro.locality.mrc import MissRatioCurve
from repro.obs import NULL_FLIGHT_RECORDER
from repro.obs.timeseries import EpochTimeSeries
from repro.obs.trace import NULL_TRACER
from repro.online.metrics import OnlineMetrics
from repro.online.profiler import StreamingProfiler
from repro.online.solver_cache import SolverCache

__all__ = [
    "BackpressureError",
    "ControllerConfig",
    "AllocationDecision",
    "OnlineController",
    "check_online_policy",
]


def check_online_policy(policy: ObjectivePolicy, n_tenants: int) -> None:
    """Raise unless ``policy`` can drive an online controller.

    The natural baseline needs offline footprint profiles the streaming
    pipeline never measures; online policies support baseline ``"none"``,
    ``"equal"`` or explicit per-tenant thresholds.
    """
    policy.check_arity(n_tenants)
    if isinstance(policy.baseline, str) and policy.baseline == "natural":
        raise ValueError(
            "the natural baseline needs offline footprint profiles; "
            "online policies support baseline 'none', 'equal' or "
            "explicit per-tenant thresholds"
        )


class BackpressureError(RuntimeError):
    """A tenant's epoch-alignment buffer exceeded ``max_buffered``.

    Raised by :meth:`OnlineController.ingest` *after* the batch has been
    accepted and any unblocked epochs finalized — nothing is dropped.
    The caller should stop feeding the tenants named in the message (or
    close/feed the laggard holding the epoch open) before continuing;
    decisions finalized by the offending call remain available through
    :attr:`OnlineController.decisions`.
    """


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the online allocation loop.

    ``cache_blocks`` is both the allocation budget and the MRC grid size;
    ``epoch_length`` is in per-tenant accesses (each tenant contributes
    exactly ``epoch_length`` accesses to a full epoch, however its
    batches arrive).  ``quantum`` quantizes solver-cache fingerprints in
    miss-ratio units (it is rescaled by each epoch's real access count
    internally).  ``max_buffered`` caps any tenant's epoch-alignment
    buffer (accesses received but not yet attributed to an epoch);
    ``None`` means unbounded.  ``warm_start`` lets re-solves resume the
    min-plus fold from the first tenant whose curve actually changed
    since the previous solve (bit-identical results at ``quantum=0``);
    it only engages once a prior solve exists, so the first epoch is
    always a full fold.  ``seed`` perturbs the SHARDS hash of every
    tenant's profiler (tenant ``i`` hashes with ``seed + 7919 i`` modulo
    ``2**64``) and must be in ``[0, 2**64)``.
    """

    cache_blocks: int
    epoch_length: int
    sampling_rate: float = 1.0
    drift_threshold: float = 0.0
    hysteresis: float = 0.0
    quantum: float = 0.0
    warm_start: bool = True
    max_window: int | None = None
    cache_entries: int = 128
    max_buffered: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cache_blocks < 1:
            raise ValueError("cache_blocks must be >= 1")
        if self.epoch_length < 1:
            raise ValueError("epoch_length must be >= 1")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError("sampling_rate must be in (0, 1]")
        if self.drift_threshold < 0 or self.hysteresis < 0 or self.quantum < 0:
            raise ValueError("thresholds must be >= 0")
        if self.max_buffered is not None and self.max_buffered < 1:
            raise ValueError("max_buffered must be >= 1 (or None for unbounded)")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class AllocationDecision:
    """One epoch's outcome.

    ``resolved`` says whether the DP ran (cache hit or not) as opposed to
    a drift-skip; ``moved`` whether the standing allocation changed;
    ``drift`` is the largest per-tenant mean-L1 MRC movement since the
    last solve; ``predicted_gain`` the solver's expected group-miss-ratio
    improvement over the standing walls (0 when not re-solved).
    ``slo_violations`` counts capped tenants whose achieved miss ratio
    exceeds their cap this epoch; ``slo_feasible`` is False when the
    epoch had to degrade to best effort (an unsatisfiable per-tenant cap
    or a jointly infeasible cap set).
    """

    epoch: int
    allocation: np.ndarray = field(repr=False)
    resolved: bool
    moved: bool
    drift: float
    predicted_gain: float
    slo_violations: int = 0
    slo_feasible: bool = True


class OnlineController:
    """Ingest access batches, emit per-epoch allocations."""

    def __init__(
        self,
        n_tenants: int,
        config: ControllerConfig,
        *,
        names: tuple[str, ...] | None = None,
        policy: ObjectivePolicy | None = None,
        tracer=None,
        flight=None,
        alerts=None,
        timeseries_capacity: int = 1024,
    ) -> None:
        if n_tenants < 1:
            raise ValueError("need at least one tenant")
        if names is not None and len(names) != n_tenants:
            raise ValueError("one name per tenant")
        self.config = config
        self.names = names or tuple(f"tenant{i}" for i in range(n_tenants))
        policy = policy if policy is not None else DEFAULT_POLICY
        self._check_policy(policy, n_tenants)
        self._policy = policy
        self._policy_salt = self._salt_of(policy)
        self._policy_changed = False
        self.metrics = OnlineMetrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.flight = flight if flight is not None else NULL_FLIGHT_RECORDER
        self.alerts = alerts
        self.timeseries = EpochTimeSeries(self.names, capacity=timeseries_capacity)
        self.solver_cache = SolverCache(
            quantum=config.quantum * config.epoch_length,
            max_entries=config.cache_entries,
            tracer=self.tracer,
            flight=self.flight,
        )
        self._profilers = [
            StreamingProfiler(
                sampling_rate=config.sampling_rate,
                max_window=config.max_window,
                seed=(config.seed + 7919 * i) % 2**64,
                name=self.names[i],
            )
            for i in range(n_tenants)
        ]
        # epoch-alignment state: per tenant, accesses *received* split into
        # those already *fed* to the profiler (attributed to the current
        # epoch) and those still buffered past the epoch boundary
        self._buffers: list[deque[np.ndarray]] = [deque() for _ in range(n_tenants)]
        self._received = np.zeros(n_tenants, dtype=np.int64)
        self._fed = np.zeros(n_tenants, dtype=np.int64)
        self._closed = np.zeros(n_tenants, dtype=bool)
        self._epoch = 0
        self._allocations: list[np.ndarray] = []
        self._decisions: list[AllocationDecision] = []
        self._current: np.ndarray | None = None
        self._solved_ratios: list[np.ndarray] | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def _check_policy(policy: ObjectivePolicy, n_tenants: int) -> None:
        check_online_policy(policy, n_tenants)

    @staticmethod
    def _salt_of(policy: ObjectivePolicy) -> bytes:
        # the default policy salts with b"" so default-objective cache
        # keys stay byte-identical to policy-unaware versions
        return b"" if policy.is_default else policy.fingerprint()

    @property
    def policy(self) -> ObjectivePolicy:
        return self._policy

    def set_policy(self, policy: ObjectivePolicy) -> bool:
        """Adopt a new objective between epochs; returns True if it changed.

        Compared by :func:`~repro.core.policy.policy_fingerprint`, so a
        value-identical policy is a no-op — warm solver state and the
        drift damper are invalidated only when the objective actually
        changed (the next epoch then re-solves unconditionally, under a
        new cache salt that can never alias the old objective's plans).
        """
        self._check_policy(policy, self.n_tenants)
        new_salt = self._salt_of(policy)
        old_fp = self._policy.fingerprint().hex()
        new_fp = policy.fingerprint().hex()
        if new_salt == self._policy_salt:
            self._policy = policy
            self.flight.emit(
                "policy_swap", epoch=self._epoch, old=old_fp, new=new_fp, changed=False
            )
            return False
        self._policy = policy
        self._policy_salt = new_salt
        self._policy_changed = True
        self.flight.emit(
            "policy_swap", epoch=self._epoch, old=old_fp, new=new_fp, changed=True
        )
        return True

    @property
    def n_tenants(self) -> int:
        return len(self._profilers)

    @property
    def decisions(self) -> tuple[AllocationDecision, ...]:
        return tuple(self._decisions)

    @property
    def current_allocation(self) -> np.ndarray | None:
        return None if self._current is None else self._current.copy()

    @property
    def closed_tenants(self) -> tuple[str, ...]:
        return tuple(n for n, c in zip(self.names, self._closed) if c)

    @property
    def live_tenants(self) -> tuple[str, ...]:
        return tuple(n for n, c in zip(self.names, self._closed) if not c)

    @property
    def buffered_accesses(self) -> int:
        """Accesses received but not yet attributed to an epoch."""
        return int((self._received - self._fed).sum())

    # ------------------------------------------------------------------
    def register_metrics(self, registry, *, prefix: str = "repro"):
        """Expose this controller on a :class:`~repro.obs.prom.Registry`.

        Binds the :class:`~repro.online.metrics.OnlineMetrics` counters
        (including the resolve-latency histogram), the solver cache's
        hit/miss/eviction counters, the burn-rate alert families when
        alerting is on, and a per-tenant allocation gauge.  Returns the
        registry for chaining.
        """
        self.metrics.register_with(registry, prefix=prefix)
        self.solver_cache.register_with(registry, prefix=f"{prefix}_solver_cache")
        if self.alerts is not None:
            self.alerts.register_with(registry, prefix=prefix)
        registry.gauge(
            f"{prefix}_tenant_allocation_blocks",
            "Standing per-tenant allocation in cache blocks.",
            labelnames=("tenant",),
        ).set_function(
            lambda: {}
            if self._current is None
            else {n: int(a) for n, a in zip(self.names, self._current)}
        )
        return registry

    # ------------------------------------------------------------------
    def _tenant_index(self, tenant: int | str) -> int:
        if isinstance(tenant, str):
            try:
                return self.names.index(tenant)
            except ValueError:
                raise ValueError(f"unknown tenant {tenant!r}") from None
        if not 0 <= tenant < self.n_tenants:
            raise ValueError(f"tenant index {tenant} out of range")
        return int(tenant)

    @staticmethod
    def _validate_batch(batch: np.ndarray, name: str) -> np.ndarray:
        arr = np.asarray(batch)
        if arr.ndim != 1:
            raise ValueError(
                f"batch for {name!r} must be 1-D, got shape {arr.shape}"
            )
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(
                f"batch for {name!r} must hold integer block ids, "
                f"got dtype {arr.dtype}"
            )
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        if arr.size and arr.min() < 0:
            raise ValueError(f"batch for {name!r} contains negative block ids")
        return arr

    # ------------------------------------------------------------------
    def ingest(self, batches: list[np.ndarray]) -> list[AllocationDecision]:
        """Feed one batch per tenant; returns the epochs this call closed.

        Batches are buffered into epoch alignment per tenant, so tenants
        may run at different speeds and a batch may span any number of
        epoch boundaries — each epoch's profile sees exactly its own
        accesses regardless of how they were chunked.  An epoch closes
        only once every live tenant has reached its boundary; use
        :meth:`close` for tenants that will send no more data (an empty
        array is just "nothing yet", and keeps the tenant gating).

        Raises ``ValueError`` on malformed input or data for a closed
        tenant, and :class:`BackpressureError` (after accepting the
        batch) when a tenant's buffer exceeds ``max_buffered``.
        """
        if len(batches) != self.n_tenants:
            raise ValueError(f"expected {self.n_tenants} batches, got {len(batches)}")
        arrs = [
            self._validate_batch(b, self.names[i]) for i, b in enumerate(batches)
        ]
        for i, arr in enumerate(arrs):
            if arr.size and self._closed[i]:
                raise ValueError(
                    f"tenant {self.names[i]!r} is closed and cannot receive data"
                )
        # late-batch accounting: data for a tenant still short of the
        # current epoch boundary while some other live tenant already
        # waits at it
        boundary = (self._epoch + 1) * self.config.epoch_length
        at_boundary = ~self._closed & (self._received >= boundary)
        for i, arr in enumerate(arrs):
            if (
                arr.size
                and self._received[i] < boundary
                and bool(np.any(at_boundary & (np.arange(self.n_tenants) != i)))
            ):
                self.metrics.late_batches += 1
        for i, arr in enumerate(arrs):
            if arr.size:
                self._buffers[i].append(arr)
                self._received[i] += arr.size
        finalized = self._drain()
        if self.config.max_buffered is not None:
            pending = self._received - self._fed
            over = [
                f"{self.names[i]!r} ({int(pending[i])} buffered)"
                for i in range(self.n_tenants)
                if pending[i] > self.config.max_buffered
            ]
            if over:
                raise BackpressureError(
                    f"buffer bound {self.config.max_buffered} exceeded for "
                    f"{', '.join(over)}; feed or close the lagging tenants "
                    f"before sending more"
                )
        return finalized

    def close(self, tenant: int | str) -> list[AllocationDecision]:
        """Mark a tenant finished; returns any epochs this unblocks.

        A closed tenant stops gating epoch finalization and contributes a
        zero cost curve to epochs after its last access (matching
        ``plan_dynamic``'s finished-program semantics).  Closing an
        already-closed tenant is a no-op.
        """
        i = self._tenant_index(tenant)
        if self._closed[i]:
            return []
        self._closed[i] = True
        return self._drain()

    def finish(self) -> list[AllocationDecision]:
        """Close every tenant and flush a trailing partial epoch."""
        self._closed[:] = True
        finalized = self._drain()
        if (self._fed > self._epoch * self.config.epoch_length).any():
            finalized.append(self._finalize_epoch())
            self._refresh_flow_metrics()
        return finalized

    # ------------------------------------------------------------------
    def _drain(self) -> list[AllocationDecision]:
        """Feed buffers up to the epoch boundary; finalize ready epochs."""
        finalized: list[AllocationDecision] = []
        while True:
            boundary = (self._epoch + 1) * self.config.epoch_length
            for i in range(self.n_tenants):
                self._feed_up_to(i, boundary)
            live = ~self._closed
            if live.any():
                ready = bool((self._fed[live] >= boundary).all())
            else:  # all closed: every received access is final
                ready = bool(self._received.max() >= boundary)
            if not ready:
                break
            finalized.append(self._finalize_epoch())
        self._refresh_flow_metrics()
        return finalized

    def _feed_up_to(self, i: int, boundary: int) -> None:
        buf = self._buffers[i]
        while buf and self._fed[i] < boundary:
            arr = buf[0]
            take = min(int(boundary - self._fed[i]), arr.size)
            if take == arr.size:
                chunk = arr
                buf.popleft()
            else:
                chunk = arr[:take]
                buf[0] = arr[take:]
            self.metrics.samples_seen += self._profilers[i].observe(chunk)
            self.metrics.accesses_seen += take
            self._fed[i] += take

    def _refresh_flow_metrics(self) -> None:
        pending = self._received - self._fed
        self.metrics.buffered_accesses = int(pending.sum())
        # lag is a live-tenant concept: closed tenants are pruned (not
        # zeroed) so scrapers never see dead series, and the reference
        # front is the furthest *live* stream — a long-finished tenant
        # must not make every survivor look permanently behind
        live = ~self._closed
        front = int(self._received[live].max()) if live.any() else 0
        self.metrics.tenant_lag = {
            name: front - int(self._received[i])
            for i, name in enumerate(self.names)
            if live[i]
        }

    def _tenant_lags(self) -> list[int]:
        """Per-tenant lag including closed tenants (as 0), for the ring."""
        live = ~self._closed
        front = int(self._received[live].max()) if live.any() else 0
        return [
            0 if self._closed[i] else front - int(self._received[i])
            for i in range(self.n_tenants)
        ]

    # ------------------------------------------------------------------
    def _epoch_costs(
        self, mrcs: list[MissRatioCurve | None]
    ) -> tuple[list[np.ndarray], list[np.ndarray], int, int, list[str]]:
        """Per-tenant (policy cost, miss-ratio) curves for this epoch.

        ``mrcs`` holds each tenant's snapshot (``None`` for a tenant with
        no sample this epoch).  Also returns the tenants whose SLO cap (or
        explicit baseline threshold) was unsatisfiable this epoch: those
        degrade to a best-effort uncapped curve instead of killing the
        controller, and the epoch counts as SLO-infeasible.
        """
        grid = self.config.cache_blocks
        policy = self._policy
        costs: list[np.ndarray] = []
        ratios: list[np.ndarray] = []
        infeasible: list[str] = []
        n_total = 0
        n_longest = 0
        for i, (prof, mrc) in enumerate(zip(self._profilers, mrcs)):
            if mrc is None:  # idle or finished tenant: any allocation is free
                costs.append(np.zeros(grid + 1))
                ratios.append(np.zeros(grid + 1))
            else:
                try:
                    cost = compile_tenant_cost(mrc, policy, i)
                except InfeasibleSLOError:
                    infeasible.append(self.names[i])
                    cost = compile_tenant_cost(mrc, policy, i, on_infeasible="relax")
                costs.append(cost)
                ratios.append(mrc.ratios)
                n_total += prof.accesses_seen
                n_longest = max(n_longest, prof.accesses_seen)
        baseline = policy.baseline
        if isinstance(baseline, str):
            if baseline == "equal":
                costs = equal_share_costs(costs, grid, rtol=policy.slo_rtol)
        else:
            try:
                costs = explicit_baseline_costs(
                    costs,
                    ratios,
                    list(baseline),
                    rtol=policy.slo_rtol,
                    names=self.names,
                )
            except InfeasibleSLOError as err:
                # keep the unmasked curves: best effort beats no epoch
                infeasible.append(err.tenant)
        return costs, ratios, n_total, n_longest, infeasible

    def _relaxed_costs(self, mrcs: list[MissRatioCurve | None]) -> list[np.ndarray]:
        """Cap- and baseline-free weighted curves: the best-effort fallback."""
        grid = self.config.cache_blocks
        relaxed = ObjectivePolicy(weights=self._policy.weights)
        return [
            np.zeros(grid + 1) if mrc is None else compile_tenant_cost(mrc, relaxed, i)
            for i, mrc in enumerate(mrcs)
        ]

    def _finalize_epoch(self) -> AllocationDecision:
        cfg = self.config
        self.flight.set_epoch(self._epoch)
        with self.tracer.span("controller.epoch", epoch=self._epoch) as espan:
            mrcs = [prof.mrc(cfg.cache_blocks) for prof in self._profilers]
            costs, ratios, n_total, n_longest, degraded = self._epoch_costs(mrcs)
            self.metrics.epochs += 1
            previous = None if self._current is None else self._current.copy()

            if self._solved_ratios is None:
                distances = None
                drift = np.inf
            else:
                distances = {
                    name: float(np.mean(np.abs(r - prev)))
                    for name, r, prev in zip(self.names, ratios, self._solved_ratios)
                }
                drift = max(distances.values())
            skip = (
                self._current is not None
                and self._solved_ratios is not None
                and not self._policy_changed
                and drift < cfg.drift_threshold
            )
            if self._solved_ratios is None:
                reason = "first_solve"
            elif self._policy_changed:
                reason = "policy_changed"
            elif skip:
                reason = "below_threshold"
            else:
                reason = "drift_exceeded"
            self.flight.emit(
                "drift_verdict",
                distances=distances,
                max_drift=float(drift) if np.isfinite(drift) else None,
                threshold=float(cfg.drift_threshold),
                verdict="skip" if skip else "resolve",
                reason=reason,
            )
            if skip:
                self.metrics.drift_skips += 1
                espan.set(resolved=False, moved=False)
                decision = AllocationDecision(
                    epoch=self._epoch,
                    allocation=self._current.copy(),
                    resolved=False,
                    moved=False,
                    drift=drift,
                    predicted_gain=0.0,
                )
                return self._commit(
                    decision, ratios, resolve_s=0.0, degraded=degraded,
                    previous=previous,
                )

            with self.tracer.span("controller.resolve", epoch=self._epoch):
                with self.metrics.resolve_timer:
                    # fingerprint quantum scales with this epoch's real
                    # length, so a short final epoch keeps the same
                    # miss-*ratio* lattice as a full one instead of a
                    # coarser miss-count one
                    # the drift verdict gates the warm start: only a
                    # controller that has solved before (and therefore
                    # measured drift against that solve) may resume the
                    # fold from prior per-stage state
                    # the policy salt keys the memo: a weight/SLO change
                    # can never be answered with the old objective's plan
                    warm = cfg.warm_start and self._solved_ratios is not None
                    try:
                        result = self.solver_cache.solve(
                            costs,
                            cfg.cache_blocks,
                            quantum=cfg.quantum * n_longest,
                            warm=warm,
                            salt=self._policy_salt,
                        )
                    except ValueError:
                        if self._policy.slo_caps is None and isinstance(
                            self._policy.baseline, str
                        ):
                            raise  # not an SLO artifact: surface it
                        # jointly infeasible caps: degrade to best effort
                        degraded.append("*joint*")
                        result = self.solver_cache.solve(
                            self._relaxed_costs(mrcs),
                            cfg.cache_blocks,
                            quantum=cfg.quantum * n_longest,
                            warm=warm,
                            salt=self._policy_salt,
                        )
            resolve_s = self.metrics.resolve_timer.last_s
            self.metrics.resolves += 1
            self._policy_changed = False
            self.metrics.warm_resolves = self.solver_cache.warm_folds
            self.metrics.solver_cache_hits = self.solver_cache.hits
            self.metrics.solver_cache_misses = self.solver_cache.misses
            self._solved_ratios = ratios

            candidate = result.allocation
            moved = self._current is None or not np.array_equal(candidate, self._current)
            gain = 0.0
            if self._current is not None and moved:
                standing = sum(float(c[a]) for c, a in zip(costs, self._current))
                gain = (standing - result.total_cost) / max(n_total, 1)
                if gain < cfg.hysteresis:
                    self.metrics.hysteresis_holds += 1
                    espan.set(resolved=True, moved=False)
                    decision = AllocationDecision(
                        epoch=self._epoch,
                        allocation=self._current.copy(),
                        resolved=True,
                        moved=False,
                        drift=drift,
                        predicted_gain=gain,
                    )
                    return self._commit(
                        decision, ratios, resolve_s=resolve_s,
                        degraded=degraded, previous=previous, held=True,
                    )
            if moved and self._current is not None:
                self.metrics.walls_moved += 1
                self.metrics.blocks_moved += int(
                    np.abs(candidate - self._current).sum() // 2
                )
                espan.event(
                    "walls_moved",
                    blocks=int(np.abs(candidate - self._current).sum() // 2),
                )
            self._current = candidate.copy()
            espan.set(resolved=True, moved=moved)
            decision = AllocationDecision(
                epoch=self._epoch,
                allocation=candidate.copy(),
                resolved=True,
                moved=moved,
                drift=drift,
                predicted_gain=gain,
            )
            return self._commit(
                decision, ratios, resolve_s=resolve_s, degraded=degraded,
                previous=previous,
            )

    def _commit(
        self,
        decision: AllocationDecision,
        ratios: list[np.ndarray],
        *,
        resolve_s: float,
        degraded: list[str] | None = None,
        previous: np.ndarray | None = None,
        held: bool = False,
    ) -> AllocationDecision:
        degraded = degraded or []
        infeasible = bool(degraded)
        alloc = decision.allocation
        achieved = [float(r[int(a)]) for r, a in zip(ratios, alloc)]
        headroom = slo_headroom(self._policy, achieved)
        flags = []
        for i, mr in enumerate(achieved):
            cap = self._policy.cap(i)
            flags.append(cap is not None and mr > self._policy.cap_slack(cap))
        violations = sum(flags)
        self.metrics.slo_violations += violations
        if infeasible:
            self.metrics.slo_infeasible_epochs += 1
        decision = replace(
            decision, slo_violations=violations, slo_feasible=not infeasible
        )
        for i, name in enumerate(self.names):
            if flags[i]:
                cap = self._policy.cap(i)
                self.flight.emit(
                    "slo",
                    tenant=name,
                    type="violation",
                    achieved=achieved[i],
                    cap=float(cap) if cap is not None else None,
                    headroom=None if headroom[i] is None else float(headroom[i]),
                )
        if degraded:
            self.flight.emit("slo", type="relax", tenants=[str(t) for t in degraded])
        alloc_map = {n: int(a) for n, a in zip(self.names, alloc)}
        prev_map = (
            None if previous is None
            else {n: int(a) for n, a in zip(self.names, previous)}
        )
        self.flight.emit(
            "plan_delta",
            allocation=alloc_map,
            previous=prev_map,
            delta=(
                None if prev_map is None
                else {n: alloc_map[n] - prev_map[n] for n in alloc_map}
            ),
            moved=bool(decision.moved),
            resolved=bool(decision.resolved),
            held_by_hysteresis=held,
            predicted_gain=float(decision.predicted_gain),
            predicted_miss_ratio={n: m for n, m in zip(self.names, achieved)},
        )
        lags = self._tenant_lags()
        self.flight.emit(
            "epoch_finalized",
            lag={n: int(lag) for n, lag in zip(self.names, lags)},
            achieved={n: m for n, m in zip(self.names, achieved)},
            slo_headroom={
                n: (None if h is None else float(h))
                for n, h in zip(self.names, headroom)
            },
            violations=int(violations),
            feasible=not infeasible,
        )
        if self.alerts is not None:
            self.alerts.observe(decision.epoch, flags)
        self.timeseries.record(
            decision.epoch,
            allocation=alloc.tolist(),
            miss_ratio=achieved,
            lag=lags,
            slo_headroom=headroom,
            resolve_s=resolve_s,
            drift=decision.drift,
            resolved=decision.resolved,
            moved=decision.moved,
        )
        self._decisions.append(decision)
        self._allocations.append(decision.allocation)
        self._epoch += 1
        for prof in self._profilers:
            prof.reset()
        return decision

    # ------------------------------------------------------------------
    def plan(self) -> EpochPlan:
        """The decisions so far as a simulatable repartitioning schedule."""
        if not self._allocations:
            raise ValueError("no epochs finalized yet")
        return EpochPlan(np.vstack(self._allocations), self.config.epoch_length)
