"""GroupSolver: the one solving facade behind every profile→MRC→solve path.

Layer diagram (bottom-up):

    minplus / dp            the (min,+) kernel and Eq. 15/16 DP
    FoldCache               one memo for pair curves + fingerprinted solves
    Scheme registry         named solutions with a single solve contract
    GroupSolver             facade: context construction + scheme dispatch
    -------------------------------------------------------------------
    evaluate_group | run_study | plan_static/plan_dynamic |
    OnlineController | cli.py | examples      (all dispatch through here)

A :class:`GroupSolver` owns the grid geometry (``n_units`` allocation
units of ``unit_blocks`` cache blocks), an optional shared
:class:`~repro.engine.foldcache.FoldCache`, and two precision/speed
strategy knobs that the callers need:

* ``natural`` — ``"exact"`` solves the Natural Cache Partition by exact
  footprint composition + bisection (single-group calls);  ``"grid"``
  uses the precomputed-knot :class:`~repro.composition.corun.CorunSolver`
  (the sweep's fast path);
* ``shared`` — a :class:`SweepShared` bundle of suite-level cost curves.
  When present and the group size is 4, the unconstrained and
  equal-baseline DPs run as the pair tree ((a⊕b)⊕(c⊕d)): the 120
  two-program curves are memoized in the FoldCache and shared across
  all 1820 groups of the §VII-A sweep, and each group's final stage is
  one point query (:func:`~repro.core.minplus.convolve_at`) at the
  budget, not a full convolution.

Schemes read each fold at the one budget they allocate: the direct DP
(:func:`~repro.core.dp.optimal_partition`) trims every curve's leading
``+inf`` prefix and folds on the slack, and STTW is one sort.

Every scheme sees the group through a :class:`GroupContext`, which
computes shared artifacts lazily (cost curves once, the co-run solver
once for the two natural-partition schemes, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.composition.corun import CoRunPrediction, CorunSolver, predict_corun
from repro.core.baselines import (
    equal_allocation,
    equal_baseline_partition,
    natural_baseline_partition,
)
from repro.core.dp import optimal_partition
from repro.core.minplus import convolve_at
from repro.core.natural import natural_partition_units, round_to_units
from repro.core.policy import (
    DEFAULT_POLICY,
    ObjectivePolicy,
    compile_costs,
    compile_tenant_cost,
    explicit_baseline_costs,
)
from repro.core.sttw import sttw_partition
from repro.engine.foldcache import FoldCache
from repro.engine.registry import register_scheme, resolve_schemes
from repro.locality.footprint import FootprintCurve
from repro.locality.mrc import MissRatioCurve
from repro.obs.trace import NULL_TRACER, TracerLike

__all__ = [
    "SchemeOutcome",
    "GroupEvaluation",
    "SweepShared",
    "GroupContext",
    "GroupSolver",
]


@dataclass(frozen=True)
class SchemeOutcome:
    """One scheme's result for one co-run group.

    ``objective_cost`` is the policy objective Σ wᵢ·mcᵢ(aᵢ) realized at
    the chosen allocation (equal to total expected misses under the
    default policy); ``slo_headroom`` holds per-tenant ``cap − achieved``
    slack when the policy carries SLO caps (``None`` per uncapped tenant,
    ``None`` for the field when the policy has no caps at all).
    """

    allocation: np.ndarray  # units; fractional for the natural scheme
    miss_ratios: np.ndarray
    group_miss_ratio: float
    objective_cost: float = float("nan")
    slo_headroom: tuple[float | None, ...] | None = None


@dataclass(frozen=True)
class GroupEvaluation:
    """Every requested scheme's outcome for one co-run group."""

    names: tuple[str, ...]
    n_units: int
    unit_blocks: int
    outcomes: dict[str, SchemeOutcome]

    def group_miss_ratio(self, scheme: str) -> float:
        return self.outcomes[scheme].group_miss_ratio

    def improvement(self, scheme: str, over: str) -> float:
        """Relative improvement of ``scheme`` over ``over`` (Table I metric).

        Defined as ``mr_over / mr_scheme - 1``: e.g. 0.26 means the paper's
        "26% better".  Zero when both are zero; infinite when only the
        reference misses.
        """
        a = self.outcomes[scheme].group_miss_ratio
        b = self.outcomes[over].group_miss_ratio
        if a <= 0:
            return 0.0 if b <= 0 else np.inf
        return b / a - 1.0


@dataclass(frozen=True)
class SweepShared:
    """Suite-level cost curves shared by every group of one sweep.

    ``costs[i]`` is program ``i``'s objective cost curve on the unit
    grid (unconstrained miss counts under the default policy);
    ``eq_costs`` the §VI equal-baseline masked curves (present only when
    the sweep includes the equal-baseline scheme).  Groups reference
    these by program index, which is what lets the FoldCache key pair
    folds by identity instead of content.

    ``policy_salt`` records the policy the curves were compiled under
    (``b""`` for the default policy, else its fingerprint); the solver
    refuses to mix a bundle with a different policy, and the salt flows
    into every identity-keyed fold so two policies' pair curves can
    never collide in a shared FoldCache.
    """

    costs: list[np.ndarray]
    eq_costs: list[np.ndarray] | None = None
    policy_salt: bytes = b""


def _weighted(mrs: np.ndarray, weights: np.ndarray) -> float:
    return float(np.dot(mrs, weights) / weights.sum())


class GroupContext:
    """Lazily-computed artifacts of one co-run group, handed to schemes."""

    def __init__(
        self,
        solver: "GroupSolver",
        mrcs: Sequence[MissRatioCurve],
        footprints: Sequence[FootprintCurve],
        members: tuple[int, ...] | None,
    ) -> None:
        self.solver = solver
        self.mrcs = tuple(mrcs)
        self.footprints = tuple(footprints)
        self.members = members
        self.n_units = solver.n_units
        self.unit_blocks = solver.unit_blocks
        self.cache_blocks = solver.n_units * solver.unit_blocks
        self.fold_cache = solver.fold_cache
        self.policy = solver.policy
        self._costs: list[np.ndarray] | None = None
        self._weights: np.ndarray | None = None
        self._corun: CorunSolver | None = None
        self._natural_pred: CoRunPrediction | None = None
        self._natural_units: np.ndarray | None = None

    @property
    def n_programs(self) -> int:
        return len(self.mrcs)

    @property
    def pair_sharing(self) -> bool:
        """True when the pair-tree fold over suite-level curves applies."""
        return (
            self.solver.shared is not None
            and self.members is not None
            and self.n_programs == 4
        )

    def policy_index(self, i: int) -> int:
        """Map group position ``i`` to the policy's tenant index.

        A policy with per-tenant fields used through a sweep's
        :class:`SweepShared` bundle is suite-scoped: member ``i`` of the
        group reads the policy at its suite program index.  Without
        members (direct single-group calls) positions coincide.
        """
        if self.members is not None and self.policy.n_tenants is not None:
            return self.members[i]
        return i

    @property
    def costs(self) -> list[np.ndarray]:
        """Per-program policy cost curves on the unit grid (Eq. 15 costs
        under the default policy; weighted/SLO-masked otherwise)."""
        if self._costs is None:
            shared = self.solver.shared
            if shared is not None and self.members is not None:
                self._costs = [shared.costs[i] for i in self.members]
            else:
                self._costs = compile_costs(self.mrcs, self.policy)
        return self._costs

    @property
    def weights(self) -> np.ndarray:
        """Access counts — the group-miss-ratio weights (Eq. 15)."""
        if self._weights is None:
            self._weights = np.array(
                [m.n_accesses for m in self.mrcs], dtype=np.float64
            )
        return self._weights

    # ------------------------------------------------- natural partition
    @property
    def corun_solver(self) -> CorunSolver:
        """The grid-mode co-run solver, built once per group."""
        if self._corun is None:
            self._corun = CorunSolver(self.footprints, max_cache=self.cache_blocks)
        return self._corun

    def natural_prediction(self) -> CoRunPrediction:
        """Shared-cache (free-for-all) prediction under the NPA."""
        if self._natural_pred is None:
            if self.solver.natural == "grid":
                self._natural_pred = self.corun_solver.predict(self.cache_blocks)
            else:
                self._natural_pred = predict_corun(self.footprints, self.cache_blocks)
        return self._natural_pred

    def natural_units(self) -> np.ndarray:
        """The unit-rounded Natural Cache Partition (§V-A)."""
        if self._natural_units is None:
            if self.solver.natural == "grid":
                occ = self.corun_solver.occupancies(self.cache_blocks)
                self._natural_units = round_to_units(
                    occ / self.unit_blocks, self.n_units
                )
            else:
                self._natural_units = natural_partition_units(
                    self.footprints, self.cache_blocks, self.unit_blocks
                )
        return self._natural_units

    # ----------------------------------------------------------- solving
    def pair_tree_allocate(self, suite_costs: list[np.ndarray], tag: str) -> np.ndarray:
        """Optimal 4-way allocation as ((a⊕b)⊕(c⊕d)) over suite curves.

        The two pair curves are FoldCache entries keyed by program
        identity, so they are computed once per sweep and shared across
        every group containing that pair (the memoization the old
        methodology module carried privately).  The final stage is read
        at one budget only, so it is the point query
        :func:`~repro.core.minplus.convolve_at` — the kernel's
        ``total[budget]`` and ``split[budget]`` without the other C cells.
        """
        if self.members is None or len(self.members) != 4:
            raise ValueError("pair-tree fold requires a 4-member suite group")
        a, b, c, d = self.members
        cache = self.fold_cache
        if cache is None:
            raise ValueError("pair-tree fold requires the sweep FoldCache")
        # identity tokens assume stable curve contents — the policy salt
        # makes that true again when curves depend on weights/SLO caps
        salt = self.solver.policy_salt
        val_ab, split_ab = cache.convolve(
            suite_costs[a], suite_costs[b], key=("pair", tag, salt, a, b)
        )
        val_cd, split_cd = cache.convolve(
            suite_costs[c], suite_costs[d], key=("pair", tag, salt, c, d)
        )
        budget = self.n_units
        total, k_ab = convolve_at(val_ab, val_cd, budget)
        if not np.isfinite(total):
            raise ValueError(f"no feasible allocation at budget {budget}")
        k_cd = budget - k_ab
        alloc = np.empty(4, dtype=np.int64)
        alloc[0] = split_ab[k_ab]
        alloc[1] = k_ab - alloc[0]
        alloc[2] = split_cd[k_cd]
        alloc[3] = k_cd - alloc[2]
        return alloc

    def solve_partition(self, costs: Sequence[np.ndarray]) -> np.ndarray:
        """Direct left-fold DP (Eq. 15/16) at the unit-grid budget."""
        if self.fold_cache is not None:
            return self.fold_cache.solve(
                costs, self.n_units, salt=self.solver.policy_salt
            ).allocation
        return optimal_partition(costs, self.n_units).allocation

    def baseline_outcome(self, baseline: str | tuple[float, ...]) -> SchemeOutcome:
        """Solve one member of the policy's baseline family (§VI, generalized).

        ``"equal"`` / ``"natural"`` are the paper's two baselines; an
        explicit tuple constrains each tenant to sizes at or below its
        miss-ratio threshold (the parameterized family member).
        """
        if isinstance(baseline, str):
            if baseline == "equal":
                shared = self.solver.shared
                if (
                    self.pair_sharing
                    and shared is not None
                    and shared.eq_costs is not None
                ):
                    return self.grid_outcome(
                        self.pair_tree_allocate(shared.eq_costs, "eq")
                    )
                alloc = equal_baseline_partition(self.costs, self.n_units).allocation
            elif baseline == "natural":
                alloc = natural_baseline_partition(
                    self.costs, self.n_units, self.natural_units()
                ).allocation
            else:
                raise ValueError(f"unknown baseline family {baseline!r}")
        else:
            thresholds = [
                baseline[self.policy_index(i)] for i in range(self.n_programs)
            ]
            masked = explicit_baseline_costs(
                self.costs,
                [m.ratios for m in self.mrcs],
                thresholds,
                rtol=self.policy.slo_rtol,
                names=[m.name for m in self.mrcs],
            )
            alloc = self.solve_partition(masked)
        return self.grid_outcome(alloc)

    def grid_outcome(self, alloc: np.ndarray) -> SchemeOutcome:
        """Score an integer unit allocation on each member's solo curve."""
        mrs = np.array([m.ratios[a] for m, a in zip(self.mrcs, alloc.tolist())])
        return self._outcome(alloc, mrs)

    def _outcome(self, alloc: np.ndarray, mrs: np.ndarray) -> SchemeOutcome:
        """Assemble a :class:`SchemeOutcome`, scoring the policy objective.

        The group miss ratio stays the paper's access-weighted metric
        regardless of policy, so schemes remain comparable; the policy
        shows up in ``objective_cost`` and the SLO headroom.
        """
        objective = 0.0
        for i, (m, r) in enumerate(zip(self.mrcs, mrs.tolist())):
            w = self.policy.weight(self.policy_index(i))
            objective += (1.0 if w is None else w) * float(r) * float(m.n_accesses)
        headroom: tuple[float | None, ...] | None = None
        if self.policy.slo_caps is not None:
            headroom = tuple(
                None if cap is None else cap - float(r)
                for cap, r in (
                    (self.policy.cap(self.policy_index(i)), mrs[i])
                    for i in range(self.n_programs)
                )
            )
        return SchemeOutcome(
            alloc,
            mrs,
            _weighted(mrs, self.weights),
            objective_cost=objective,
            slo_headroom=headroom,
        )


class GroupSolver:
    """Facade: evaluate registered schemes for co-run groups.

    One instance per *setting* (grid geometry + strategy), reused across
    any number of groups; the FoldCache carries whatever is shareable
    between them.
    """

    def __init__(
        self,
        n_units: int,
        unit_blocks: int,
        *,
        schemes: Sequence[str] | None = None,
        fold_cache: FoldCache | None = None,
        shared: SweepShared | None = None,
        natural: str = "exact",
        policy: ObjectivePolicy | None = None,
        tracer: TracerLike | None = None,
    ) -> None:
        if n_units < 1 or unit_blocks < 1:
            raise ValueError("n_units and unit_blocks must be >= 1")
        if natural not in ("exact", "grid"):
            raise ValueError("natural must be 'exact' or 'grid'")
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        if shared is not None and fold_cache is None:
            fold_cache = FoldCache(
                max_entries=max(256, 4 * len(shared.costs) ** 2), tracer=self.tracer
            )
        self.policy = policy if policy is not None else DEFAULT_POLICY
        # the default policy salts with b"" so default cache keys (and
        # therefore default behavior) are byte-identical to pre-policy code
        self.policy_salt = b"" if self.policy.is_default else self.policy.fingerprint()
        if shared is not None and shared.policy_salt != self.policy_salt:
            raise ValueError(
                "SweepShared bundle was compiled under a different policy "
                "than this solver's; rebuild the shared curves with the "
                "same ObjectivePolicy"
            )
        self.n_units = int(n_units)
        self.unit_blocks = int(unit_blocks)
        self.schemes = resolve_schemes(schemes)
        self.fold_cache = fold_cache
        self.shared = shared
        self.natural = natural

    def evaluate(
        self,
        mrcs: Sequence[MissRatioCurve],
        footprints: Sequence[FootprintCurve],
        *,
        members: tuple[int, ...] | None = None,
    ) -> GroupEvaluation:
        """Model every configured scheme for one co-run group.

        ``mrcs`` must be on the allocation-unit grid (``ratios[k]`` =
        miss ratio with ``k`` units); ``footprints`` are the block-level
        solo profiles used for the natural partition.  ``members`` are
        the group's program indices into the sweep's suite, required to
        use a :class:`SweepShared` bundle.
        """
        if len(mrcs) != len(footprints):
            raise ValueError("mrcs and footprints must align")
        for m in mrcs:
            if m.capacity < self.n_units:
                raise ValueError("every MRC must cover the full cache in units")
        ctx = GroupContext(self, mrcs, footprints, members)
        with self.tracer.span(
            "solver.evaluate",
            group=list(members) if members is not None else [m.name for m in mrcs],
        ):
            outcomes: dict[str, SchemeOutcome] = {}
            for s in self.schemes:
                with self.tracer.span(f"solver.scheme.{s.name}"):
                    outcomes[s.name] = s.solve(ctx)
        return GroupEvaluation(
            names=tuple(m.name for m in mrcs),
            n_units=self.n_units,
            unit_blocks=self.unit_blocks,
            outcomes=outcomes,
        )


# ---------------------------------------------------------------------------
# The six paper schemes (§VII-A), registered once.  Registration order is
# the presentation order of every table and figure.
# ---------------------------------------------------------------------------


@register_scheme("equal")
def _solve_equal(ctx: GroupContext) -> SchemeOutcome:
    """Each program gets C/P units (the "socialist" allocation).

    Policy-independent by construction; SLO headroom is still scored.
    """
    return ctx.grid_outcome(equal_allocation(ctx.n_programs, ctx.n_units))


@register_scheme("natural")
def _solve_natural(ctx: GroupContext) -> SchemeOutcome:
    """Free-for-all sharing = the Natural Cache Partition (§V-A).

    Hardware decides the split, so the policy cannot steer it; the
    outcome still reports the policy objective and SLO headroom.
    """
    pred = ctx.natural_prediction()
    return ctx._outcome(pred.occupancies / ctx.unit_blocks, pred.miss_ratios)


@register_scheme("equal_baseline")
def _solve_equal_baseline(ctx: GroupContext) -> SchemeOutcome:
    """§VI optimization with equal-partition fairness thresholds.

    One point of the policy's baseline family (``baseline="equal"``),
    kept as a named scheme for the paper's tables.
    """
    return ctx.baseline_outcome("equal")


@register_scheme("natural_baseline")
def _solve_natural_baseline(ctx: GroupContext) -> SchemeOutcome:
    """§VI optimization with natural-partition fairness thresholds.

    The second named point of the baseline family (``baseline="natural"``).
    """
    return ctx.baseline_outcome("natural")


@register_scheme("optimal")
def _solve_optimal(ctx: GroupContext) -> SchemeOutcome:
    """The policy optimum: unconstrained DP (Eq. 15) under
    ``baseline="none"``, otherwise the policy's own baseline family
    member (equal/natural/explicit thresholds)."""
    baseline = ctx.policy.baseline
    if not (isinstance(baseline, str) and baseline == "none"):
        return ctx.baseline_outcome(baseline)
    shared = ctx.solver.shared
    if ctx.pair_sharing and shared is not None:
        alloc = ctx.pair_tree_allocate(shared.costs, "opt")
    else:
        alloc = ctx.solve_partition(ctx.costs)
    return ctx.grid_outcome(alloc)


@register_scheme("sttw")
def _solve_sttw(ctx: GroupContext) -> SchemeOutcome:
    """Stone–Thiebaut–Turek–Wolf greedy (1992) — the convexity-bound rival.

    Like ``natural``, a scheme the policy cannot steer: a marginal-gain
    greedy has no gain to rank at an SLO-masked ``+inf`` size, so it runs
    on the policy-weighted costs without the SLO masks.  The outcome
    still reports the policy objective and SLO headroom.
    """
    uncapped = replace(ctx.policy, slo_caps=None)
    costs = [
        compile_tenant_cost(m, uncapped, ctx.policy_index(i))
        for i, m in enumerate(ctx.mrcs)
    ]
    return ctx.grid_outcome(sttw_partition(costs, ctx.n_units))
