"""Core contribution: optimal cache partition-sharing (paper §II, §V, §VI)."""

from repro.core.baselines import (
    baseline_partition,
    equal_allocation,
    equal_baseline_partition,
    natural_baseline_partition,
)
from repro.core.dp import (
    PartitionResult,
    brute_force_partition,
    cost_fingerprint,
    curve_fingerprint,
    optimal_partition,
)
from repro.core.dynamic import EpochPlan, plan_dynamic, plan_static, simulate_plan
from repro.core.elastic import ElasticityPoint, elastic_partition, elasticity_sweep
from repro.core.kernels import convolve, oracle_convolve
from repro.core.minplus import MinPlusFold, fold_curves, fold_curves_stages
from repro.core.multicache import (
    Assignment,
    greedy_assignment,
    group_shared_cost,
    optimal_assignment,
)
from repro.core.natural import natural_partition_units, round_to_units
from repro.core.objectives import (
    constrained_costs,
    miss_count_costs,
    qos_costs,
    weighted_miss_costs,
)
from repro.core.partition_sharing import (
    PartitionSharingResult,
    group_cost_curve,
    optimal_partition_sharing,
    set_partitions,
)
from repro.core.policy import (
    BASELINE_FAMILIES,
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
from repro.core.schemes import SCHEMES, GroupEvaluation, SchemeOutcome, evaluate_group
from repro.core.searchspace import (
    PaperExample,
    compositions,
    paper_example,
    partition_sharing_single_cache,
    partitioning_only,
    sharing_multiple_caches,
    stirling2,
)
from repro.core.sttw import sttw_partition

__all__ = [
    "baseline_partition",
    "equal_allocation",
    "equal_baseline_partition",
    "natural_baseline_partition",
    "PartitionResult",
    "brute_force_partition",
    "cost_fingerprint",
    "curve_fingerprint",
    "optimal_partition",
    "convolve",
    "oracle_convolve",
    "EpochPlan",
    "plan_dynamic",
    "plan_static",
    "simulate_plan",
    "ElasticityPoint",
    "elastic_partition",
    "elasticity_sweep",
    "MinPlusFold",
    "fold_curves",
    "fold_curves_stages",
    "Assignment",
    "greedy_assignment",
    "group_shared_cost",
    "optimal_assignment",
    "natural_partition_units",
    "round_to_units",
    "constrained_costs",
    "miss_count_costs",
    "qos_costs",
    "weighted_miss_costs",
    "PartitionSharingResult",
    "group_cost_curve",
    "optimal_partition_sharing",
    "set_partitions",
    "BASELINE_FAMILIES",
    "DEFAULT_POLICY",
    "InfeasibleSLOError",
    "ObjectivePolicy",
    "compile_costs",
    "compile_tenant_cost",
    "equal_share_costs",
    "explicit_baseline_costs",
    "policy_fingerprint",
    "slo_headroom",
    "SCHEMES",
    "GroupEvaluation",
    "SchemeOutcome",
    "evaluate_group",
    "PaperExample",
    "compositions",
    "paper_example",
    "partition_sharing_single_cache",
    "partitioning_only",
    "sharing_multiple_caches",
    "stirling2",
    "sttw_partition",
]
