"""Planning and cost simulation for variable-length data-parallel training batches."""

from .attention_engine import (
    AttentionSchedule,
    RingGroup,
    build_schedule,
    causal_pairs,
    split_even,
)
from .baselines import STRATEGIES, plan_hybrid_dp, plan_llama_cp, plan_te_cp
from .partitioner import (
    InfeasibleBatch,
    PlacementPlan,
    PlanValidationError,
    build_plan,
    load_plan,
    partition_inter_node,
    partition_intra_node,
    save_plan,
    validate_plan,
)
from .remapping import RemapResult, cost_matrix, solve_remap, target_distribution
from .routing import RoutePlan, RouteStep, build_route, route_schedule, routed_time, select_proxies
from .simulator import StepReport, Timeline, compare, export_trace, simulate, write_compare_csv
from .topology import (
    ClusterSpec,
    ConfigError,
    CostCoefficients,
    cluster_a,
    direct_transfer_time,
    load_cluster_config,
    save_cluster_config,
    zone_boundaries,
)
from .workload import LengthDistribution, SequenceBatch, load_batch, preset, sample_batch, save_batch

__version__ = "0.1.0"
