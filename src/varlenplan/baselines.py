"""Comparable cost-model planners for the three comparison strategies.

te_cp zigzag-splits every sequence across all ranks in one global ring.
llama_cp uses the same even layout, sharing te_cp's validated table of a
batch, but pays a non-overlapped ring all-gather before fully parallel
attention compute. hybrid_dp sends long sequences through a global ring and
packs the short ones into per-rank micro-batches balanced on quadratic work.
"""

from __future__ import annotations

import sys

import numpy as np

from . import partitioner
from .partitioner import (
    InfeasibleBatch,
    PlacementPlan,
    even_zigzag_plan,
    lay_out_global_ring,
    plan_from_rows,
    validate_plan,
)
from .topology import ClusterSpec
from .workload import SequenceBatch

# Each strategy's planner as (module, function name). The function is looked
# up when a plan is asked for, so a replaced module attribute (a wrapper that
# times calls, a test double) is the one that runs.
PLANNERS = {
    "zeppelin": (partitioner, "build_plan"),
    "te_cp": (sys.modules[__name__], "plan_te_cp"),
    "llama_cp": (sys.modules[__name__], "plan_llama_cp"),
    "hybrid_dp": (sys.modules[__name__], "plan_hybrid_dp"),
}
STRATEGIES = tuple(PLANNERS)


def plan_with(strategy: str, batch: SequenceBatch, cluster: ClusterSpec) -> PlacementPlan:
    """Place `batch` with the named strategy's planner."""
    module, name = PLANNERS[strategy]
    return getattr(module, name)(batch, cluster)


def plan_te_cp(batch: SequenceBatch, cluster: ClusterSpec) -> PlacementPlan:
    """Even split with balanced ring attention over one global ring."""
    return even_zigzag_plan(batch, cluster, "te_cp")


def plan_llama_cp(batch: SequenceBatch, cluster: ClusterSpec) -> PlacementPlan:
    """Even split where KV is all-gathered before attention: communication is
    charged on the critical path (no overlap), compute is fully parallel."""
    return even_zigzag_plan(batch, cluster, "llama_cp")


def plan_hybrid_dp(batch: SequenceBatch, cluster: ClusterSpec) -> PlacementPlan:
    """Long sequences run as global-ring context parallelism, the rest are
    packed into per-rank micro-batches by longest-processing-time on the
    squared length. A rank's short sequences split into further micro-batches
    whenever they exceed its token capacity.

    Sequences longer than one device's capacity take the CP path, since no
    micro-batch can hold them, so only the ring phase is bounded by the
    cluster's token capacity.
    """
    n_ranks = cluster.num_ranks
    cap = cluster.token_capacity
    cp_seqs = [(sid, ln) for sid, ln in sorted(batch.sequences) if ln > cap]
    dp_seqs = [(sid, ln) for sid, ln in sorted(batch.sequences) if ln <= cap]
    if sum(ln for _, ln in cp_seqs) > n_ranks * cap:
        raise InfeasibleBatch("ring-phase sequences exceed the cluster's token capacity")

    ring_rows, rings = lay_out_global_ring(cp_seqs, cluster)

    # LPT on squared length balances the quadratic attention work
    sq_loads = [0] * n_ranks
    per_rank_dp: list[list[tuple[int, int]]] = [[] for _ in range(n_ranks)]
    for sid, length in sorted(dp_seqs, key=lambda t: (-t[1], t[0])):
        idx = min(range(n_ranks), key=lambda i: (sq_loads[i], i))
        sq_loads[idx] += length * length
        per_rank_dp[idx].append((sid, length))
    dp_rows: list[int] = []  # placement rows, flattened
    for rank, seqs in enumerate(per_rank_dp):
        mb = 1
        mb_tokens = 0
        for sid, length in seqs:
            if mb_tokens and mb_tokens + length > cap:
                mb += 1
                mb_tokens = 0
            mb_tokens += length
            dp_rows += (rank, mb, sid, 0, length)

    plan = plan_from_rows(
        "hybrid_dp", batch, cluster, np.concatenate([ring_rows, np.array(dp_rows, dtype=np.int64).reshape(-1, 5)]),
        rings,
        meta={"cp_sequences": [sid for sid, _ in cp_seqs]},
    )
    validate_plan(plan, batch, cluster)
    return plan
