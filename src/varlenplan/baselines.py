"""Comparable cost-model planners for the three comparison strategies.

te_cp zigzag-splits every sequence across all ranks in one global ring.
llama_cp uses the same even layout but pays a non-overlapped ring all-gather
before fully parallel attention compute. hybrid_dp sends long sequences
through a global ring and packs the short ones into per-rank micro-batches
balanced on quadratic work.
"""

from __future__ import annotations

import sys

from . import partitioner
from .attention_engine import (
    INTER_NODE,
    INTRA_NODE,
    LOCAL,
    RingGroup,
    RingSequence,
    balanced_zigzag_sizes,
    ranges_from_sizes,
)
from .partitioner import Fragment, InfeasibleBatch, PlacementPlan, first_over_capacity, validate_plan
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


def _validate(plan: PlacementPlan, batch: SequenceBatch, cluster: ClusterSpec) -> PlacementPlan:
    over = first_over_capacity(plan, cluster)
    if over is not None:
        raise InfeasibleBatch(f"rank {over} exceeds token capacity under the even split")
    validate_plan(plan, batch, cluster)
    return plan


def _check_fits(batch: SequenceBatch, cluster: ClusterSpec) -> None:
    cap = cluster.num_ranks * cluster.token_capacity
    if batch.total_tokens > cap:
        raise InfeasibleBatch(f"batch of {batch.total_tokens} tokens exceeds cluster capacity {cap}")


def _derive_zone(ranks: set[int], cluster: ClusterSpec) -> str:
    nodes = {cluster.node_of(r) for r in ranks}
    if len(nodes) >= 2:
        return INTER_NODE
    if len(ranks) >= 2:
        return INTRA_NODE
    return LOCAL


def _even_zigzag_plan(batch: SequenceBatch, cluster: ClusterSpec, strategy: str) -> PlacementPlan:
    _check_fits(batch, cluster)
    n_ranks = cluster.num_ranks
    fragments: list[list[Fragment]] = [[] for _ in range(n_ranks)]
    ring_seqs: list[RingSequence] = []
    zone_of: dict[int, str] = {}
    running = [0] * n_ranks
    for sid, length in sorted(batch.sequences):
        if n_ranks > 1:
            ranges = ranges_from_sizes(balanced_zigzag_sizes(length, n_ranks, running))
        else:
            ranges = [[(0, length)]]
        held_ranks = set()
        for position, pos_ranges in enumerate(ranges):
            for start, end in pos_ranges:
                fragments[position].append(Fragment(sid, start, end, position))
                running[position] += end - start
                held_ranks.add(position)
        zone_of[sid] = _derive_zone(held_ranks, cluster)
        if n_ranks > 1:
            # every sequence's KV rides the global ring, even the ones whose
            # queries fit on a single rank: that is the even split's overhead
            ring_seqs.append(RingSequence(sequence_id=sid, ranges_by_position=tuple(tuple(r) for r in ranges)))
    rings: tuple[RingGroup, ...] = ()
    if n_ranks > 1 and ring_seqs:
        kind = INTER_NODE if cluster.num_nodes > 1 else INTRA_NODE
        rings = (RingGroup(kind=kind, members=tuple(range(n_ranks)), sequences=tuple(ring_seqs)),)
    for frags in fragments:
        frags.sort(key=lambda f: (f.micro_batch, f.sequence_id, f.start))
    plan = PlacementPlan(
        strategy=strategy,
        num_nodes=cluster.num_nodes,
        gpus_per_node=cluster.gpus_per_node,
        s1=0,
        s0_per_node=[0] * cluster.num_nodes,
        zone_of=zone_of,
        sequence_lengths=batch.lengths,
        node_buckets=_node_buckets(fragments, cluster),
        fragments=fragments,
        ring_groups=rings,
        tokens_per_rank=[sum(f.tokens for f in frags) for frags in fragments],
        micro_batch_counts=[1] * n_ranks,
        meta={},
    )
    return plan


def _node_buckets(fragments: list[list[Fragment]], cluster: ClusterSpec) -> list[list[tuple[int, int]]]:
    buckets = []
    for node in range(cluster.num_nodes):
        totals: dict[int, int] = {}
        for rank in cluster.ranks_of_node(node):
            for frag in fragments[rank]:
                totals[frag.sequence_id] = totals.get(frag.sequence_id, 0) + frag.tokens
        buckets.append(sorted(totals.items()))
    return buckets


def plan_te_cp(batch: SequenceBatch, cluster: ClusterSpec) -> PlacementPlan:
    """Even split with balanced ring attention over one global ring."""
    return _validate(_even_zigzag_plan(batch, cluster, "te_cp"), batch, cluster)


def plan_llama_cp(batch: SequenceBatch, cluster: ClusterSpec) -> PlacementPlan:
    """Even split where KV is all-gathered before attention: communication is
    charged on the critical path (no overlap), compute is fully parallel."""
    return _validate(_even_zigzag_plan(batch, cluster, "llama_cp"), batch, cluster)


def plan_hybrid_dp(batch: SequenceBatch, cluster: ClusterSpec, cp_fraction: float = 1.0) -> PlacementPlan:
    """Long sequences run as global-ring context parallelism, the rest are
    packed into per-rank micro-batches by longest-processing-time on the
    squared length. A rank's short sequences split into further micro-batches
    whenever they exceed its token capacity.

    Sequences longer than one device's capacity always take the CP path
    regardless of cp_fraction, since no micro-batch can hold them. Short
    sequences beyond one micro-batch's worth per rank chunk into further
    micro-batches, so only the ring phase is bounded by the cluster's token
    capacity.
    """
    if cp_fraction <= 0:
        raise ValueError("cp_fraction must be > 0")
    n_ranks = cluster.num_ranks
    cap = cluster.token_capacity
    threshold = min(cluster.gpus_per_node * cap * cp_fraction, cap)
    cp_seqs = [(sid, ln) for sid, ln in sorted(batch.sequences) if ln > threshold]
    dp_seqs = [(sid, ln) for sid, ln in sorted(batch.sequences) if ln <= threshold]
    if sum(ln for _, ln in cp_seqs) > n_ranks * cap:
        raise InfeasibleBatch("ring-phase sequences exceed the cluster's token capacity")

    fragments: list[list[Fragment]] = [[] for _ in range(n_ranks)]
    zone_of: dict[int, str] = {}
    ring_seqs: list[RingSequence] = []
    running = [0] * n_ranks
    for sid, length in cp_seqs:
        if n_ranks > 1:
            ranges = ranges_from_sizes(balanced_zigzag_sizes(length, n_ranks, running))
        else:
            ranges = [[(0, length)]]
        held = set()
        for position, pos_ranges in enumerate(ranges):
            for start, end in pos_ranges:
                fragments[position].append(Fragment(sid, start, end, position))
                running[position] += end - start
                held.add(position)
        zone_of[sid] = _derive_zone(held, cluster)
        if n_ranks > 1:
            ring_seqs.append(RingSequence(sequence_id=sid, ranges_by_position=tuple(tuple(r) for r in ranges)))

    # LPT on squared length balances the quadratic attention work
    sq_loads = [0] * n_ranks
    per_rank_dp: list[list[tuple[int, int]]] = [[] for _ in range(n_ranks)]
    for sid, length in sorted(dp_seqs, key=lambda t: (-t[1], t[0])):
        idx = min(range(n_ranks), key=lambda i: (sq_loads[i], i))
        sq_loads[idx] += length * length
        per_rank_dp[idx].append((sid, length))
    micro_batch_counts = [1] * n_ranks
    for rank, seqs in enumerate(per_rank_dp):
        mb = 1
        mb_tokens = 0
        for sid, length in seqs:
            if mb_tokens and mb_tokens + length > cap:
                mb += 1
                mb_tokens = 0
            mb_tokens += length
            fragments[rank].append(Fragment(sid, 0, length, rank, micro_batch=mb))
            zone_of[sid] = LOCAL
        micro_batch_counts[rank] = mb

    rings: tuple[RingGroup, ...] = ()
    if ring_seqs:
        kind = INTER_NODE if cluster.num_nodes > 1 else INTRA_NODE
        rings = (RingGroup(kind=kind, members=tuple(range(n_ranks)), sequences=tuple(ring_seqs)),)
    for frags in fragments:
        frags.sort(key=lambda f: (f.micro_batch, f.sequence_id, f.start))
    plan = PlacementPlan(
        strategy="hybrid_dp",
        num_nodes=cluster.num_nodes,
        gpus_per_node=cluster.gpus_per_node,
        s1=0,
        s0_per_node=[0] * cluster.num_nodes,
        zone_of=zone_of,
        sequence_lengths=batch.lengths,
        node_buckets=_node_buckets(fragments, cluster),
        fragments=fragments,
        ring_groups=rings,
        tokens_per_rank=[sum(f.tokens for f in frags) for frags in fragments],
        micro_batch_counts=micro_batch_counts,
        meta={"cp_sequences": [sid for sid, _ in cp_seqs]},
    )
    return _validate(plan, batch, cluster)
