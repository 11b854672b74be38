"""Two-level hierarchical sequence partitioning.

Both levels run one greedy threshold fill. Items at or above the running
threshold split into pieces on distinct bins, as many as their share of the
tier's cost asks for (linear in length across nodes, quadratic across
devices); shorter items go whole to the least-loaded bin. When a whole item
overflows, the threshold drops to the longest whole item and the fill
restarts, so every item below the final threshold is placeable. Level one
fills node bins of P*L tokens; level two fills each node's L-token devices on
top of its inter-node chunks. The levels record only where each sequence
lands: the plan's token ranges come from the zigzag layout of its rings.

When the greedy levels cannot place a batch (a split item fits no set of
bins, or zigzag re-chunking leaves a rank over capacity), build_plan falls
back to the even zigzag split over one global ring. That layout keeps every
rank within one token of total/R, so it fits whenever the batch total does.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .attention_engine import (
    INTER_NODE,
    INTRA_NODE,
    LOCAL,
    RingGroup,
    balanced_zigzag_sizes,
    ranges_from_sizes,
    ring_kind,
    split_even,
)
from .topology import ClusterSpec
from .workload import SequenceBatch


class InfeasibleBatch(RuntimeError):
    """The batch cannot be placed within the cluster's token capacity."""


class PlanValidationError(RuntimeError):
    """Internal consistency check failed while assembling a plan (bug guard)."""


@dataclass
class NodeBucket:
    """One node's share after inter-node partitioning: (sequence_id, tokens)
    chunks of sequences in the split tier, which may span several nodes, plus
    the whole sequences this node owns."""

    chunks: list[tuple[int, int]] = field(default_factory=list)
    own: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class InterNodeAssignment:
    buckets: list[NodeBucket]
    s1: int
    restarts: int


@dataclass
class IntraNodeAssignment:
    """The devices each of a node's own sequences landed on, in piece order:
    piece i holds split_even(length, len(devices))[i] tokens."""

    devices_of: dict[int, list[int]]
    s0: int
    restarts: int


def _group_starts(*columns: np.ndarray) -> np.ndarray:
    """Indices of the rows where any of `columns` differs from the row
    before, the first row included: the heads of sorted groups."""
    change = np.ones(len(columns[0]), dtype=bool)
    np.not_equal(columns[0][1:], columns[0][:-1], out=change[1:])
    for col in columns[1:]:
        change[1:] |= col[1:] != col[:-1]
    return change.nonzero()[0]


class SequenceView(NamedTuple):
    """A plan's placement table in (sequence, start) order, ties in execution
    order, with per row: its sequence's index among the plan's sorted ids,
    their count when the plan lacks it; the index in `ring_groups` of the
    ring that carries it and its index among that ring's sequence ids, -1
    for both when no ring does; and its rank's place among that ring's
    members, -1 off them. A sequence on two rings (which `validate_plan`
    rejects) is read as on the narrowest, the first of those on ties. All
    arrays are read-only."""

    rows: np.ndarray
    seq: np.ndarray
    ring: np.ndarray
    ring_seq: np.ndarray
    place: np.ndarray


@dataclass(eq=False)
class PlacementPlan:
    """What a planner decided: where each fragment lands and which rings
    carry them. A fragment is a contiguous token range of one sequence
    resident on one rank; `placement` holds one row (rank, micro_batch,
    sequence_id, start, end) per fragment. Micro-batch 0 is the attention
    phase; hybrid data-parallel plans run short sequences in micro-batches
    1, 2, ... after it.

    The constructor turns the rows it is given, in any order and as a nested
    or a flat sequence, into a read-only (n, 5) int64 table in execution
    order (by rank, micro_batch, sequence_id, start). Zones and per-rank
    token totals follow from the table; they are derived on first read and
    cached."""

    strategy: str
    num_nodes: int
    gpus_per_node: int
    s1: int
    s0_per_node: list[int]
    sequence_lengths: dict[int, int]
    placement: np.ndarray
    ring_groups: tuple[RingGroup, ...]
    meta: dict

    def __post_init__(self) -> None:
        rows = np.asarray(self.placement, dtype=np.int64).reshape(-1, 5)
        rows = np.take(rows, np.lexsort(rows.T[3::-1]), axis=0)  # by rank, micro_batch, sequence_id, start
        if len(rows) and not 0 <= rows[0, 0] <= rows[-1, 0] < self.num_ranks:
            raise ValueError(f"placement rows name ranks outside 0..{self.num_ranks - 1}")
        rows.setflags(write=False)
        self.placement = rows

    @property
    def num_ranks(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def total_tokens(self) -> int:
        return sum(self.tokens_per_rank)

    @cached_property
    def tokens_per_rank(self) -> list[int]:
        rows = self.placement
        tokens = np.bincount(rows[:, 0], weights=rows[:, 4] - rows[:, 3], minlength=self.num_ranks)
        return tokens.astype(np.int64).tolist()

    @cached_property
    def by_sequence(self) -> SequenceView:
        """The table by sequence, as `validate_plan` and the ring schedules
        read it: sorted and looked up once per plan."""
        table = self.placement
        # np.take gathers whole rows faster than fancy indexing does
        rows = np.take(table, np.lexsort((table[:, 3], table[:, 2])), axis=0)
        rank, sid = rows[:, 0], rows[:, 2]
        ids = np.array([*sorted(self.sequence_lengths), 0])
        n = len(ids) - 1
        seq = ids[:n].searchsorted(sid)
        seq[ids[seq] != sid] = n
        # (sequence id, ring size, ring, index in the ring) per ring
        # sequence, by id and then size, so a sequence on two rings finds
        # the narrower first; a pad entry of ring -1 takes the ids no ring
        # carries
        rings = self.ring_groups
        entries = sorted((x, len(ring.members), k, s) for k, ring in enumerate(rings)
                         for s, x in enumerate(ring.sequence_ids))
        keys, _, key_ring, key_seq = np.array([*entries, (0, 0, -1, -1)], dtype=np.int64).T
        hit = keys[:-1].searchsorted(sid)
        hit[keys[hit] != sid] = len(keys) - 1
        ring = key_ring[hit]
        # ring k's members' places at k * width + rank; the last block, all
        # -1, is read for rows on no ring
        width = max([self.num_ranks] + [max(r.members) + 1 for r in rings])
        places = np.full((len(rings) + 1) * width, -1)
        places[[k * width + m for k, r in enumerate(rings) for m in r.members]] = \
            [i for r in rings for i in range(len(r.members))]
        view = SequenceView(rows=rows, seq=seq, ring=ring, ring_seq=key_seq[hit], place=places[ring * width + rank])
        for array in view:
            array.setflags(write=False)
        return view

    @cached_property
    def zone_of(self) -> dict[int, str]:
        """Each placed sequence's zone, in order of first appearance:
        inter-node when its fragments span two or more nodes, intra-node
        when they span two or more ranks of one node, local otherwise."""
        rank, sid = self.placement[:, 0], self.placement[:, 2]
        # rows run by rank, so a sequence's first row is on its lowest rank and its last on its highest
        ids, first = np.unique(sid, return_index=True)
        lo, hi = rank[first], rank[len(sid) - 1 - np.unique(sid[::-1], return_index=True)[1]]
        p = self.gpus_per_node
        zone = np.where(lo // p != hi // p, 2, lo != hi)
        order = np.argsort(first)
        names = (LOCAL, INTRA_NODE, INTER_NODE)
        return {s: names[z] for s, z in zip(ids[order].tolist(), zone[order].tolist())}


# a fill's bin order for one item, from the loads and the previous item's last bin:
# the bins in the order its pieces try them, and the position where the first starts
Order = Callable[[list[int], int], tuple[Sequence[int], int]]


def _least_loaded(loads: list[int], last: int) -> tuple[Sequence[int], int]:
    """Bins by load, ties to the lowest index, from the lightest."""
    return sorted(range(len(loads)), key=loads.__getitem__), 0


def _round_robin(loads: list[int], last: int) -> tuple[Sequence[int], int]:
    """Bins in index order, from the one after the previous item's last bin."""
    return range(len(loads)), last + 1


def _place_pieces(
    length: int, k_init: int, loads: list[int], cap: int, order: Order, last: int
) -> list[tuple[int, int]] | None:
    """Split one item evenly into k pieces on k distinct bins, trying k from
    k_init up to the bin count. Each piece walks `order`'s bins round from
    after the previous piece's (the first from the order's start) to the
    first unused one it fits. Returns the (bin, tokens) pieces of the first
    k that fits, zero-token pieces included, or None when none does;
    `loads` is left alone, so the order is built once per item."""
    n = len(loads)
    ranked, first = order(loads, last)
    for k in range(min(k_init, n), n + 1):
        base, extra = divmod(length, k)
        pieces: list[tuple[int, int]] = []
        used: set[int] = set()
        at = first  # every k starts from the item's own cursor
        for j in range(k):
            size = base + (j < extra)
            for i in range(at, at + n):
                b = ranked[i % n]
                if b not in used and loads[b] + size <= cap:
                    break
            else:
                break
            used.add(b)
            pieces.append((b, size))
            at = i + 1
        else:
            return pieces
    return None


def _threshold_fill(
    items: list[tuple[int, int]], loads: list[int], cap: int, power: int, order: Order
) -> tuple[int, int, dict[int, list[tuple[int, int]]]]:
    """Place (sequence_id, length) items, longest first, on bins of `cap`
    tokens that start at `loads`.

    Items at or above the running threshold (initially `cap`) split into
    ceil(len^power * B / sum of the tier's len^power) pieces over B bins, or
    more when those do not fit (`_place_pieces`); the previous item's last
    bin seeds `order`, which each split item calls once. Shorter items go
    whole to the least-loaded bin, the first of the lightest. When
    a whole item overflows, the threshold drops to the longest whole item,
    which so joins the split tier, and the fill restarts: restarts never
    exceed the item count. Returns (threshold, restarts, placed), where
    placed[sid] lists the item's nonempty (bin, tokens) pieces in placement
    order; an item that fits no set of bins raises InfeasibleBatch.
    """
    items = sorted(items, key=lambda t: (-t[1], t[0]))
    threshold, restarts = cap, 0
    while True:
        trial = list(loads)
        placed: dict[int, list[tuple[int, int]]] = {}
        n_split = sum(1 for _, ln in items if ln >= threshold)
        weight = sum(ln**power for _, ln in items[:n_split])
        last = -1
        for sid, ln in items[:n_split]:
            pieces = _place_pieces(ln, max(1, -(-ln**power * len(trial) // weight)), trial, cap, order, last)
            if pieces is None:
                raise InfeasibleBatch(f"sequence {sid} fits no set of {len(trial)} bins of {cap} tokens")
            last = pieces[-1][0]
            placed[sid] = [(b, size) for b, size in pieces if size]
            for b, size in pieces:
                trial[b] += size
        for sid, ln in items[n_split:]:
            b = trial.index(min(trial))
            if trial[b] + ln > cap:
                threshold = items[n_split][1]
                restarts += 1
                break
            placed[sid] = [(b, ln)]
            trial[b] += ln
        else:
            return threshold, restarts, placed


def partition_inter_node(batch: SequenceBatch, cluster: ClusterSpec) -> InterNodeAssignment:
    """Assign sequences to node buckets: a threshold fill of node bins of
    P*L tokens, splitting by linear cost, least-loaded bins first. Pieces of
    split sequences become the buckets' chunks, even when a sequence lands
    in one piece; whole sequences are the buckets' own. A split sequence
    that fits no set of buckets, as in any batch above the cluster's
    capacity, raises InfeasibleBatch (build_plan then falls back to the even
    split, which reports the over-full batch).
    """
    node_cap = cluster.gpus_per_node * cluster.token_capacity
    s1, restarts, placed = _threshold_fill(list(batch.sequences), [0] * cluster.num_nodes, node_cap, 1, _least_loaded)
    lengths = batch.lengths
    buckets = [NodeBucket() for _ in range(cluster.num_nodes)]
    for sid, pieces in placed.items():
        for node, tokens in pieces:
            (buckets[node].chunks if lengths[sid] >= s1 else buckets[node].own).append((sid, tokens))
    return InterNodeAssignment(buckets=buckets, s1=s1, restarts=restarts)


def partition_intra_node(node: NodeBucket, cluster: ClusterSpec) -> IntraNodeAssignment:
    """Spread one node bucket over its P devices.

    The bucket's inter-node chunks split evenly over all devices and form
    the starting loads. Its own sequences then take a threshold fill of
    L-token devices, splitting by quadratic cost round-robin: each piece
    goes to the next device after the previous piece's that it fits. A split
    sequence that fits no set of devices raises InfeasibleBatch.
    """
    loads = [0] * cluster.gpus_per_node
    for _, tokens in node.chunks:
        for dev, size in enumerate(split_even(tokens, cluster.gpus_per_node)):
            loads[dev] += size
    s0, restarts, placed = _threshold_fill(node.own, loads, cluster.token_capacity, 2, _round_robin)
    devices_of = {sid: [dev for dev, _ in pieces] for sid, pieces in placed.items()}
    return IntraNodeAssignment(devices_of=devices_of, s0=s0, restarts=restarts)


def build_plan(batch: SequenceBatch, cluster: ClusterSpec) -> PlacementPlan:
    """Run both partitioning levels, form ring groups with zigzag chunk
    layouts and validate the plan.

    Zigzag re-chunking can shift a rank's token count by a token or two
    relative to the even-split accounting the levels used. When a level
    cannot place the batch, or a rank ends up over capacity, the batch takes
    the even zigzag split over one global ring instead, which
    even_zigzag_plan returns validated; meta "reconcile_attempts" is 1 for
    such a plan and 0 otherwise.
    """
    try:
        inter = partition_inter_node(batch, cluster)
        intra = [partition_intra_node(bucket, cluster) for bucket in inter.buckets]
        plan = _assemble_plan(batch, cluster, inter, intra)
    except InfeasibleBatch:
        plan = even_zigzag_plan(batch, cluster, "zeppelin")
        plan.meta = {"s1_restarts": 0, "s0_restarts": [0] * cluster.num_nodes, "reconcile_attempts": 1}
        return plan
    validate_plan(plan, batch, cluster)
    return plan


def plan_from_rows(
    strategy: str,
    batch: SequenceBatch,
    cluster: ClusterSpec,
    rows,
    ring_groups: tuple[RingGroup, ...],
    meta: dict,
    s1: int = 0,
    s0_per_node: list[int] | None = None,
) -> PlacementPlan:
    """A planner's plan of `batch` on `cluster`, from placement rows
    (rank, micro_batch, sequence_id, start, end) in any order, as an (n, 5)
    array or a flat list of 5n integers."""
    return PlacementPlan(
        strategy=strategy,
        num_nodes=cluster.num_nodes,
        gpus_per_node=cluster.gpus_per_node,
        s1=s1,
        s0_per_node=[0] * cluster.num_nodes if s0_per_node is None else s0_per_node,
        sequence_lengths=batch.lengths,
        placement=rows,
        ring_groups=ring_groups,
        meta=meta,
    )


def lay_out_global_ring(
    sequences: list[tuple[int, int]],
    cluster: ClusterSpec,
) -> tuple[np.ndarray, tuple[RingGroup, ...]]:
    """Zigzag-split each (sequence_id, length), in order, over all ranks,
    leftover tokens to the lightest ranks. Returns the placement rows and
    the one global ring that carries them all.

    Every sequence gives each rank the same base, so the ranks' loads never
    differ by more than a token: the lighter ranks run from a pointer p, the
    earlier sequences' leftovers mod R, to the last rank. A sequence's
    leftovers so go round the ranks from p, first chunks before second ones,
    which is balanced_zigzag_sizes on those loads in one closed form."""
    n_ranks = cluster.num_ranks
    if n_ranks == 1 or not sequences:
        return np.array([(0, 0, sid, 0, length) for sid, length in sequences], dtype=np.int64).reshape(-1, 5), ()
    sids, lengths = np.array(sequences, dtype=np.int64).T
    base, extra = np.divmod(lengths, 2 * n_ranks)
    pointer = (np.cumsum(extra) - extra) % n_ranks
    rank = np.arange(n_ranks)
    # leftovers still to go once a rank's place from the pointer is reached:
    # one more token for its first chunk above 0, for its second above R
    ahead = extra[:, None] - (rank - pointer[:, None]) % n_ranks
    sizes = base[:, None] + np.concatenate((ahead > 0, (ahead > n_ranks)[:, ::-1]), axis=1)
    # (sequence, chunk) -> (rank, micro_batch, sequence_id, start, end);
    # rank p holds chunks p and 2R-1-p
    rows = np.zeros((len(sids), 2 * n_ranks, 5), dtype=np.int64)
    rows[:, :n_ranks, 0] = rank
    rows[:, n_ranks:, 0] = rank[::-1]
    rows[:, :, 2] = sids[:, None]
    np.cumsum(sizes, axis=1, out=rows[:, :, 4])
    rows[:, 1:, 3] = rows[:, :-1, 4]
    rows = rows.reshape(-1, 5)
    # every sequence's KV rides the global ring, even the ones whose queries
    # fit on a single rank: that is the even split's overhead
    return rows[rows[:, 4] > rows[:, 3]], (RingGroup(tuple(range(n_ranks)), tuple(sids.tolist())),)


# the last even split laid out, as (batch, cluster, validated plan)
_last_even: tuple[SequenceBatch, ClusterSpec, PlacementPlan] | None = None


def even_zigzag_plan(batch: SequenceBatch, cluster: ClusterSpec, strategy: str) -> PlacementPlan:
    """Every sequence zigzag-split over all ranks on one global ring, as a
    validated plan. Each rank's load stays within one token of total/R, so
    the plan fits exactly when the batch total fits the cluster.

    te_cp, llama_cp and zeppelin's fallback all place a batch this way, so
    the last batch's plan is kept, keyed by the identity of its batch and
    cluster (both frozen). Each call returns its own copy: only the
    read-only table, its view by sequence and the ring tuple are shared."""
    global _last_even
    last = _last_even
    if last is None or last[0] is not batch or last[1] is not cluster:
        cap = cluster.num_ranks * cluster.token_capacity
        if batch.total_tokens > cap:
            raise InfeasibleBatch(f"batch of {batch.total_tokens} tokens exceeds cluster capacity {cap}")
        rows, rings = lay_out_global_ring(sorted(batch.sequences), cluster)
        plan = plan_from_rows(strategy, batch, cluster, rows, rings, meta={})
        validate_plan(plan, batch, cluster)
        last = _last_even = (batch, cluster, plan)
    plan = last[2]
    # the fields and the read-only view by sequence: other values cached on
    # the kept plan stay with it
    twin = object.__new__(PlacementPlan)
    vars(twin).update({f.name: getattr(plan, f.name) for f in fields(PlacementPlan)}, strategy=strategy,
                      s0_per_node=list(plan.s0_per_node), sequence_lengths=dict(plan.sequence_lengths), meta={},
                      by_sequence=plan.by_sequence)
    return twin


def _assemble_plan(
    batch: SequenceBatch,
    cluster: ClusterSpec,
    inter: InterNodeAssignment,
    intra: list[IntraNodeAssignment],
) -> PlacementPlan:
    lengths = batch.lengths
    p = cluster.gpus_per_node
    rows: list[int] = []  # placement rows, flattened
    running = [0] * cluster.num_ranks

    # a chunked sequence spans every rank of its nodes; a node's own sequence
    # spans the devices level two put it on
    ranks_of: dict[int, list[int]] = {}
    for n, bucket in enumerate(inter.buckets):
        for sid, _ in bucket.chunks:
            ranks_of.setdefault(sid, []).extend(cluster.ranks_of_node(n))
    for n, assignment in enumerate(intra):
        for sid, devs in assignment.devices_of.items():
            ranks_of[sid] = [n * p + d for d in devs]

    # fixed single-rank placements first, then ring layouts so their leftover
    # tokens can chase the lightest ranks
    ring_jobs: list[tuple[tuple[int, ...], int]] = []
    for sid, ranks in ranks_of.items():
        if len(ranks) >= 2:
            ring_jobs.append((tuple(sorted(ranks)), sid))
        else:
            rows += (ranks[0], 0, sid, 0, lengths[sid])
            running[ranks[0]] += lengths[sid]

    ring_map: dict[tuple[int, ...], list[int]] = {}
    # lay out the narrowest rings first: sequences confined to few ranks have
    # the least placement freedom, while wide rings spread within +/- 1 token
    # anywhere and so plug the remaining gaps best
    ring_jobs.sort(key=lambda job: (len(job[0]), job))
    for members, sid in ring_jobs:
        _add_ring_sequence(ring_map, members, sid, lengths[sid], rows, running, p)
    if max(running) > cluster.token_capacity:
        raise InfeasibleBatch("zigzag re-chunking leaves a rank over capacity")

    rings = tuple(RingGroup(members, tuple(sorted(ring_map[members])))
                  for members in sorted(ring_map, key=lambda members: (ring_kind(members, p), members)))
    return plan_from_rows(
        "zeppelin", batch, cluster, rows, rings,
        meta={
            "s1_restarts": inter.restarts,
            "s0_restarts": [a.restarts for a in intra],
            "reconcile_attempts": 0,
        },
        s1=inter.s1,
        s0_per_node=[a.s0 for a in intra],
    )


def _add_ring_sequence(
    ring_map: dict[tuple[int, ...], list[int]],
    members: tuple[int, ...],
    sid: int,
    length: int,
    rows: list[int],
    running: list[int],
    gpus_per_node: int,
) -> None:
    ranges = ranges_from_sizes(balanced_zigzag_sizes(length, [running[r] for r in members]))
    spanned_nodes = {rank // gpus_per_node for rank, rs in zip(members, ranges) if rs}
    if len(spanned_nodes) == 1 and ring_kind(members, gpus_per_node) == INTER_NODE:
        # too short to genuinely cross nodes: run it on a node-local ring
        node = spanned_nodes.pop()
        node_members = tuple(r for r in members if r // gpus_per_node == node)
        _add_ring_sequence(ring_map, node_members, sid, length, rows, running, gpus_per_node)
        return
    ring_map.setdefault(members, []).append(sid)
    for rank, rank_ranges in zip(members, ranges):
        for start, end in rank_ranges:
            rows += (rank, 0, sid, start, end)
            running[rank] += end - start


def validate_plan(plan: PlacementPlan, batch: SequenceBatch, cluster: ClusterSpec) -> None:
    """Internal invariant guard: token conservation, disjoint full coverage of
    every sequence, per-phase capacity, and the layout `build_schedule`
    reads: each ringed sequence rides one ring of distinct ranks, with every
    fragment at micro-batch 0 on a member, and every other sequence is one
    fragment at micro-batch 0 or later. Zones and ring kinds need no check:
    they are read off the placement and the members."""
    lengths = batch.lengths
    if set(plan.sequence_lengths) != set(lengths):
        raise PlanValidationError("plan covers a different sequence id set than the batch")
    if plan.total_tokens() != batch.total_tokens:
        raise PlanValidationError("token conservation violated")
    ringed: set[int] = set()
    for ring in plan.ring_groups:
        members = set(ring.members)
        if len(members) != ring.group_size or min(members) < 0 or max(members) >= plan.num_ranks:
            raise PlanValidationError("ring members are not distinct ranks of the plan")
        for sid in ring.sequence_ids:
            if sid not in lengths:
                raise PlanValidationError(f"a ring carries sequence {sid}, which the batch lacks")
            if sid in ringed:
                raise PlanValidationError(f"sequence {sid} rides two rings")
            ringed.add(sid)
    table = plan.placement
    # a phase is one micro-batch of one rank: rows run by phase, so each is one group
    phases = _group_starts(table[:, 0], table[:, 1])
    over = phases[np.add.reduceat(table[:, 4] - table[:, 3], phases) > cluster.token_capacity]
    # the plan's ids are the batch's, so `seq` indexes the batch's sorted
    # ids, n when the batch lacks a row's sequence; per-sequence arrays get
    # an entry n to match. After the ring checks above, `ring` names the
    # one ring a sequence rides
    view = plan.by_sequence
    _, mb, sid, start, end = view.rows.T
    seq, ring = view.seq, view.ring
    head = np.ones(len(sid), dtype=bool)
    np.not_equal(sid[1:], sid[:-1], out=head[1:])
    ids = sorted(lengths)
    n = len(ids)
    # fault classes in a fixed order, each naming its first offender in
    # (sequence, start) order
    off_ring = (ring >= 0) & ((mb != 0) | (view.place < 0))
    for fault, message in ((seq == n, "a fragment holds sequence {}, which the batch lacks"),
                           (off_ring, "sequence {} has a fragment off its ring's micro-batch 0"),
                           (mb < 0, "sequence {} has a fragment at a negative micro-batch")):
        if np.count_nonzero(fault):
            raise PlanValidationError(message.format(sid[fault.argmax()]))
    if len(over):
        raise PlanValidationError(f"rank {table[over[0], 0]} exceeds token capacity")
    # a sequence's ranges by start tile [0, length); once they do, their
    # tokens add up to its length exactly when they cover it. Only a ringed
    # sequence may hold more than one: local kernels compute each alone
    reached = np.empty_like(end)
    reached[1:] = end[:-1]
    reached[head] = 0
    untiled = (start != reached) | (end <= start)
    if np.count_nonzero(untiled):
        first = sid[untiled.argmax()]
        raise PlanValidationError(f"sequence {first} fragments do not tile [0, {lengths[first]})")
    covered = np.bincount(seq, weights=end - start, minlength=n + 1)[:n]
    uncovered = covered != np.fromiter(map(lengths.get, ids), dtype=np.int64, count=n)
    if np.count_nonzero(uncovered):
        raise PlanValidationError(f"sequence {ids[uncovered.argmax()]} fragments do not cover its length")
    split = ~head & (ring < 0)
    if np.count_nonzero(split):
        raise PlanValidationError(f"sequence {sid[split.argmax()]} is split but rides no ring")


PLAN_FORMAT = 3
# the keys of a plan file, in the order plan_to_json fills them; each ring
# entry holds a RingGroup's fields
_PLAN_KEYS = ("format", "strategy", "num_nodes", "gpus_per_node", "s1", "s0_per_node",
              "sequence_lengths", "placement", "rings", "meta")
_RING_KEYS = frozenset(f.name for f in fields(RingGroup))


def plan_to_json(plan: PlacementPlan) -> str:
    """The plan file: the planner's decisions, its placement table and each
    ring's members and sequences, beside the topology, thresholds, sequence
    lengths and meta. Zones, buckets and ring layouts are read off the table
    after loading."""
    values = (PLAN_FORMAT, plan.strategy, plan.num_nodes, plan.gpus_per_node, plan.s1, plan.s0_per_node,
              sorted(plan.sequence_lengths.items()), plan.placement.tolist(), list(map(vars, plan.ring_groups)),
              plan.meta)
    # no indent: json then writes with its C encoder
    return json.dumps(dict(zip(_PLAN_KEYS, values, strict=True)), sort_keys=True)


def _check_keys(found, expected) -> None:
    missing, unknown = expected - found, found - expected
    if missing or unknown:
        raise ValueError("malformed plan file: " + ", ".join(
            f"{what} keys {sorted(keys)}" for what, keys in (("missing", missing), ("unknown", unknown)) if keys))


def plan_from_json(text: str) -> PlacementPlan:
    """Read a file plan_to_json wrote. Any other format, and any key that is
    missing, unknown or holds the wrong type, raises ValueError."""
    payload = json.loads(text)
    version = payload.get("format") if type(payload) is dict else None
    if type(version) is not int or version != PLAN_FORMAT:
        raise ValueError(f"not a format-{PLAN_FORMAT} plan file; write it afresh with `varlenplan plan`")
    _check_keys(payload.keys(), set(_PLAN_KEYS))
    rows, pairs, entries = payload["placement"], payload["sequence_lengths"], payload["rings"]
    s0, meta = payload["s0_per_node"], payload["meta"]
    if type(s0) is not list:
        raise ValueError("plan file's s0_per_node must be a list")
    if type(entries) is not list or any(type(entry) is not dict for entry in entries):
        raise ValueError("malformed plan file: rings must be a list of objects")
    for entry in entries:
        _check_keys(entry.keys(), _RING_KEYS)
    lists = [rows, pairs] + [v for entry in entries for v in entry.values()]
    if any(type(v) is not list for v in lists) or (type(meta), type(payload["strategy"])) != (dict, str):
        raise ValueError("malformed plan file: placement, sequence_lengths, rings' members and "
                         "sequence_ids must be lists, meta an object and strategy a string")
    if any(type(row) is not list or len(row) != 5 for row in rows):
        raise ValueError("plan file's placement rows must be lists of 5 integers")
    if any(type(pair) is not list or len(pair) != 2 for pair in pairs):
        raise ValueError("plan file's sequence_lengths must be [id, length] pairs")
    rings = tuple(RingGroup(**{key: tuple(v) for key, v in entry.items()}) for entry in entries)
    header = {key: payload[key] for key in ("strategy", "num_nodes", "gpus_per_node", "s1")}
    # json gives int for integers only; bool is not one. Checked before
    # numpy, which would quietly turn 0.5 and False into 0
    integers = itertools.chain(*rows, *pairs, *(ring.members + ring.sequence_ids for ring in rings),
                               [header[key] for key in ("num_nodes", "gpus_per_node", "s1")], s0)
    if set(map(type, integers)) != {int}:
        raise ValueError("plan file's topology, thresholds, sequence ids, lengths, placement rows "
                         "and ring members must be integers")
    lengths = dict(pairs)
    if len(lengths) != len(pairs):
        raise ValueError("plan file's sequence_lengths repeat a sequence id")
    if len(s0) != header["num_nodes"]:
        raise ValueError(f"plan file lists {len(s0)} s0 thresholds for {header['num_nodes']} nodes")
    n_ranks = header["num_nodes"] * header["gpus_per_node"]
    for ring in rings:
        if not all(m in range(n_ranks) for m in ring.members):
            raise ValueError(f"plan file's ring members {list(ring.members)} are not ranks 0..{n_ranks - 1}")
    try:
        return PlacementPlan(**header, s0_per_node=s0, sequence_lengths=lengths, placement=rows,
                             ring_groups=rings, meta=meta)
    except OverflowError:
        raise ValueError("plan file's integers must fit in 64 bits") from None


def save_plan(path: str, plan: PlacementPlan) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(plan_to_json(plan))
        fh.write("\n")


def load_plan(path: str) -> PlacementPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_json(fh.read())


def batch_from_plan(plan: PlacementPlan) -> SequenceBatch:
    return SequenceBatch(tuple(sorted(plan.sequence_lengths.items())))
