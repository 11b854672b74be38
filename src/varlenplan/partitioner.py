"""Two-level hierarchical sequence partitioning.

Level one assigns sequences (chunking the longest ones) to node buckets so
inter-node communication stays bounded; level two spreads each node bucket
over its devices, splitting medium sequences to balance quadratic attention
work. Both levels iteratively lower their zone threshold whenever a whole
sequence fails to fit, which guarantees every sequence below the final
threshold is placeable.

When the greedy levels cannot place a batch (a chunked sequence finds no
fitting buckets, a threshold refinement does not converge, or zigzag
re-chunking leaves a rank over capacity), build_plan falls back to the even
zigzag split over one global ring. That layout keeps every rank within one
token of total/R, so it fits whenever the batch total does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .attention_engine import (
    INTER_NODE,
    INTRA_NODE,
    LOCAL,
    RingGroup,
    balanced_zigzag_sizes,
    contiguous_ranges,
    ranges_from_sizes,
    ring_ranges,
    split_even,
)
from .topology import ClusterSpec
from .workload import SequenceBatch


class InfeasibleBatch(RuntimeError):
    """The batch cannot be placed within the cluster's token capacity."""


class PlanValidationError(RuntimeError):
    """Internal consistency check failed while assembling a plan (bug guard)."""


@dataclass(frozen=True)
class Fragment:
    """A contiguous token range of one sequence resident on one rank.

    micro_batch 0 is the (single) attention phase; hybrid data-parallel plans
    use indices >= 1 for sequentially executed short-sequence micro-batches.
    """

    sequence_id: int
    start: int
    end: int
    rank: int
    micro_batch: int = 0

    @property
    def tokens(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class NodeChunk:
    sequence_id: int
    start: int
    end: int

    @property
    def tokens(self) -> int:
        return self.end - self.start


@dataclass
class NodeBucket:
    """One node's share after inter-node partitioning: chunks of sequences
    that span several nodes plus whole sequences owned by this node."""

    chunks: list[NodeChunk] = field(default_factory=list)
    own: list[tuple[int, int]] = field(default_factory=list)

    @property
    def tokens(self) -> int:
        return sum(c.tokens for c in self.chunks) + sum(ln for _, ln in self.own)


@dataclass
class InterNodeAssignment:
    buckets: list[NodeBucket]
    s1: int
    restarts: int


@dataclass(frozen=True)
class DeviceEntry:
    sequence_id: int
    start: int
    end: int
    kind: str  # "chunk_part" | "split" | "whole"

    @property
    def tokens(self) -> int:
        return self.end - self.start


@dataclass
class IntraNodeAssignment:
    devices: list[list[DeviceEntry]]
    s0: int
    restarts: int


@dataclass
class PlacementPlan:
    """What a planner decided: where each fragment lands and which rings
    carry them. Zones, per-node buckets, per-rank token totals and
    micro-batch counts follow from the fragments; they are derived on first
    read and cached, so a plan's fragments must not change once it is built."""

    strategy: str
    num_nodes: int
    gpus_per_node: int
    s1: int
    s0_per_node: list[int]
    sequence_lengths: dict[int, int]
    fragments: list[list[Fragment]]  # per rank, the device buckets
    ring_groups: tuple[RingGroup, ...]
    meta: dict

    @property
    def num_ranks(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def total_tokens(self) -> int:
        return sum(self.tokens_per_rank)

    @cached_property
    def tokens_per_rank(self) -> list[int]:
        return [sum(f.tokens for f in frags) for frags in self.fragments]

    @cached_property
    def micro_batch_counts(self) -> list[int]:
        """Per rank, its largest micro-batch index, and at least 1."""
        return [max([1, *(f.micro_batch for f in frags)]) for frags in self.fragments]

    @cached_property
    def zone_of(self) -> dict[int, str]:
        """Each placed sequence's zone: inter-node when its fragments span two
        or more nodes, intra-node when they span two or more ranks of one
        node, local otherwise."""
        ranks_of: dict[int, set[int]] = {}
        for rank, frags in enumerate(self.fragments):
            for frag in frags:
                ranks_of.setdefault(frag.sequence_id, set()).add(rank)
        p = self.gpus_per_node
        return {
            sid: INTER_NODE if len({r // p for r in ranks}) >= 2 else INTRA_NODE if len(ranks) >= 2 else LOCAL
            for sid, ranks in ranks_of.items()
        }

    @cached_property
    def node_buckets(self) -> list[list[tuple[int, int]]]:
        """Per node, the (sequence_id, tokens) its ranks hold, by sequence id."""
        totals: list[dict[int, int]] = [{} for _ in range(self.num_nodes)]
        for rank, frags in enumerate(self.fragments):
            node = totals[rank // self.gpus_per_node]
            for frag in frags:
                node[frag.sequence_id] = node.get(frag.sequence_id, 0) + frag.tokens
        return [sorted(node.items()) for node in totals]


def _sorted_desc(batch: SequenceBatch) -> list[tuple[int, int]]:
    return sorted(batch.sequences, key=lambda t: (-t[1], t[0]))


def partition_inter_node(batch: SequenceBatch, cluster: ClusterSpec) -> InterNodeAssignment:
    """Assign sequences to node buckets.

    Sequences at or above the running threshold s1 are split evenly into
    ceil(len/s_avg) chunks placed on distinct least-loaded buckets; shorter
    sequences go whole to the least-loaded bucket. When a whole sequence
    would exceed the per-node budget P*L, s1 drops to the longest remaining
    whole sequence and placement restarts. A chunked sequence that fits no
    set of buckets raises InfeasibleBatch (build_plan then falls back to the
    even split).
    """
    n_nodes = cluster.num_nodes
    node_cap = cluster.gpus_per_node * cluster.token_capacity
    order = _sorted_desc(batch)
    total = sum(ln for _, ln in order)
    if total > n_nodes * node_cap:
        raise InfeasibleBatch(
            f"batch of {total} tokens exceeds cluster capacity {n_nodes * node_cap}"
        )
    s1 = node_cap
    restarts = 0
    max_restarts = len(order) + 1
    while True:
        buckets = [NodeBucket() for _ in range(n_nodes)]
        loads = [0] * n_nodes
        z2 = [(sid, ln) for sid, ln in order if ln >= s1]
        z01 = [(sid, ln) for sid, ln in order if ln < s1]
        total_z2 = sum(ln for _, ln in z2)
        for sid, ln in z2:
            # ceil(len / s_avg) with s_avg = total_z2 / N, in exact integers
            k0 = max(1, -(-ln * n_nodes // total_z2))
            if not _place_chunks(sid, ln, k0, buckets, loads, node_cap):
                raise InfeasibleBatch(f"sequence {sid} cannot be chunked across nodes")
        restart = False
        for sid, ln in z01:
            idx = min(range(n_nodes), key=lambda i: (loads[i], i))
            if ln + loads[idx] > node_cap:
                s1 = max(length for _, length in z01)
                restarts += 1
                restart = True
                break
            buckets[idx].own.append((sid, ln))
            loads[idx] += ln
        if not restart:
            return InterNodeAssignment(buckets=buckets, s1=s1, restarts=restarts)
        if restarts > max_restarts:
            raise InfeasibleBatch("node threshold refinement did not converge")


def _place_chunks(
    sid: int,
    length: int,
    k_init: int,
    buckets: list[NodeBucket],
    loads: list[int],
    node_cap: int,
) -> bool:
    """Place one sequence as k contiguous chunks on k distinct buckets, largest
    chunk to the least-loaded fitting bucket. Retries with more chunks when a
    placement does not fit; mutates buckets/loads only on success and returns
    whether any chunk count fit."""
    n = len(buckets)
    for k in range(min(k_init, n), n + 1):
        sizes = split_even(length, k)
        ranges = contiguous_ranges(sizes)
        by_load = sorted(range(n), key=lambda i: (loads[i], i))
        chosen: list[int] = []
        used: set[int] = set()
        trial = list(loads)
        ok = True
        for size in sizes:
            target = next(
                (i for i in by_load if i not in used and trial[i] + size <= node_cap),
                None,
            )
            if target is None:
                ok = False
                break
            chosen.append(target)
            used.add(target)
            trial[target] += size
        if not ok:
            continue
        for (start, end), idx in zip(ranges, chosen):
            if end > start:
                buckets[idx].chunks.append(NodeChunk(sequence_id=sid, start=start, end=end))
                loads[idx] += end - start
        return True
    return False


def partition_intra_node(node: NodeBucket, cluster: ClusterSpec) -> IntraNodeAssignment:
    """Spread one node bucket over its P devices.

    Inter-node chunks are split evenly across all devices. Among the node's
    own sequences, those at or above the running threshold s0 split into
    ceil(len^2/c_avg) equal fragments assigned round-robin (continuing from
    the previous sequence's last device, skipping devices they do not fit);
    shorter ones go whole to the least-loaded device, lowering s0 and
    restarting on overflow. A split sequence that fits no set of devices
    raises InfeasibleBatch.
    """
    p = cluster.gpus_per_node
    cap = cluster.token_capacity
    own = sorted(node.own, key=lambda t: (-t[1], t[0]))
    s0 = cap
    restarts = 0
    max_restarts = len(own) + 1
    while True:
        devices: list[list[DeviceEntry]] = [[] for _ in range(p)]
        loads = [0] * p
        for chunk in node.chunks:
            sizes = split_even(chunk.tokens, p)
            for dev, (start, end) in enumerate(contiguous_ranges(sizes, offset=chunk.start)):
                if end > start:
                    devices[dev].append(DeviceEntry(chunk.sequence_id, start, end, "chunk_part"))
                    loads[dev] += end - start
        z1 = [(sid, ln) for sid, ln in own if ln >= s0]
        z0 = [(sid, ln) for sid, ln in own if ln < s0]
        sq_total = sum(ln * ln for _, ln in z1)
        cursor = 0
        for sid, ln in z1:
            k0 = max(1, -(-ln * ln * p // sq_total))
            cursor = _place_split(sid, ln, k0, cursor, devices, loads, cap)
            if cursor < 0:
                raise InfeasibleBatch(f"sequence {sid} cannot be split within the node")
        restart = False
        for sid, ln in z0:
            idx = min(range(p), key=lambda i: (loads[i], i))
            if ln + loads[idx] > cap:
                s0 = max(length for _, length in z0)
                restarts += 1
                restart = True
                break
            devices[idx].append(DeviceEntry(sid, 0, ln, "whole"))
            loads[idx] += ln
        if not restart:
            return IntraNodeAssignment(devices=devices, s0=s0, restarts=restarts)
        if restarts > max_restarts:
            raise InfeasibleBatch("device threshold refinement did not converge")


def _place_split(
    sid: int,
    length: int,
    k_init: int,
    cursor: int,
    devices: list[list[DeviceEntry]],
    loads: list[int],
    cap: int,
) -> int:
    """Round-robin fragment placement with fit skipping; returns the next
    cursor, or -1 when the sequence cannot be placed at any k."""
    p = len(devices)
    for k in range(min(k_init, p), p + 1):
        sizes = split_even(length, k)
        ranges = contiguous_ranges(sizes)
        chosen: list[int] = []
        used: set[int] = set()
        trial = list(loads)
        pos = cursor
        ok = True
        for size in sizes:
            target = None
            for step in range(p):
                d = (pos + step) % p
                if d in used:
                    continue
                if trial[d] + size <= cap:
                    target = d
                    break
            if target is None:
                ok = False
                break
            chosen.append(target)
            used.add(target)
            trial[target] += size
            pos = (target + 1) % p
        if not ok:
            continue
        for (start, end), dev in zip(ranges, chosen):
            if end > start:
                devices[dev].append(DeviceEntry(sid, start, end, "split"))
                loads[dev] += end - start
        return (chosen[-1] + 1) % p
    return -1


def build_plan(batch: SequenceBatch, cluster: ClusterSpec) -> PlacementPlan:
    """Run both partitioning levels, form ring groups with zigzag chunk
    layouts and validate the plan.

    Zigzag re-chunking can shift a rank's token count by a token or two
    relative to the even-split accounting the levels used. When a level
    cannot place the batch, or a rank ends up over capacity, the batch takes
    the even zigzag split over one global ring instead; meta
    "reconcile_attempts" is 1 for such a plan and 0 otherwise.
    """
    try:
        inter = partition_inter_node(batch, cluster)
        intra = [partition_intra_node(bucket, cluster) for bucket in inter.buckets]
        plan = _assemble_plan(batch, cluster, inter, intra)
    except InfeasibleBatch:
        plan = even_zigzag_plan(batch, cluster, "zeppelin")
        plan.meta = {"s1_restarts": 0, "s0_restarts": [0] * cluster.num_nodes, "reconcile_attempts": 1}
    validate_plan(plan, batch, cluster)
    return plan


def plan_from_fragments(
    strategy: str,
    batch: SequenceBatch,
    cluster: ClusterSpec,
    fragments: list[list[Fragment]],
    ring_groups: tuple[RingGroup, ...],
    meta: dict,
    s1: int = 0,
    s0_per_node: list[int] | None = None,
) -> PlacementPlan:
    """Sort each rank's fragments into execution order and wrap them in a plan."""
    for frags in fragments:
        frags.sort(key=lambda f: (f.micro_batch, f.sequence_id, f.start))
    return PlacementPlan(
        strategy=strategy,
        num_nodes=cluster.num_nodes,
        gpus_per_node=cluster.gpus_per_node,
        s1=s1,
        s0_per_node=[0] * cluster.num_nodes if s0_per_node is None else s0_per_node,
        sequence_lengths=batch.lengths,
        fragments=fragments,
        ring_groups=ring_groups,
        meta=meta,
    )


def lay_out_global_ring(
    sequences: list[tuple[int, int]],
    cluster: ClusterSpec,
) -> tuple[list[list[Fragment]], tuple[RingGroup, ...]]:
    """Zigzag-split each (sequence_id, length), in order, over all ranks,
    leftover tokens to the lightest ranks. Returns the per-rank fragments and
    the one global ring that carries them all."""
    n_ranks = cluster.num_ranks
    if n_ranks == 1:
        return [[Fragment(sid, 0, length, 0) for sid, length in sequences]], ()
    fragments: list[list[Fragment]] = [[] for _ in range(n_ranks)]
    running = [0] * n_ranks
    for sid, length in sequences:
        for position, pos_ranges in enumerate(ranges_from_sizes(balanced_zigzag_sizes(length, n_ranks, running))):
            for start, end in pos_ranges:
                fragments[position].append(Fragment(sid, start, end, position))
                running[position] += end - start
    if not sequences:
        return fragments, ()
    # every sequence's KV rides the global ring, even the ones whose queries
    # fit on a single rank: that is the even split's overhead
    kind = INTER_NODE if cluster.num_nodes > 1 else INTRA_NODE
    return fragments, (RingGroup(kind, tuple(range(n_ranks)), tuple(sid for sid, _ in sequences)),)


def even_zigzag_plan(batch: SequenceBatch, cluster: ClusterSpec, strategy: str) -> PlacementPlan:
    """Every sequence zigzag-split over all ranks on one global ring. Each
    rank's load stays within one token of total/R, so the plan fits exactly
    when the batch total fits the cluster."""
    cap = cluster.num_ranks * cluster.token_capacity
    if batch.total_tokens > cap:
        raise InfeasibleBatch(f"batch of {batch.total_tokens} tokens exceeds cluster capacity {cap}")
    fragments, rings = lay_out_global_ring(sorted(batch.sequences), cluster)
    return plan_from_fragments(strategy, batch, cluster, fragments, rings, meta={})


def _assemble_plan(
    batch: SequenceBatch,
    cluster: ClusterSpec,
    inter: InterNodeAssignment,
    intra: list[IntraNodeAssignment],
) -> PlacementPlan:
    lengths = batch.lengths
    p = cluster.gpus_per_node
    fragments: list[list[Fragment]] = [[] for _ in range(cluster.num_ranks)]

    chunk_nodes: dict[int, list[int]] = {}
    for n, bucket in enumerate(inter.buckets):
        for chunk in bucket.chunks:
            chunk_nodes.setdefault(chunk.sequence_id, []).append(n)

    # fixed single-rank placements first, then ring layouts so their leftover
    # tokens can chase the lightest ranks
    ring_jobs: list[tuple[str, tuple[int, ...], int, int]] = []
    for sid, nodes in sorted(chunk_nodes.items()):
        length = lengths[sid]
        spanned = sorted(set(nodes))
        if len(spanned) >= 2:
            members = tuple(r for node in spanned for r in cluster.ranks_of_node(node))
            ring_jobs.append((INTER_NODE, members, sid, length))
        elif p >= 2:
            ring_jobs.append((INTRA_NODE, tuple(cluster.ranks_of_node(spanned[0])), sid, length))
        else:
            rank = spanned[0] * p
            fragments[rank].append(Fragment(sid, 0, length, rank))

    for n, assignment in enumerate(intra):
        by_seq: dict[int, list[int]] = {}
        for dev, entries in enumerate(assignment.devices):
            for entry in entries:
                if entry.kind == "chunk_part":
                    continue  # covered by the chunk handling above
                by_seq.setdefault(entry.sequence_id, []).append(dev)
        for sid, devs in sorted(by_seq.items()):
            length = lengths[sid]
            devs = sorted(set(devs))
            if len(devs) >= 2:
                ring_jobs.append((INTRA_NODE, tuple(n * p + d for d in devs), sid, length))
            else:
                rank = n * p + devs[0]
                fragments[rank].append(Fragment(sid, 0, length, rank))

    running = [sum(f.tokens for f in frags) for frags in fragments]
    ring_map: dict[tuple[str, tuple[int, ...]], list[int]] = {}
    # lay out the narrowest rings first: sequences confined to few ranks have
    # the least placement freedom, while wide rings spread within +/- 1 token
    # anywhere and so plug the remaining gaps best
    ring_jobs.sort(key=lambda job: (len(job[1]), job[1], job[2]))
    for kind, members, sid, length in ring_jobs:
        _add_ring_sequence(ring_map, kind, members, sid, length, fragments, running, p)
    if max(running) > cluster.token_capacity:
        raise InfeasibleBatch("zigzag re-chunking leaves a rank over capacity")

    rings = tuple(RingGroup(kind, members, tuple(sorted(sids))) for (kind, members), sids in sorted(ring_map.items()))
    return plan_from_fragments(
        "zeppelin", batch, cluster, fragments, rings,
        meta={
            "s1_restarts": inter.restarts,
            "s0_restarts": [a.restarts for a in intra],
            "reconcile_attempts": 0,
        },
        s1=inter.s1,
        s0_per_node=[a.s0 for a in intra],
    )


def _add_ring_sequence(
    ring_map: dict,
    kind: str,
    members: tuple[int, ...],
    sid: int,
    length: int,
    fragments: list[list[Fragment]],
    running: list[int],
    gpus_per_node: int,
) -> None:
    g = len(members)
    sizes = balanced_zigzag_sizes(length, g, [running[r] for r in members])
    ranges = ranges_from_sizes(sizes)
    spanned = [i for i, rs in enumerate(ranges) if rs]
    spanned_ranks = {members[i] for i in spanned}
    if len(spanned_ranks) < 2:
        # too short to actually occupy several ranks: keep it local
        rank = members[spanned[0]] if spanned else members[0]
        fragments[rank].append(Fragment(sid, 0, length, rank))
        running[rank] += length
        return
    spanned_nodes = {r // gpus_per_node for r in spanned_ranks}
    if kind == INTER_NODE and len(spanned_nodes) == 1:
        # too short to genuinely cross nodes: run it on a node-local ring
        node = spanned_nodes.pop()
        node_members = tuple(r for r in members if r // gpus_per_node == node)
        _add_ring_sequence(ring_map, INTRA_NODE, node_members, sid, length, fragments, running, gpus_per_node)
        return
    ring_map.setdefault((kind, members), []).append(sid)
    for position, rank in enumerate(members):
        for start, end in ranges[position]:
            fragments[rank].append(Fragment(sid, start, end, rank))
            running[rank] += end - start


def validate_plan(plan: PlacementPlan, batch: SequenceBatch, cluster: ClusterSpec) -> None:
    """Internal invariant guard: token conservation, disjoint full coverage of
    every sequence, per-phase capacity, ring kinds that match the nodes their
    members sit on, and the layout `ring_ranges` reads: each ringed sequence
    rides one ring of distinct ranks, with every fragment at micro-batch 0 on
    a member, and every other sequence is one fragment. Zones need no check:
    they are read off placement."""
    lengths = batch.lengths
    if set(plan.sequence_lengths) != set(lengths):
        raise PlanValidationError("plan covers a different sequence id set than the batch")
    if plan.total_tokens() != batch.total_tokens:
        raise PlanValidationError("token conservation violated")
    members_of: dict[int, set[int]] = {}
    for ring in plan.ring_groups:
        members = set(ring.members)
        if len(members) != ring.group_size or min(members) < 0 or max(members) >= plan.num_ranks:
            raise PlanValidationError("ring members are not distinct ranks of the plan")
        nodes = {r // cluster.gpus_per_node for r in members}
        if ring.kind == INTER_NODE and len(nodes) < 2:
            raise PlanValidationError("inter-node ring does not span nodes")
        if ring.kind == INTRA_NODE and len(nodes) != 1:
            raise PlanValidationError("intra-node ring crosses nodes")
        for sid in ring.sequence_ids:
            if sid not in lengths:
                raise PlanValidationError(f"a ring carries sequence {sid}, which the batch lacks")
            if sid in members_of:
                raise PlanValidationError(f"sequence {sid} rides two rings")
            members_of[sid] = members
    cap = cluster.token_capacity
    per_seq: dict[int, list[tuple[int, int]]] = {sid: [] for sid in lengths}
    for rank, frags in enumerate(plan.fragments):
        per_mb: dict[int, int] = {}
        for frag in frags:
            if frag.rank != rank:
                raise PlanValidationError("fragment filed under the wrong rank")
            sid, mb = frag.sequence_id, frag.micro_batch
            members = members_of.get(sid)
            if members is not None and (mb or rank not in members):
                raise PlanValidationError(f"sequence {sid} has a fragment off its ring's micro-batch 0")
            try:
                per_seq[sid].append((frag.start, frag.end))
            except KeyError:
                raise PlanValidationError(f"a fragment holds sequence {sid}, which the batch lacks") from None
            per_mb[mb] = per_mb.get(mb, 0) + frag.end - frag.start
        if any(v > cap for v in per_mb.values()):
            raise PlanValidationError(f"rank {rank} exceeds token capacity")
    for sid, ranges in per_seq.items():
        ranges.sort()
        pos = 0
        for start, end in ranges:
            if start != pos or end <= start:
                raise PlanValidationError(f"sequence {sid} fragments do not tile [0, {lengths[sid]})")
            pos = end
        if pos != lengths[sid]:
            raise PlanValidationError(f"sequence {sid} fragments do not cover its length")
        if len(ranges) > 1 and sid not in members_of:
            # local kernels compute each fragment alone
            raise PlanValidationError(f"sequence {sid} is split but rides no ring")


def plan_to_json(plan: PlacementPlan) -> str:
    payload = {
        "strategy": plan.strategy,
        "num_nodes": plan.num_nodes,
        "gpus_per_node": plan.gpus_per_node,
        "s1": plan.s1,
        "s0_per_node": plan.s0_per_node,
        "zones": {str(sid): zone for sid, zone in sorted(plan.zone_of.items())},
        "sequence_lengths": {str(sid): ln for sid, ln in sorted(plan.sequence_lengths.items())},
        "node_buckets": [[[sid, tok] for sid, tok in bucket] for bucket in plan.node_buckets],
        "ranks": [
            [{"sequence_id": f.sequence_id, "start": f.start, "end": f.end, "micro_batch": f.micro_batch}
             for f in frags]
            for frags in plan.fragments
        ],
        "rings": [
            {
                "kind": ring.kind,
                "members": list(ring.members),
                # written for readers of the file; the plan reads them off its fragments
                "sequences": [
                    {"sequence_id": sid, "ranges": [[list(r) for r in pos] for pos in by_position]}
                    for sid, by_position in zip(ring.sequence_ids, ring_ranges(ring, plan.fragments))
                ],
            }
            for ring in plan.ring_groups
        ],
        "micro_batch_counts": plan.micro_batch_counts,
        "meta": plan.meta,
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def plan_from_json(text: str) -> PlacementPlan:
    payload = json.loads(text)
    try:
        fragments = [
            [Fragment(e["sequence_id"], e["start"], e["end"], rank, e.get("micro_batch", 0)) for e in frags]
            for rank, frags in enumerate(payload["ranks"])
        ]
        rings = tuple(
            RingGroup(r["kind"], tuple(r["members"]), tuple(s["sequence_id"] for s in r["sequences"]))
            for r in payload["rings"]
        )
        plan = PlacementPlan(
            strategy=payload["strategy"],
            num_nodes=payload["num_nodes"],
            gpus_per_node=payload["gpus_per_node"],
            s1=payload["s1"],
            s0_per_node=list(payload["s0_per_node"]),
            sequence_lengths={int(k): v for k, v in payload["sequence_lengths"].items()},
            fragments=fragments,
            ring_groups=rings,
            meta=dict(payload.get("meta", {})),
        )
        if len(fragments) != plan.num_ranks:
            raise ValueError(f"plan file lists {len(fragments)} ranks for {plan.num_ranks} in its topology")
        # written for readers of the file; the plan derives them from its fragments
        stored = {
            "zones": ({int(k): v for k, v in payload["zones"].items()}, plan.zone_of),
            "node_buckets": ([[tuple(e) for e in bucket] for bucket in payload["node_buckets"]], plan.node_buckets),
            "micro_batch_counts": (list(payload["micro_batch_counts"]), plan.micro_batch_counts),
            "ring ranges": (
                [[[[tuple(x) for x in pos] for pos in s["ranges"]] for s in ring["sequences"]]
                 for ring in payload["rings"]],
                [ring_ranges(ring, fragments) for ring in rings],
            ),
        }
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed plan file: missing or invalid key ({exc})") from exc
    for key, (value, derived) in stored.items():
        if value != derived:
            raise ValueError(f"plan file's {key} disagree with its fragments")
    return plan


def save_plan(path: str, plan: PlacementPlan) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(plan_to_json(plan))
        fh.write("\n")


def load_plan(path: str) -> PlacementPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_json(fh.read())


def batch_from_plan(plan: PlacementPlan) -> SequenceBatch:
    return SequenceBatch(tuple(sorted(plan.sequence_lengths.items())))
