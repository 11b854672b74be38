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

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .attention_engine import (
    INTER_NODE,
    INTRA_NODE,
    LOCAL,
    RingGroup,
    balanced_zigzag_sizes,
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


# a fill's candidate bins for the next piece, from the loads and the previous piece's bin
Order = Callable[[list[int], int], list[int]]


def _least_loaded(loads: list[int], last: int) -> list[int]:
    """Bins by load, ties to the lowest index."""
    return sorted(range(len(loads)), key=loads.__getitem__)


def _round_robin(loads: list[int], last: int) -> list[int]:
    """Bins in cyclic order, starting after the previous piece's bin."""
    return [*range(last + 1, len(loads)), *range(last + 1)]


def _place_pieces(
    length: int, k_init: int, loads: list[int], cap: int, order: Order, last: int
) -> list[tuple[int, int]] | None:
    """Split one item evenly into k pieces on k distinct bins, each piece to
    the first bin in `order(loads, previous bin)` that it fits, trying k from
    k_init up to the bin count. Returns the (bin, tokens) pieces of the first
    k that fits, zero-token pieces included, or None when none does; `loads`
    is left alone."""
    n = len(loads)
    for k in range(min(k_init, n), n + 1):
        pieces: list[tuple[int, int]] = []
        used: set[int] = set()
        prev = last  # every k starts from the item's own cursor
        for size in split_even(length, k):
            prev = next((b for b in order(loads, prev) if b not in used and loads[b] + size <= cap), None)
            if prev is None:
                break
            used.add(prev)
            pieces.append((prev, size))
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
    bin seeds `order`. Shorter items go whole to the least-loaded bin. When
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
            b = min(range(len(trial)), key=trial.__getitem__)
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


def _ring_kind(members: tuple[int, ...], gpus_per_node: int) -> str:
    return INTER_NODE if len({r // gpus_per_node for r in members}) >= 2 else INTRA_NODE


def _assemble_plan(
    batch: SequenceBatch,
    cluster: ClusterSpec,
    inter: InterNodeAssignment,
    intra: list[IntraNodeAssignment],
) -> PlacementPlan:
    lengths = batch.lengths
    p = cluster.gpus_per_node
    fragments: list[list[Fragment]] = [[] for _ in range(cluster.num_ranks)]

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
            fragments[ranks[0]].append(Fragment(sid, 0, lengths[sid], ranks[0]))

    running = [sum(f.tokens for f in frags) for frags in fragments]
    ring_map: dict[tuple[int, ...], list[int]] = {}
    # lay out the narrowest rings first: sequences confined to few ranks have
    # the least placement freedom, while wide rings spread within +/- 1 token
    # anywhere and so plug the remaining gaps best
    ring_jobs.sort(key=lambda job: (len(job[0]), job))
    for members, sid in ring_jobs:
        _add_ring_sequence(ring_map, members, sid, lengths[sid], fragments, running, p)
    if max(running) > cluster.token_capacity:
        raise InfeasibleBatch("zigzag re-chunking leaves a rank over capacity")

    rings = tuple(sorted(
        (RingGroup(_ring_kind(members, p), members, tuple(sorted(sids))) for members, sids in ring_map.items()),
        key=lambda ring: (ring.kind, ring.members),
    ))
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
    ring_map: dict[tuple[int, ...], list[int]],
    members: tuple[int, ...],
    sid: int,
    length: int,
    fragments: list[list[Fragment]],
    running: list[int],
    gpus_per_node: int,
) -> None:
    ranges = ranges_from_sizes(balanced_zigzag_sizes(length, len(members), [running[r] for r in members]))
    spanned = [rank for rank, rs in zip(members, ranges) if rs]
    if len(spanned) < 2:
        # too short to actually occupy several ranks: keep it local
        rank = spanned[0] if spanned else members[0]
        fragments[rank].append(Fragment(sid, 0, length, rank))
        running[rank] += length
        return
    spanned_nodes = {r // gpus_per_node for r in spanned}
    if len(spanned_nodes) == 1 and _ring_kind(members, gpus_per_node) == INTER_NODE:
        # too short to genuinely cross nodes: run it on a node-local ring
        node = spanned_nodes.pop()
        node_members = tuple(r for r in members if r // gpus_per_node == node)
        _add_ring_sequence(ring_map, node_members, sid, length, fragments, running, gpus_per_node)
        return
    ring_map.setdefault(members, []).append(sid)
    for rank, rank_ranges in zip(members, ranges):
        for start, end in rank_ranges:
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
        # json gives int for integers only; bool is not one
        integers = [v for frags in fragments for f in frags for v in (f.sequence_id, f.start, f.end, f.micro_batch)]
        integers += [v for ring in rings for v in ring.members + ring.sequence_ids]
        if any(type(v) is not int for v in integers + list(plan.sequence_lengths.values())):
            raise ValueError("plan file's sequence ids, lengths, ranges, micro-batches and ring members must be integers")
        if len(fragments) != plan.num_ranks:
            raise ValueError(f"plan file lists {len(fragments)} ranks for {plan.num_ranks} in its topology")
        for ring in rings:
            # a negative member would read another rank's fragments
            if not all(m in range(len(fragments)) for m in ring.members):
                raise ValueError(f"plan file's ring members {list(ring.members)} are not ranks 0..{len(fragments) - 1}")
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
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
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
