"""Ring groups, zigzag causal chunking and per-rank attention schedules.

Work is accounted in exact visible (query, key) pairs under the causal mask
and communication in KV tokens; no tensor math happens here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .partitioner import PlacementPlan

INTER_NODE = "inter_node"
INTRA_NODE = "intra_node"
LOCAL = "local"


def split_even(total: int, parts: int) -> list[int]:
    """Maximally even integer split: the first (total mod parts) parts get
    ceil(total/parts) tokens, the rest floor(total/parts)."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    base, extra = divmod(total, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


def balanced_zigzag_sizes(seq_len: int, position_loads) -> list[int]:
    """Zigzag chunk sizes over G = len(position_loads) ring positions whose
    leftover tokens (seq_len mod 2G) go to the positions carrying the
    lightest current loads, ties to the lowest position.

    Every chunk stays within one token of seq_len/(2G), so the causal balance
    bound of the uniform rule is preserved, while stacking of leftovers from
    different sequences onto the same rank is avoided; capacity-tight plans
    rely on this.
    """
    g = len(position_loads)
    base, extra = divmod(seq_len, 2 * g)
    sizes = [base] * (2 * g)
    # leftovers fill the lightest positions' first chunks, then their second ones
    for place, i in enumerate(sorted(range(g), key=position_loads.__getitem__)):
        sizes[i] += place < extra
        sizes[2 * g - 1 - i] += place < extra - g
    return sizes


def ranges_from_sizes(sizes: list[int]) -> list[list[tuple[int, int]]]:
    """Per-position nonempty token ranges for explicit zigzag chunk sizes:
    of 2G contiguous chunks, ring position i holds chunks i and 2G-1-i,
    which equalizes causal pair counts across positions."""
    g = len(sizes) // 2
    bounds = list(itertools.accumulate(sizes, initial=0))
    chunks = list(zip(bounds, bounds[1:]))
    return [[(a, b) for a, b in (chunks[i], chunks[2 * g - 1 - i]) if b > a] for i in range(g)]


def ring_kind(members: tuple[int, ...], gpus_per_node: int) -> str:
    """Inter-node when the members sit on two or more nodes, intra-node
    otherwise: a ring's kind follows from its members alone (a rank's node
    rises with the rank, so its lowest and highest members' nodes tell)."""
    return INTER_NODE if min(members) // gpus_per_node != max(members) // gpus_per_node else INTRA_NODE


def causal_pairs(seq_len: int) -> int:
    """Pairs of a full lower-triangular mask: n*(n+1)/2."""
    return seq_len * (seq_len + 1) // 2


@dataclass(frozen=True)
class RingGroup:
    """A KV-rotation group: ordered member ranks plus the ids of the
    sequences whose KV travels the ring. Position i holds those sequences'
    micro-batch-0 fragments on rank members[i], in zigzag chunks
    (`build_schedule` rejects any other layout). Its kind is read off the
    members by `ring_kind`."""

    members: tuple[int, ...]
    sequence_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a ring needs at least 2 members")

    @property
    def group_size(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class RingSchedule:
    """A ring's work as matrices: in round r, position i computes against
    the KV set of position (i - r) mod G and sends that set onward.

    pairs[i, j] counts the causal pairs between the queries held at
    position i and the KV resident at position j (read-only int64 array);
    kv_sizes[j] is the KV tokens resident at position j.
    """

    ring: RingGroup
    pairs: np.ndarray
    kv_sizes: tuple[int, ...]

    @property
    def num_rounds(self) -> int:
        return self.ring.group_size


@dataclass(frozen=True)
class LocalTask:
    rank: int
    sequence_id: int
    compute_pairs: int


@dataclass(frozen=True)
class AttentionSchedule:
    """Per-rank execution queues: inter-node rings first, then intra-node
    rings, then local kernels. Each ring contributes exactly G rounds."""

    inter_rings: tuple[RingSchedule, ...]
    intra_rings: tuple[RingSchedule, ...]
    local_tasks: tuple[LocalTask, ...]

    def rings(self) -> tuple[RingSchedule, ...]:
        return self.inter_rings + self.intra_rings


def _ring_schedules(rings: "tuple[RingGroup, ...]", placement: np.ndarray,
                    gpus_per_node: int) -> tuple[list[RingSchedule], np.ndarray]:
    """Every ring's pair matrix and KV sizes from its zigzag chunk sizes,
    in order of ring size, and per row of the placement table whether its
    sequence rides one of the rings. Each sequence rides at most one ring,
    of distinct ranks, as `validate_plan` proves.

    Sorted by start, a ring sequence's micro-batch-0 ranges are its first
    chunks a_i while their positions i rise, and its second chunks b_i from
    the first step where they do not, so its tokens run a_0 .. a_(G-1),
    b_(G-1) .. b_0. (A second chunk after an empty first one may be read
    as a first chunk: the count depends only on the chunks' order.) With A
    and B the ring's (sequences x G) chunk sizes, queries at position i see
    KV at position j in M = tril(AᵀA, -1) + BᵀA + triu(BᵀB, 1), plus the
    ramps sum a(a+1)/2 + b(b+1)/2 on the diagonal; kv_sizes are the column
    sums of A + B. Rings of at most `gpus_per_node` members share one
    product, padded with zero positions to the widest (M[:G, :G] does not
    depend on later positions), wider rings one per size, all padded on the
    sequence axis. A sequence whose ranges overlap, or whose second chunks'
    positions do not strictly fall, raises ValueError naming the members.
    """
    if not rings:
        return [], np.zeros(len(placement), dtype=bool)
    rings = tuple(sorted(rings, key=lambda ring: len(ring.members)))
    sizes = [len(ring.members) for ring in rings]
    # ring k's positions are columns at[k] .. at[k] + G_k - 1 of the chunk
    # sizes, in a slot as wide as the widest of the first `narrow` rings,
    # which fit a node, or as its own width
    narrow = sum(g <= gpus_per_node for g in sizes)
    slot = [sizes[narrow - 1]] * narrow + sizes[narrow:]
    at = list(itertools.accumulate(slot, initial=0))
    # one (sequence id, ring, index in the ring) row per ring sequence, by
    # id, then a pad row that only ids beyond the last one are sent to
    keys = np.array([*sorted((sid, k, s) for k, ring in enumerate(rings) for s, sid in enumerate(ring.sequence_ids)),
                     (0, 0, 0)], dtype=np.int64)
    # each (ring k, rank) pair's column at k * width + rank, -1 off the ring;
    # the table runs by rank, so its last row holds the highest. A slot's
    # padding positions go to rank width - 1, which no row holds
    width = max(*(max(ring.members) for ring in rings), int(placement[-1, 0]) if len(placement) else 0) + 2
    column = np.full(len(rings) * width, -1)
    column[[k * width + m for k, ring in enumerate(rings)
            for m in ring.members + (width - 1,) * (slot[k] - sizes[k])]] = np.arange(at[-1])
    rank, mb, sid, start, end = placement.T
    hit = keys[:-1, 0].searchsorted(sid)
    ringed = (hit < len(keys) - 1) & (keys[hit, 0] == sid)
    ring_of, seq = keys[hit, 1], keys[hit, 2]
    column = column[ring_of * width + rank]
    # empty ranges hold no tokens; the rest by (ring, sequence, start)
    keep = (ringed & (mb == 0) & (column >= 0) & (start != end)).nonzero()[0]
    keep = keep[np.lexsort((start[keep], seq[keep], ring_of[keep]))]
    ring_of, seq, column, start, end = ring_of[keep], seq[keep], column[keep], start[keep], end[keep]
    same = (ring_of[1:] == ring_of[:-1]) & (seq[1:] == seq[:-1])
    head = np.ones(len(column), dtype=bool)
    head[1:] = ~same
    turn = np.zeros(len(column), dtype=bool)
    turn[1:] = same & (column[1:] <= column[:-1])
    # a row is a second chunk when its sequence has turned since its head:
    # the last head-or-turn mark at or before it is a turn (odd)
    second = np.maximum.accumulate(np.where(head | turn, 2 * np.arange(len(column)) + turn, 0)) & 1
    bad = end < start
    bad[1:] |= same & ((start[1:] < end[:-1]) | (((second[1:] & second[:-1]) == 1) & (column[1:] >= column[:-1])))
    if bad.any():
        ring = rings[ring_of[bad.argmax()]]
        raise ValueError(f"ring {list(ring.members)}: sequence {ring.sequence_ids[seq[bad.argmax()]]} is not laid "
                         "out in zigzag chunks (ranges overlap, or second chunks' positions do not strictly fall)")
    chunks = np.zeros((max((len(ring.sequence_ids) for ring in rings), default=0), 2, at[-1]), dtype=np.int64)
    chunks[seq, second, column] = end - start
    kv_sizes = chunks.sum(axis=(0, 1)).tolist()
    ramps = (chunks * (chunks + 1) // 2).sum(axis=(0, 1))
    out = []
    for w, group in itertools.groupby(range(len(rings)), key=slot.__getitem__):
        ks = list(group)
        lo, n = at[ks[0]], len(ks)
        c = chunks[:, :, lo:lo + n * w].reshape(len(chunks), 2, n, w)
        p = np.einsum("suni,svnj->nuivj", c, c)
        below = np.arange(w)[:, None] > np.arange(w)
        # BᵀA, plus AᵀA below the diagonal and BᵀB above it
        pairs = p[:, 1, :, 0] + below * p[:, 0, :, 0] + below.T * p[:, 1, :, 1]
        pairs.reshape(n, w * w)[:, ::w + 1] += ramps[lo:lo + n * w].reshape(n, w)
        pairs.setflags(write=False)
        out += [RingSchedule(ring=rings[k], pairs=m[:g, :g], kv_sizes=tuple(kv_sizes[at[k]:at[k] + g]))
                for k, m, g in zip(ks, pairs, sizes[ks[0]:])]
    return out, ringed


def build_schedule(plan: "PlacementPlan") -> AttentionSchedule:
    """Turn a placement plan into per-rank queues of ring rounds and local
    kernels. KV rotates one position per round (position i sends to i+1 and
    receives from i-1), for G rounds per ring so every position sees every
    KV set and the layout returns home for the backward pass."""
    scheds, ringed = _ring_schedules(plan.ring_groups, plan.placement, plan.gpus_per_node)
    inter, intra = [], []
    for sched in scheds:
        (inter if ring_kind(sched.ring.members, plan.gpus_per_node) == INTER_NODE else intra).append(sched)
    # a sequence a ring carries is computed in its rounds, even when all of
    # its tokens sit on one rank (a one-token sequence on te_cp's global ring)
    rows = plan.placement[(plan.placement[:, 1] > 0) | ~ringed]
    rows = rows[np.lexsort((rows[:, 2], rows[:, 0]))]
    pairs = causal_pairs(rows[:, 4] - rows[:, 3]).tolist()
    local = [LocalTask(rank=rank, sequence_id=sid, compute_pairs=n)
             for rank, sid, n in zip(rows[:, 0].tolist(), rows[:, 2].tolist(), pairs)]
    key = lambda s: s.ring.members
    return AttentionSchedule(
        inter_rings=tuple(sorted(inter, key=key)),
        intra_rings=tuple(sorted(intra, key=key)),
        local_tasks=tuple(local),
    )
