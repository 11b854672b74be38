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


def _ring_schedules(plan: "PlacementPlan") -> list[RingSchedule]:
    """Every ring's pair matrix and KV sizes from its zigzag chunk sizes,
    in order of ring size, read off the plan's table by sequence. Each
    sequence rides at most one ring, of distinct ranks, as `validate_plan`
    proves.

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
    positions do not strictly fall, raises ValueError naming the members;
    of several, the first ring by size and the first of its sequences.
    """
    rings = plan.ring_groups
    if not rings:
        return []
    by_size = sorted(range(len(rings)), key=lambda k: len(rings[k].members))
    sizes = [len(rings[k].members) for k in by_size]
    # ring by_size[i]'s positions are columns at[i] .. at[i] + G - 1 of the
    # chunk sizes, in a slot as wide as the widest of the first `narrow`
    # rings, which fit a node, or as its own width
    narrow = sum(g <= plan.gpus_per_node for g in sizes)
    slot = [sizes[narrow - 1]] * narrow + sizes[narrow:]
    at = list(itertools.accumulate(slot, initial=0))
    offset = [0] * len(rings)
    for k, lo in zip(by_size, at):
        offset[k] = lo
    view = plan.by_sequence
    _, mb, sid, start, end = view.rows.T
    # a row on its ring's members and at micro-batch 0; empty ranges hold
    # no tokens. The rest stay by (sequence, start)
    keep = ((view.place >= 0) & (mb == 0) & (start != end)).nonzero()[0]
    ring_of, seq, sid, start, end = view.ring[keep], view.ring_seq[keep], sid[keep], start[keep], end[keep]
    column = np.array(offset)[ring_of] + view.place[keep]
    same = sid[1:] == sid[:-1]
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
        k, s = min(zip(ring_of[bad].tolist(), seq[bad].tolist()), key=lambda ks: (by_size.index(ks[0]), ks[1]))
        ring = rings[k]
        raise ValueError(f"ring {list(ring.members)}: sequence {ring.sequence_ids[s]} is not laid "
                         "out in zigzag chunks (ranges overlap, or second chunks' positions do not strictly fall)")
    chunks = np.zeros((max(len(ring.sequence_ids) for ring in rings), 2, at[-1]), dtype=np.int64)
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
        out += [RingSchedule(ring=rings[by_size[k]], pairs=m[:g, :g], kv_sizes=tuple(kv_sizes[at[k]:at[k] + g]))
                for k, m, g in zip(ks, pairs, sizes[ks[0]:])]
    return out


def build_schedule(plan: "PlacementPlan") -> AttentionSchedule:
    """Turn a placement plan into per-rank queues of ring rounds and local
    kernels. KV rotates one position per round (position i sends to i+1 and
    receives from i-1), for G rounds per ring so every position sees every
    KV set and the layout returns home for the backward pass."""
    inter, intra = [], []
    for sched in _ring_schedules(plan):
        (inter if ring_kind(sched.ring.members, plan.gpus_per_node) == INTER_NODE else intra).append(sched)
    # a sequence a ring carries is computed in its rounds, even when all of
    # its tokens sit on one rank (a one-token sequence on te_cp's global ring)
    view = plan.by_sequence
    rows = view.rows[(view.rows[:, 1] > 0) | (view.ring < 0)]
    # by rank, then sequence, then micro-batch: ties are already by start
    rows = rows[np.lexsort((rows[:, 1], rows[:, 2], rows[:, 0]))]
    pairs = causal_pairs(rows[:, 4] - rows[:, 3]).tolist()
    local = [LocalTask(rank=rank, sequence_id=sid, compute_pairs=n)
             for rank, sid, n in zip(rows[:, 0].tolist(), rows[:, 2].tolist(), pairs)]
    key = lambda s: s.ring.members
    return AttentionSchedule(
        inter_rings=tuple(sorted(inter, key=key)),
        intra_rings=tuple(sorted(intra, key=key)),
        local_tasks=tuple(local),
    )
