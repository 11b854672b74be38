"""Ring groups, zigzag causal chunking and per-rank attention schedules.

Work is accounted in exact visible (query, key) pairs under the causal mask
and communication in KV tokens; no tensor math happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .partitioner import Fragment, PlacementPlan

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


def contiguous_ranges(sizes: list[int], offset: int = 0) -> list[tuple[int, int]]:
    ranges = []
    pos = offset
    for size in sizes:
        ranges.append((pos, pos + size))
        pos += size
    return ranges


def zigzag_chunks(seq_len: int, group_size: int) -> list[tuple[int, int]]:
    """Split a sequence into 2*G equal-length contiguous chunks for a ring of
    size G; ring position i holds chunks i and 2G-1-i, which equalizes causal
    pair counts across positions.

    Raises ValueError when seq_len < 2*G (too short for this ring size).
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if seq_len < 2 * group_size:
        raise ValueError(f"sequence of {seq_len} tokens is too short for a ring of size {group_size}")
    return contiguous_ranges(split_even(seq_len, 2 * group_size))


def zigzag_positions(group_size: int) -> list[tuple[int, int]]:
    """Chunk indices (i, 2G-1-i) held by each ring position i."""
    return [(i, 2 * group_size - 1 - i) for i in range(group_size)]


def balanced_zigzag_sizes(seq_len: int, group_size: int, position_loads: list[int]) -> list[int]:
    """Zigzag chunk sizes whose leftover tokens (seq_len mod 2G) go to the
    ring positions carrying the lightest current loads.

    Every chunk stays within one token of seq_len/(2G), so the causal balance
    bound of the uniform rule is preserved, while stacking of leftovers from
    different sequences onto the same rank is avoided; capacity-tight plans
    rely on this.
    """
    g = group_size
    base, extra = divmod(seq_len, 2 * g)
    sizes = [base] * (2 * g)
    order = sorted(range(g), key=lambda p: (position_loads[p], p))
    if extra <= g:
        for p in order[:extra]:
            sizes[p] += 1
    else:
        for p in range(g):
            sizes[p] += 1
        for p in order[:extra - g]:
            sizes[2 * g - 1 - p] += 1
    return sizes


def ranges_from_sizes(sizes: list[int]) -> list[list[tuple[int, int]]]:
    """Per-position nonempty token ranges for explicit zigzag chunk sizes."""
    g = len(sizes) // 2
    chunks = contiguous_ranges(sizes)
    out: list[list[tuple[int, int]]] = []
    for i, j in zigzag_positions(g):
        ranges = [chunks[i]]
        if j != i:
            ranges.append(chunks[j])
        out.append([(a, b) for a, b in ranges if b > a])
    return out


def visible_pair_counts(q_start, q_end, kv_start, kv_end) -> np.ndarray:
    """Causal (q, k) pairs with q in [q_start, q_end), k in [kv_start, kv_end)
    and k <= q, elementwise over the broadcast int64 arrays.

    Ranges are half-open in one sequence's global coordinates; empty or
    reversed ranges count 0, and overlapping ranges count once per range
    pair.
    """
    a, b, c, d = (np.asarray(x, dtype=np.int64) for x in (q_start, q_end, kv_start, kv_end))
    # per-q contribution: clamp(q + 1 - c, 0, m), summed over q in [a, b):
    # a ramp over the queries inside the key range, then a flat m after it
    ramp_lo = np.maximum(a, c)
    ramp_hi = np.minimum(b - 1, d - 2)
    ramp = (ramp_lo + ramp_hi + 2 - 2 * c) * np.maximum(ramp_hi - ramp_lo + 1, 0) // 2
    flat = np.maximum(d - c, 0) * np.maximum(b - np.maximum(a, d - 1), 0)
    return ramp + flat


def visible_pairs(q_range: tuple[int, int], kv_ranges: list[tuple[int, int]] | tuple) -> int:
    """Count causal (q, k) pairs with q in q_range, k in any kv range, k <= q.

    Ranges are half-open [start, end) in one sequence's global coordinates;
    this is the one-query-range case of visible_pair_counts.
    """
    kv = np.array(kv_ranges, dtype=np.int64).reshape(-1, 2)
    return int(visible_pair_counts(q_range[0], q_range[1], kv[:, 0], kv[:, 1]).sum())


def causal_pairs(seq_len: int) -> int:
    """Pairs of a full lower-triangular mask: n*(n+1)/2."""
    return seq_len * (seq_len + 1) // 2


@dataclass(frozen=True)
class RingGroup:
    """A KV-rotation group: ordered member ranks plus the ids of the
    sequences whose KV travels the ring. Position i holds those sequences'
    micro-batch-0 fragments on rank members[i] (`ring_ranges`). Inter-node
    rings span >= 2 nodes, intra-node rings stay within one."""

    kind: str
    members: tuple[int, ...]
    sequence_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in (INTER_NODE, INTRA_NODE):
            raise ValueError(f"bad ring kind {self.kind!r}")
        if len(self.members) < 2:
            raise ValueError("a ring needs at least 2 members")

    @property
    def group_size(self) -> int:
        return len(self.members)


def ring_ranges(ring: RingGroup, fragments: "list[list[Fragment]]") -> list[list[list[tuple[int, int]]]]:
    """The ring's layout read off per-rank fragments: for each of
    ring.sequence_ids in order, per ring position i, the (start, end) ranges
    of that sequence's micro-batch-0 fragments on rank members[i], in the
    rank's fragment order."""
    index = {sid: k for k, sid in enumerate(ring.sequence_ids)}
    layout: list[list[list[tuple[int, int]]]] = [[[] for _ in ring.members] for _ in ring.sequence_ids]
    for position, rank in enumerate(ring.members):
        for frag in fragments[rank]:
            k = index.get(frag.sequence_id)
            if k is not None and frag.micro_batch == 0:
                layout[k][position].append((frag.start, frag.end))
    return layout


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


def _ring_pair_matrix(layout: list[list[list[tuple[int, int]]]], g: int) -> np.ndarray:
    """M[i, j]: causal pairs between the queries held at ring position i and
    the KV resident at position j, summed over the ring's sequences. Each
    sequence is one (n x n) block over its n ranges, added into M by the
    positions holding them."""
    matrix = np.zeros((g, g), dtype=np.int64)
    for by_position in layout:
        pos = [p for p, ranges in enumerate(by_position) for _ in ranges]
        if not pos:
            continue
        bounds = np.array([r for ranges in by_position for r in ranges], dtype=np.int64)
        start, end = bounds[:, 0], bounds[:, 1]
        block = visible_pair_counts(start[:, None], end[:, None], start, end)
        np.add.at(matrix, np.ix_(pos, pos), block)
    return matrix


def _ring_schedule(ring: RingGroup, fragments: "list[list[Fragment]]") -> RingSchedule:
    layout = ring_ranges(ring, fragments)
    pairs = _ring_pair_matrix(layout, ring.group_size)
    pairs.setflags(write=False)
    kv_sizes = tuple(
        sum(end - start for by_position in layout for start, end in by_position[p])
        for p in range(ring.group_size)
    )
    return RingSchedule(ring=ring, pairs=pairs, kv_sizes=kv_sizes)


def build_schedule(plan: "PlacementPlan") -> AttentionSchedule:
    """Turn a placement plan into per-rank queues of ring rounds and local
    kernels. KV rotates one position per round (position i sends to i+1 and
    receives from i-1), for G rounds per ring so every position sees every
    KV set and the layout returns home for the backward pass."""
    inter = []
    intra = []
    for ring in plan.ring_groups:
        sched = _ring_schedule(ring, plan.fragments)
        if ring.kind == INTER_NODE:
            inter.append(sched)
        else:
            intra.append(sched)
    # a sequence a ring carries is computed in its rounds, even when all of
    # its tokens sit on one rank (a one-token sequence on te_cp's global ring)
    ringed = {sid for ring in plan.ring_groups for sid in ring.sequence_ids}
    local = []
    for rank, frags in enumerate(plan.fragments):
        for frag in frags:
            if frag.micro_batch > 0 or frag.sequence_id not in ringed:
                local.append(LocalTask(rank=rank, sequence_id=frag.sequence_id,
                                       compute_pairs=causal_pairs(frag.end - frag.start)))
    key = lambda s: s.ring.members
    return AttentionSchedule(
        inter_rings=tuple(sorted(inter, key=key)),
        intra_rings=tuple(sorted(intra, key=key)),
        local_tasks=tuple(sorted(local, key=lambda t: (t.rank, t.sequence_id))),
    )
