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


# elements of one (pieces x positions) prefix-sum block of _ring_pair_counts
_BLOCK = 1 << 17


def _expand(first: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each i, counts[i] entries: (i, first[i] + k) for k < counts[i]."""
    index = np.arange(len(first)).repeat(counts)
    return index, first[index] + np.arange(len(index)) - (counts.cumsum() - counts).repeat(counts)


def _ring_pair_counts(matrix: np.ndarray, seg, row, col, start, end) -> None:
    """Add into matrix[row, col] the causal pairs between every two ranges
    of one segment (a sequence on one ring), once per range pair.

    Ranges are cut at every boundary of their segment, so two pieces of a
    segment are either identical or disjoint, and sorted by start. A query
    piece of length n sees the ramp n * (n + 1) / 2 of each identical piece
    (itself included) and n * m pairs of each earlier key piece of length
    m. The products are the exclusive prefix sum, per segment, of the
    pieces' lengths by column, scaled by n and summed per row. Empty and
    reversed ranges add nothing.
    """
    end = np.maximum(start, end)
    if not (end > start).any():
        return
    # one sorted key per (segment, coordinate): segments never interleave
    span = int(end.max()) - int(start.min()) + 1
    key_start, key_end = seg * span + start, seg * span + end
    bounds = np.concatenate((key_start, key_end))
    bounds.sort()
    bounds = bounds[np.concatenate(([True], bounds[1:] != bounds[:-1]))]
    first = bounds.searchsorted(key_start)
    # each piece: the range it comes from and its elementary interval
    origin, interval = _expand(first, bounds.searchsorted(key_end) - first)
    order = interval.argsort(kind="stable")
    origin, interval = origin[order], interval[order]
    length = bounds[interval + 1] - bounds[interval]
    row, col, seg = row[origin], col[origin], seg[origin]
    same_first = interval.searchsorted(interval)
    p, q = _expand(same_first, interval.searchsorted(interval, side="right") - same_first)
    np.add.at(matrix, (row[p], col[q]), length[p] * (length[p] + 1) // 2)
    totals = np.zeros((int(seg[-1]) + 1, matrix.shape[1]), dtype=np.int64)
    np.add.at(totals, (seg, col), length)
    heads = np.flatnonzero(seg[1:] != seg[:-1]) + 1
    # blocks of whole segments, about _BLOCK elements each
    block = np.concatenate(([0], heads)) * matrix.shape[1] // _BLOCK
    cuts = heads[block[1:] != block[:-1]].tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(origin)]):
        prefix = np.zeros((hi - lo + 1, matrix.shape[1]), dtype=np.int64)
        prefix[np.arange(1, hi - lo + 1), col[lo:hi]] = length[lo:hi]
        # each later segment's row takes back the total of the one before,
        # so the sums restart at every segment
        restart = heads[(heads > lo) & (heads < hi)]
        prefix[restart - lo] -= totals[seg[restart - 1]]
        prefix.cumsum(axis=0, out=prefix)
        by_row = lo + row[lo:hi].argsort(kind="stable")
        earlier = prefix[same_first[by_row] - lo]
        earlier *= length[by_row, None]
        query = row[by_row]
        first_of_row = np.flatnonzero(np.concatenate(([True], query[1:] != query[:-1])))
        matrix[query[first_of_row]] += np.add.reduceat(earlier, first_of_row, axis=0)


def _ring_schedules(rings: "tuple[RingGroup, ...]", fragments: "list[list[Fragment]]") -> list[RingSchedule]:
    """Every ring's pair matrix and KV sizes in one pass over all of their
    ranges: ring k's positions are rows offset_k .. offset_k + G_k - 1 of one
    matrix, and its block is M[query position, KV position]. KV sizes add
    every range's end - start."""
    segments: dict[tuple[int, int], int] = {}
    picked: list[tuple[int, int, int, int, int]] = []
    offset = 0
    for k, ring in enumerate(rings):
        index = {sid: segments.setdefault((k, sid), len(segments)) for sid in ring.sequence_ids}
        picked += [(s, offset + position, position, frag.start, frag.end)
                   for position, rank in enumerate(ring.members) for frag in fragments[rank]
                   if (s := index.get(frag.sequence_id)) is not None and frag.micro_batch == 0]
        offset += ring.group_size
    seg, row, col, start, end = np.array(picked, dtype=np.int64).reshape(-1, 5).T
    kv_sizes = np.zeros(offset, dtype=np.int64)
    np.add.at(kv_sizes, row, end - start)
    kv_sizes = kv_sizes.tolist()
    matrix = np.zeros((offset, max((ring.group_size for ring in rings), default=0)), dtype=np.int64)
    _ring_pair_counts(matrix, seg, row, col, start, end)
    matrix.setflags(write=False)
    out = []
    offset = 0
    for ring in rings:
        g = ring.group_size
        out.append(RingSchedule(ring=ring, pairs=matrix[offset:offset + g, :g],
                                kv_sizes=tuple(kv_sizes[offset:offset + g])))
        offset += g
    return out


def build_schedule(plan: "PlacementPlan") -> AttentionSchedule:
    """Turn a placement plan into per-rank queues of ring rounds and local
    kernels. KV rotates one position per round (position i sends to i+1 and
    receives from i-1), for G rounds per ring so every position sees every
    KV set and the layout returns home for the backward pass."""
    scheds = _ring_schedules(plan.ring_groups, plan.fragments)
    inter = [sched for sched in scheds if sched.ring.kind == INTER_NODE]
    intra = [sched for sched in scheds if sched.ring.kind != INTER_NODE]
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
