"""Independent reference implementations used to cross-check the library.

Everything here recomputes results from first principles (enumeration, LP,
brute force) without reusing the code paths under test.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict, namedtuple

import numpy as np

from varlenplan.attention_engine import RingGroup, build_schedule, causal_pairs, split_even
from varlenplan.partitioner import InfeasibleBatch, PlacementPlan
from varlenplan.simulator import COMPUTE, INTER_COMM, INTRA_COMM, Event, StepReport, Timeline
from varlenplan.topology import ClusterSpec, CostCoefficients
from varlenplan.workload import LengthDistribution, SequenceBatch


Fragment = namedtuple("Fragment", "rank micro_batch sequence_id start end")


def fragments_by_rank(placement) -> dict[int, list[Fragment]]:
    """A placement table's rows by rank, each rank's in table order."""
    by_rank: dict[int, list[Fragment]] = defaultdict(list)
    for row in np.asarray(placement).tolist():
        by_rank[row[0]].append(Fragment(*row))
    return by_rank


def spans_nodes(ring, cluster: ClusterSpec) -> bool:
    """Whether a ring's members sit on two or more nodes: an inter-node
    ring, which zeppelin routes."""
    return len({cluster.node_of(m) for m in ring.members}) > 1


def check_plan(plan: PlacementPlan, lengths: dict[int, int], cluster: ClusterSpec) -> list[str]:
    """Re-derive conservation, coverage, micro-batch numbering, per-phase
    capacity, zone labels and ring membership directly from the placement
    rows; returns a list of violations."""
    problems = []
    by_rank = fragments_by_rank(plan.placement)
    frags = [f for rank_frags in by_rank.values() for f in rank_frags]
    total = sum(f.end - f.start for f in frags)
    if total != sum(lengths.values()):
        problems.append(f"token total {total} != batch total {sum(lengths.values())}")
    by_seq: dict[int, list] = {}
    for f in frags:
        by_seq.setdefault(f.sequence_id, []).append(f)
    for sid, length in lengths.items():
        ranges = sorted((f.start, f.end) for f in by_seq.get(sid, []))
        covered = 0
        for start, end in ranges:
            if start != covered or end <= start:
                problems.append(f"seq {sid}: gap, overlap or empty range at {start}")
                break
            covered = end
        if covered != length:
            problems.append(f"seq {sid}: covered {covered} of {length} tokens")
    for f in frags:
        if f.micro_batch < 0:
            problems.append(f"seq {f.sequence_id} has a fragment at micro-batch {f.micro_batch} < 0")
    for rank in range(plan.num_ranks):
        loads: dict[int, int] = {}
        for f in by_rank[rank]:
            loads[f.micro_batch] = loads.get(f.micro_batch, 0) + (f.end - f.start)
        for mb, load in loads.items():
            if load > cluster.token_capacity:
                problems.append(f"rank {rank} micro-batch {mb} holds {load} > {cluster.token_capacity}")
    for sid in lengths:
        ranks = {f.rank for f in by_seq.get(sid, [])}
        nodes = {r // cluster.gpus_per_node for r in ranks}
        zone = plan.zone_of.get(sid)
        if zone is None:
            problems.append(f"seq {sid} has no zone label")
            continue
        if zone == "local" and len(ranks) != 1:
            problems.append(f"local seq {sid} spans ranks {sorted(ranks)}")
        if zone == "intra_node" and (len(nodes) != 1 or len(ranks) < 2):
            problems.append(f"intra-node seq {sid} spans nodes {sorted(nodes)} ranks {sorted(ranks)}")
        if zone == "inter_node" and len(nodes) < 2:
            problems.append(f"inter-node seq {sid} stays on node {sorted(nodes)}")
    # a ringed sequence lives at micro-batch 0 on the members of exactly one
    # ring; any other sequence sits whole on one rank
    rings_of: dict[int, list[int]] = {}
    for idx, ring in enumerate(plan.ring_groups):
        for sid in ring.sequence_ids:
            rings_of.setdefault(sid, []).append(idx)
    for sid, idxs in rings_of.items():
        if sid not in lengths:
            problems.append(f"ring {idxs} carries unknown seq {sid}")
        if len(idxs) != 1:
            problems.append(f"seq {sid} rides rings {idxs}")
        members = plan.ring_groups[idxs[0]].members
        off = [(f.rank, f.micro_batch) for f in by_seq.get(sid, []) if f.micro_batch != 0 or f.rank not in members]
        if off:
            problems.append(f"seq {sid} of ring {idxs[0]} has fragments off its members at (rank, micro-batch) {off}")
    for sid, seq_frags in by_seq.items():
        if sid not in rings_of and len(seq_frags) != 1:
            problems.append(f"seq {sid} rides no ring but has {len(seq_frags)} fragments")
    return problems


def visible_pairs_bruteforce(q_range: tuple[int, int], kv_ranges) -> int:
    count = 0
    for q in range(q_range[0], q_range[1]):
        for c, d in kv_ranges:
            for k in range(c, d):
                if k <= q:
                    count += 1
    return count


def ring_pair_totals_bruteforce(seq_len: int, ranges_by_position) -> list[int]:
    """Per-position total causal pairs once every KV set has rotated past:
    each query q sees exactly q+1 keys, attributed to the position hosting q."""
    owner = np.empty(seq_len, dtype=np.int64)
    for pos, ranges in enumerate(ranges_by_position):
        for start, end in ranges:
            owner[start:end] = pos
    weights = np.arange(1, seq_len + 1, dtype=np.int64)
    return np.bincount(owner, weights=weights, minlength=len(ranges_by_position)).astype(np.int64).tolist()


def ring_round_pairs_bruteforce(ring, placement) -> list[list[tuple[int, int]]]:
    """(compute_pairs, comm_tokens) of every ring round, indexed
    [position][round], by token enumeration over a placement table's rows:
    each micro-batch-0 fragment of
    a ring sequence on member rank members[pos] lists its tokens with
    position pos, and every (query, key) token pair of one sequence with
    key <= query is tallied under (query position, key position). Round r
    of position i works on the KV set of position (i - r) mod G."""
    g = ring.group_size
    pairs = np.zeros((g, g), dtype=np.int64)
    held = np.zeros(g, dtype=np.int64)
    fragments = fragments_by_rank(placement)
    for sid in ring.sequence_ids:
        mine = [(pos, f) for pos, rank in enumerate(ring.members) for f in fragments[rank]
                if f.sequence_id == sid and f.micro_batch == 0]
        tokens = [np.arange(f.start, f.end, dtype=np.int64) for _, f in mine]
        owners = [np.full(f.end - f.start, pos, dtype=np.int64) for pos, f in mine]
        if not tokens:
            continue
        token = np.concatenate(tokens)
        owner = np.concatenate(owners)
        visible = token[None, :] <= token[:, None]
        cell = owner[:, None] * g + owner[None, :]
        pairs += np.bincount(cell[visible], minlength=g * g).reshape(g, g)
        held += np.bincount(owner, minlength=g)
    return [
        [(int(pairs[i, (i - r) % g]), int(held[(i - r) % g])) for r in range(g)]
        for i in range(g)
    ]


def reference_zigzag_sizes(seq_len: int, position_loads) -> np.ndarray:
    """Zigzag chunk sizes over G positions: seq_len // 2G tokens each, and
    the seq_len mod 2G leftovers to the first chunks of the positions by
    load (a stable argsort, ties to the lowest position), then to their
    second chunks in the same order."""
    g = len(position_loads)
    base, extra = divmod(seq_len, 2 * g)
    order = np.argsort(np.asarray(position_loads), kind="stable")
    sizes = np.full(2 * g, base, dtype=np.int64)
    sizes[np.concatenate((order, 2 * g - 1 - order))[:extra]] += 1
    return sizes


def reference_global_ring(sequences: list[tuple[int, int]], cluster: ClusterSpec):
    """The even split's rows and ring, one sequence at a time: each
    (sequence_id, length) in order takes reference_zigzag_sizes over all
    ranks on the loads the sequences before it left, and rank p holds chunks
    p and 2R-1-p."""
    n_ranks = cluster.num_ranks
    if n_ranks == 1 or not sequences:
        return np.array([(0, 0, sid, 0, length) for sid, length in sequences], dtype=np.int64).reshape(-1, 5), ()
    rows = []
    running = np.zeros(n_ranks, dtype=np.int64)
    for sid, length in sequences:
        sizes = reference_zigzag_sizes(length, running)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        for chunk in range(2 * n_ranks):
            rank = min(chunk, 2 * n_ranks - 1 - chunk)
            if sizes[chunk]:
                rows.append((rank, 0, sid, int(bounds[chunk]), int(bounds[chunk + 1])))
            running[rank] += sizes[chunk]
    ring = RingGroup(tuple(range(n_ranks)), tuple(sid for sid, _ in sequences))
    return np.array(rows, dtype=np.int64).reshape(-1, 5), (ring,)


def _reference_least_loaded(loads: list[int], last: int) -> list[int]:
    return sorted(range(len(loads)), key=loads.__getitem__)


def _reference_round_robin(loads: list[int], last: int) -> list[int]:
    return [*range(last + 1, len(loads)), *range(last + 1)]


def _reference_place_pieces(length, k_init, loads, cap, order, last):
    """Every piece of every k scans a fresh candidate list of all bins from
    `order`, taking the first unused one it fits."""
    n = len(loads)
    for k in range(min(k_init, n), n + 1):
        pieces = []
        used = set()
        prev = last
        for size in split_even(length, k):
            prev = next((b for b in order(loads, prev) if b not in used and loads[b] + size <= cap), None)
            if prev is None:
                break
            used.add(prev)
            pieces.append((prev, size))
        else:
            return pieces
    return None


def reference_threshold_fill(items: list[tuple[int, int]], loads: list[int], cap: int, power: int, order: str):
    """The greedy threshold fill of `partitioner._threshold_fill`, with
    `order` "least_loaded" or "round_robin", as a candidate list per piece:
    (threshold, restarts, placed), or InfeasibleBatch when a split item fits
    no set of bins."""
    order = {"least_loaded": _reference_least_loaded, "round_robin": _reference_round_robin}[order]
    items = sorted(items, key=lambda t: (-t[1], t[0]))
    threshold, restarts = cap, 0
    while True:
        trial = list(loads)
        placed = {}
        n_split = sum(1 for _, ln in items if ln >= threshold)
        weight = sum(ln**power for _, ln in items[:n_split])
        last = -1
        for sid, ln in items[:n_split]:
            pieces = _reference_place_pieces(ln, max(1, -(-ln**power * len(trial) // weight)), trial, cap, order, last)
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


def reference_sample_batch(dist: LengthDistribution, target_total: int, seed: int) -> SequenceBatch:
    """sample_batch drawn through Generator.choice: a bin by probability,
    then a length uniform within it, until the running total reaches
    target_total; the last length is truncated to land on it exactly."""
    if target_total == 0:
        return SequenceBatch(())
    rng = np.random.default_rng(seed)
    probs = np.array([p for _, _, p in dist.bins])
    lows = np.array([lo for lo, _, _ in dist.bins])
    highs = np.array([hi for _, hi, _ in dist.bins])
    sequences: list[tuple[int, int]] = []
    total = 0
    while total < target_total:
        b = int(rng.choice(len(probs), p=probs))
        length = int(rng.integers(lows[b], highs[b]))
        length = min(length, target_total - total)
        sequences.append((len(sequences), length))
        total += length
    return SequenceBatch(tuple(sequences))


# shortfall: the most tokens one node's floored cross-node shares left to hand out
RefRemap = namedtuple("RefRemap", "matrix objective row_costs shortfall")


def reference_target(counts: list[int]) -> list[int]:
    """The even linear-layout target: floor or ceil of the mean, the extra
    tokens on the lowest ranks."""
    base, extra = divmod(sum(counts), len(counts))
    return [base + 1 if i < extra else base for i in range(len(counts))]


def reference_cost_matrix(cluster: ClusterSpec) -> np.ndarray:
    """Rank-to-rank remap cost, entry by entry: zero on the diagonal, the
    intra coefficient within a node, the inter one across nodes."""
    d = cluster.num_ranks
    t = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if i != j:
                same_node = cluster.node_of(i) == cluster.node_of(j)
                t[i][j] = cluster.inv_bw_intra if same_node else cluster.inv_bw_inter
    return t


def _reference_node_blocks(t: np.ndarray) -> tuple[list[np.ndarray], float, float]:
    """(rank indices per node, intra cost c, inter cost e) of a block-form
    cost matrix; ranks share a node iff their entry is the smallest
    off-diagonal one."""
    d = len(t)
    off = ~np.eye(d, dtype=bool)
    if d == 1:
        c = e = 0.0
        label = np.zeros(1, dtype=np.int64)
    else:
        c, e = float(t[off].min()), float(t[off].max())
        label = ((t == c) | ~off).argmax(axis=1)
    expected = np.where(off, np.where(label[:, None] == label[None, :], c, e), 0.0)
    if not c >= 0 or not np.array_equal(t, expected):
        raise ValueError("cost matrix must be zero on the diagonal, one cost within each "
                         "node and one cost across nodes")
    return [np.flatnonzero(label == n) for n in np.unique(label)], c, e


def _reference_water_level(lo: list[float], hi: list[float], need: float) -> float:
    """The level L at which sum_i clamp(L - lo_i, 0, hi_i - lo_i) reaches
    `need`, by a walk over the sorted breakpoints."""
    points = sorted([(x, 1) for x in lo] + [(x, -1) for x in hi])
    level, filled, slope = points[0][0], 0.0, 0
    for x, step in points:
        gain = slope * (x - level)
        if filled + gain >= need:
            return level + (need - filled) / slope
        filled += gain
        level = x
        slope += step
    return level


def _reference_northwest(supply: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """North-west corner fill of the supplies onto the demands in index order."""
    s, t = np.cumsum(supply), np.cumsum(demand)
    return np.maximum(np.minimum.outer(s, t) - np.maximum.outer(s - supply, t - demand), 0)


def reference_remap(counts: list[int], cost: np.ndarray) -> RefRemap:
    """The minimax remap solved one node at a time with scalar arithmetic:
    each node with excess finds its water level and its senders' cross-node
    shares (floors, then one token at a time to the cheapest sender, ties by
    index); every node fills its own deficits north-west, then the
    cross-node shares fill what is left north-west."""
    a = np.asarray(counts, dtype=np.int64)
    d = len(a)
    t = np.asarray(cost, dtype=float)
    if t.shape != (d, d):
        raise ValueError("cost matrix shape does not match the rank count")
    b = np.asarray(reference_target([int(x) for x in counts]), dtype=np.int64)
    nodes, c, e = _reference_node_blocks(t)
    u = np.maximum(a - b, 0)
    v = np.maximum(b - a, 0)
    matrix = np.zeros((d, d), dtype=np.int64)
    if u.sum() == 0:
        return RefRemap(matrix=matrix, objective=0.0, row_costs=np.zeros(d), shortfall=0)
    objective = c * float(u.max())
    cross = np.zeros(d, dtype=np.int64)
    shortfall = 0
    for members in nodes:
        excess = int(u[members].sum() - v[members].sum())
        if excess > 0:
            senders = [int(i) for i in members if u[i] > 0]
            level = _reference_water_level([c * int(u[i]) for i in senders], [e * int(u[i]) for i in senders],
                                           (e - c) * excess)
            objective = max(objective, level)
            shares = {i: min(int(u[i]), max(0, math.floor((level - c * u[i]) / (e - c)))) for i in senders}
            shortfall = max(shortfall, excess - sum(shares.values()))
            for _ in range(excess - sum(shares.values())):
                k = min((i for i in senders if shares[i] < u[i]),
                        key=lambda i: (c * u[i] + (e - c) * (shares[i] + 1), i))
                shares[k] += 1
            cross[senders] = [shares[i] for i in senders]
        matrix[np.ix_(members, members)] = _reference_northwest(u[members] - cross[members], v[members])
    matrix += _reference_northwest(cross, v - matrix.sum(axis=0))
    return RefRemap(matrix=matrix, objective=objective, row_costs=(t * matrix).sum(axis=1), shortfall=shortfall)


def _remap_program(counts: list[int], cost: np.ndarray):
    """The minimax remapping program over M[i][j] flattened row-major, then
    the bound t: minimize t subject to row sums = surplus, column sums =
    deficit and every per-sender cost <= t. None when nothing moves."""
    d = len(counts)
    target = reference_target(counts)
    u = [max(counts[i] - target[i], 0) for i in range(d)]
    v = [max(target[i] - counts[i], 0) for i in range(d)]
    if sum(u) == 0:
        return None
    n_var = d * d + 1
    c = np.zeros(n_var)
    c[-1] = 1.0
    a_eq = []
    b_eq = []
    for i in range(d):
        row = np.zeros(n_var)
        row[i * d:(i + 1) * d] = 1.0
        a_eq.append(row)
        b_eq.append(u[i])
    for j in range(d):
        col = np.zeros(n_var)
        col[j::d][:d] = 1.0
        a_eq.append(col)
        b_eq.append(v[j])
    a_ub = []
    for i in range(d):
        row = np.zeros(n_var)
        row[i * d:(i + 1) * d] = cost[i]
        row[-1] = -1.0
        a_ub.append(row)
    return c, np.array(a_ub), np.zeros(d), np.array(a_eq), np.array(b_eq, dtype=float)


def lp_remap_oracle(counts: list[int], cost: np.ndarray) -> float:
    """Continuous minimax remapping optimum via linear programming."""
    from scipy.optimize import linprog

    program = _remap_program(counts, cost)
    if program is None:
        return 0.0
    c, a_ub, b_ub, a_eq, b_eq = program
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * len(c), method="highs")
    assert res.success, res.message
    return float(res.x[-1])


def milp_remap_oracle(counts: list[int], cost: np.ndarray) -> float:
    """Integer minimax remapping optimum via mixed-integer programming: the
    smallest worst per-sender cost of any integer transfer matrix."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    program = _remap_program(counts, cost)
    if program is None:
        return 0.0
    c, a_ub, b_ub, a_eq, b_eq = program
    integrality = np.ones(len(c))
    integrality[-1] = 0
    res = milp(c, integrality=integrality, bounds=Bounds(0, np.inf),
               constraints=[LinearConstraint(a_ub, -np.inf, b_ub), LinearConstraint(a_eq, b_eq, b_eq)],
               options={"mip_rel_gap": 0.0})
    assert res.success, res.message
    return float(res.x[-1])


def best_unsplit_makespan(lengths: list[int], n_ranks: int, capacity: int, alpha: float) -> float | None:
    """Minimum attention makespan over every whole-sequence-to-rank assignment
    that respects per-rank capacity; None when no assignment fits."""
    tri = [alpha * ln * (ln + 1) / 2 for ln in lengths]
    best = None
    for assignment in itertools.product(range(n_ranks), repeat=len(lengths)):
        loads = [0] * n_ranks
        work = [0.0] * n_ranks
        ok = True
        for ln, t, rank in zip(lengths, tri, assignment):
            loads[rank] += ln
            work[rank] += t
            if loads[rank] > capacity:
                ok = False
                break
        if ok:
            m = max(work)
            if best is None or m < best:
                best = m
    return best


class _ScalarEngine:
    """The reference event engine: one Event per leg, emitted in order, with
    per-(rank, stream) exclusivity."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster
        self.events: list[Event] = []
        self.tails: dict[tuple[int, str], float] = {}
        self.inter_tokens = [0] * cluster.num_ranks
        self.intra_tokens = [0] * cluster.num_ranks
        self.nic_busy = [[0.0] * cluster.nics_per_node for _ in range(cluster.num_nodes)]
        self._nic_cursor = [0] * cluster.num_nodes

    def emit(self, rank, stream, earliest, duration, kind, payload) -> float:
        start = max(earliest, self.tails.get((rank, stream), 0.0))
        self.tails[(rank, stream)] = start + duration
        self.events.append(Event(rank, stream, start, duration, kind, payload))
        return start + duration

    def count(self, rank, scope, tokens) -> None:
        if scope == "inter":
            self.inter_tokens[rank] += tokens
        else:
            self.intra_tokens[rank] += tokens

    def charge_nic(self, node, duration, rank=None) -> None:
        if rank is not None:
            local = rank - node * self.cluster.gpus_per_node
            nic = local * self.cluster.nics_per_node // self.cluster.gpus_per_node
        else:
            nic = self._nic_cursor[node] % self.cluster.nics_per_node
            self._nic_cursor[node] += 1
        self.nic_busy[node][nic] += duration


RefRoute = namedtuple("RefRoute", "source_rank dest_rank tokens send recv shares")


def reference_route(cluster: ClusterSpec, ring, src: int, dst: int, tokens: int) -> RefRoute:
    """A cross-node ring send from the routing spec: each node's proxies are
    its endpoint, then the node's other ring members ascending, then its
    remaining ranks ascending; the tokens split evenly in integers with the
    remainder on the first proxies, and send proxy i hands its share to
    receive proxy i."""
    p = cluster.gpus_per_node

    def proxies(endpoint):
        ranks = range(endpoint // p * p, endpoint // p * p + p)
        return ([endpoint] + sorted(r for r in ranks if r in ring.members and r != endpoint)
                + sorted(r for r in ranks if r not in ring.members))

    shares = [tokens // p + (1 if i < tokens % p else 0) for i in range(p)]
    return RefRoute(src, dst, tokens, proxies(src), proxies(dst), shares)


def _reference_route(engine, cluster, route, t, ring_idx, r) -> float:
    meta = {"ring": ring_idx, "round": r, "src": route.source_rank, "dst": route.dest_rank}
    dispatch_end = t
    for proxy, n in zip(route.send[1:], route.shares[1:]):
        dur = cluster.inv_bw_intra * n
        end = engine.emit(route.source_rank, INTRA_COMM, t, dur, "route.dispatch",
                          {**meta, "proxy": proxy, "tokens": n})
        engine.count(route.source_rank, "intra", n)
        dispatch_end = max(dispatch_end, end)
    transfer_end = dispatch_end
    for sender, receiver, n in zip(route.send, route.recv, route.shares):
        dur = cluster.inv_bw_inter * n
        end = engine.emit(sender, INTER_COMM, dispatch_end, dur, "route.transfer",
                          {**meta, "proxy": receiver, "tokens": n})
        engine.charge_nic(cluster.node_of(sender), dur)
        transfer_end = max(transfer_end, end)
    engine.count(route.source_rank, "inter", route.tokens)
    combine_end = transfer_end
    for proxy, n in zip(route.recv[1:], route.shares[1:]):
        dur = cluster.inv_bw_intra * n
        end = engine.emit(route.dest_rank, INTRA_COMM, transfer_end, dur, "route.combine",
                          {**meta, "proxy": proxy, "tokens": n})
        engine.count(proxy, "intra", n)
        combine_end = max(combine_end, end)
    return combine_end


def _reference_rings(engine, plan, cluster, coeffs) -> list[float]:
    """Every ring round leg by leg from the schedule's pair matrix (in round
    r, position i computes against and sends on the KV of position
    (i - r) mod G), with a route built for each cross-node send of a
    zeppelin inter-node ring."""
    schedule = build_schedule(plan)
    ready = [0.0] * cluster.num_ranks
    for ring_idx, ring_sched in enumerate(schedule.rings()):
        ring = ring_sched.ring
        g = ring.group_size
        inter = spans_nodes(ring, cluster)
        routed = plan.strategy == "zeppelin" and inter
        t = max(ready[m] for m in ring.members)
        pairs = ring_sched.pairs.tolist()
        for r in range(g):
            round_end = t
            for pos, member in enumerate(ring.members):
                compute_pairs = pairs[pos][(pos - r) % g]
                if compute_pairs > 0:
                    dur = coeffs.attn_quadratic * compute_pairs
                    end = engine.emit(member, COMPUTE, t, dur, "inter_node.attn" if inter else "intra_node.attn",
                                      {"ring": ring_idx, "round": r, "pairs": compute_pairs})
                    round_end = max(round_end, end)
            routed_legs = []
            for pos, member in enumerate(ring.members):
                n = ring_sched.kv_sizes[(pos - r) % g]
                if n == 0:
                    continue
                dst = ring.members[(pos + 1) % g]
                crossing = cluster.node_of(member) != cluster.node_of(dst)
                if crossing and routed:
                    routed_legs.append(reference_route(cluster, ring, member, dst, n))
                elif crossing:
                    dur = cluster.inv_bw_inter * n
                    end = engine.emit(member, INTER_COMM, t, dur, "kv.send",
                                      {"ring": ring_idx, "round": r, "tokens": n, "dst": dst})
                    engine.count(member, "inter", n)
                    engine.charge_nic(cluster.node_of(member), dur, rank=member)
                    round_end = max(round_end, end)
                else:
                    dur = cluster.inv_bw_intra * n
                    end = engine.emit(member, INTRA_COMM, t, dur, "kv.send",
                                      {"ring": ring_idx, "round": r, "tokens": n, "dst": dst})
                    engine.count(member, "intra", n)
                    round_end = max(round_end, end)
            for route in routed_legs:
                round_end = max(round_end, _reference_route(engine, cluster, route, t, ring_idx, r))
            t = round_end
        for m in ring.members:
            ready[m] = t
    for task in schedule.local_tasks:
        if task.compute_pairs <= 0:
            continue
        dur = coeffs.attn_quadratic * task.compute_pairs
        ready[task.rank] = engine.emit(task.rank, COMPUTE, ready[task.rank], dur, "local.attn",
                                       {"seq": task.sequence_id, "pairs": task.compute_pairs})
    return ready


def _reference_allgather(engine, plan, cluster, coeffs) -> list[float]:
    g = cluster.num_ranks
    total = plan.total_tokens()
    start = 0.0
    if g > 1 and total > 0:
        crossing = cluster.num_nodes > 1
        ag_time = (cluster.inv_bw_inter if crossing else cluster.inv_bw_intra) * total * (g - 1) / g
        sent = round(total * (g - 1) / g)
        for rank in range(g):
            node = cluster.node_of(rank)
            boundary = crossing and rank == max(cluster.ranks_of_node(node))
            engine.emit(rank, INTER_COMM if boundary else INTRA_COMM, 0.0, ag_time, "kv.allgather", {"tokens": sent})
            engine.count(rank, "inter" if boundary else "intra", sent)
            if boundary:
                engine.charge_nic(node, ag_time, rank=rank)
        start = ag_time
    total_pairs = sum(causal_pairs(ln) for ln in plan.sequence_lengths.values())
    if total_pairs == 0:
        return [start] * g
    dur = coeffs.attn_quadratic * total_pairs / g
    for rank in range(g):
        engine.emit(rank, COMPUTE, start, dur, "attn.parallel", {"pairs": total_pairs / g})
    return [start + dur] * g


def _reference_remap(engine, cluster, result, start, kind) -> None:
    for rank in range(cluster.num_ranks):
        cost = float(result.row_costs[rank])
        if cost <= 0:
            continue
        crosses = any(result.matrix[rank][j] > 0 and cluster.node_of(j) != cluster.node_of(rank)
                      for j in range(cluster.num_ranks))
        engine.emit(rank, INTER_COMM if crosses else INTRA_COMM, start, cost, kind,
                    {"tokens": int(result.matrix[rank].sum())})


def _reference_peak_kv(plan: PlacementPlan) -> int:
    """Each rank's own tokens plus the largest KV set any ring it is on
    holds at one position, summed from the fragments; all tokens under
    llama_cp's all-gather."""
    fragments = fragments_by_rank(plan.placement)
    tokens = [sum(f.end - f.start for f in fragments[rank]) for rank in range(plan.num_ranks)]
    if plan.strategy == "llama_cp":
        return sum(tokens)
    extra = [0] * plan.num_ranks
    for ring in plan.ring_groups:
        held = max(sum(f.end - f.start for f in fragments[m]
                       if f.sequence_id in ring.sequence_ids and f.micro_batch == 0) for m in ring.members)
        for m in ring.members:
            extra[m] = max(extra[m], held)
    return max((t + e for t, e in zip(tokens, extra)), default=0)


def reference_timeline(plan: PlacementPlan, cluster: ClusterSpec,
                       coeffs: CostCoefficients) -> tuple[list[Event], StepReport]:
    """One simulated step by the scalar event engine: every leg of every
    round is emitted as an Event, its start taken from its lane's running
    tail, and the attention phase ends at the latest event end. Returns the
    events in emission order and the step report."""
    engine = _ScalarEngine(cluster)
    if plan.strategy == "llama_cp":
        ready = _reference_allgather(engine, plan, cluster, coeffs)
    else:
        ready = _reference_rings(engine, plan, cluster, coeffs)
    attention_end = max([0.0] + [e.end for e in engine.events] + ready)
    remap_fwd = remap_inv = 0.0
    if plan.strategy == "zeppelin" and plan.total_tokens() > 0:
        result = reference_remap(plan.tokens_per_rank, reference_cost_matrix(cluster))
        worst_row = float(result.row_costs.max()) if result.row_costs.size else 0.0
        remap_fwd = remap_inv = max(result.objective, worst_row)
        linear_tokens = reference_target(plan.tokens_per_rank)
        _reference_remap(engine, cluster, result, attention_end, "remap.forward")
    else:
        linear_tokens = list(plan.tokens_per_rank)
    linear_start = attention_end + remap_fwd
    linear_time = 0.0
    if coeffs.linear_per_token > 0:
        for rank, tokens in enumerate(linear_tokens):
            if tokens > 0:
                dur = coeffs.linear_per_token * tokens
                engine.emit(rank, COMPUTE, linear_start, dur, "linear", {"tokens": tokens})
                linear_time = max(linear_time, dur)
    linear_end = linear_start + linear_time
    if remap_inv > 0:
        _reference_remap(engine, cluster, result, linear_end, "remap.inverse")
    forward = linear_end + remap_inv
    report = StepReport(
        strategy=plan.strategy,
        attention_makespan=attention_end,
        remap_forward=remap_fwd,
        linear_time=linear_time,
        remap_inverse=remap_inv,
        total_step=forward * (1.0 + cluster.backward_multiplier),
        inter_comm_tokens=sum(engine.inter_tokens),
        intra_comm_tokens=sum(engine.intra_tokens),
        inter_tokens_per_rank=list(engine.inter_tokens),
        intra_tokens_per_rank=list(engine.intra_tokens),
        nic_busy_time=[list(row) for row in engine.nic_busy],
        peak_kv_tokens=_reference_peak_kv(plan),
        max_micro_batches=max([1] + [f.micro_batch for frs in fragments_by_rank(plan.placement).values() for f in frs]),
    )
    return engine.events, report


def _reference_comm_tokens(plan: PlacementPlan, cluster: ClusterSpec) -> tuple[list[int], list[int]]:
    """Per-rank (inter, intra) tokens sent in the attention phase, from the
    fragments: each ring member sends every KV set of its ring on to the
    next member once, over a route when zeppelin's inter-node ring crosses
    nodes (the source sends the inter-node tokens and the dispatch shares,
    each receive proxy its gather share); llama_cp's all-gather sends
    (G - 1) / G of all tokens from every rank, across nodes from each
    node's last rank."""
    inter = [0] * cluster.num_ranks
    intra = [0] * cluster.num_ranks
    if plan.strategy == "llama_cp":
        g, total = cluster.num_ranks, plan.total_tokens()
        if g > 1 and total > 0:
            sent = round(total * (g - 1) / g)
            for rank in range(g):
                boundary = cluster.num_nodes > 1 and (rank + 1) % cluster.gpus_per_node == 0
                (inter if boundary else intra)[rank] += sent
        return inter, intra
    fragments = fragments_by_rank(plan.placement)
    for ring in plan.ring_groups:
        g = ring.group_size
        kv = [sum(f.end - f.start for f in fragments[m] if f.sequence_id in ring.sequence_ids
                  and f.micro_batch == 0) for m in ring.members]
        routed = plan.strategy == "zeppelin" and spans_nodes(ring, cluster)
        for pos, src in enumerate(ring.members):
            dst = ring.members[(pos + 1) % g]
            if src // cluster.gpus_per_node == dst // cluster.gpus_per_node:
                intra[src] += sum(kv)
            elif not routed:
                inter[src] += sum(kv)
            else:
                for n in kv:
                    if n == 0:
                        continue
                    route = reference_route(cluster, ring, src, dst, n)
                    inter[src] += n
                    intra[src] += sum(route.shares[1:])
                    for proxy, share in zip(route.recv[1:], route.shares[1:]):
                        intra[proxy] += share
    return inter, intra


def check_timeline(plan: PlacementPlan, cluster: ClusterSpec, timeline: Timeline, report: StepReport) -> list[str]:
    """Re-derive from a simulated step's events that no two events of one
    (rank, stream) lane overlap, that each routed send's transfers start
    after all of its dispatches end and its gathers after all of its
    transfers, and that the report's per-rank comm tokens are the plan's
    ring and route volumes; returns a list of violations."""
    problems = []
    lanes: dict[tuple[int, str], list[Event]] = {}
    sends: dict[tuple, dict[str, list[Event]]] = {}
    for event in timeline.events:
        lanes.setdefault((event.rank, event.stream), []).append(event)
        if event.kind.startswith("route."):
            key = (event.payload["ring"], event.payload["round"], event.payload["src"])
            sends.setdefault(key, {}).setdefault(event.kind, []).append(event)
    for lane, events in lanes.items():
        events.sort(key=lambda e: (e.start, e.end))
        for a, b in zip(events, events[1:]):
            if a.end > b.start:
                problems.append(f"lane {lane}: {a.kind} ends at {a.end} after {b.kind} starts at {b.start}")
    for key, steps in sends.items():
        for before, after in (("route.dispatch", "route.transfer"), ("route.transfer", "route.combine")):
            if before in steps and after in steps:
                end = max(e.end for e in steps[before])
                start = min(e.start for e in steps[after])
                if start < end:
                    problems.append(f"send {key}: {after} starts at {start} before {before} ends at {end}")
    inter, intra = _reference_comm_tokens(plan, cluster)
    if report.inter_tokens_per_rank != inter:
        problems.append(f"inter-node tokens per rank {report.inter_tokens_per_rank} != {inter}")
    if report.intra_tokens_per_rank != intra:
        problems.append(f"intra-node tokens per rank {report.intra_tokens_per_rank} != {intra}")
    if (report.inter_comm_tokens, report.intra_comm_tokens) != (sum(inter), sum(intra)):
        problems.append("comm token totals disagree with the per-rank counts")
    return problems


_STREAM_ORDER = {COMPUTE: 0, INTRA_COMM: 1, INTER_COMM: 2}


def sorted_events(events: list[Event]) -> list[Event]:
    """Events in trace order: by start, rank, stream, kind and duration,
    the given order breaking full ties."""
    return sorted(
        events,
        key=lambda e: (e.start, e.rank, _STREAM_ORDER.get(e.stream, 9), e.kind, e.duration),
    )


def reference_trace(events: list[Event], gpus_per_node: int) -> str:
    """The Chrome trace text of a step's events in emission order (as
    `reference_timeline` gives them): one dict per event in trace order,
    written by json with sorted keys."""
    records = []
    for event in sorted_events(events):
        records.append({
            "name": event.kind,
            "ph": "X",
            "ts": event.start * 1e6,
            "dur": event.duration * 1e6,
            "pid": event.rank // gpus_per_node,
            "tid": f"{event.rank}.{event.stream}",
            "args": {k: v for k, v in sorted(event.payload.items())},
        })
    payload = {"displayTimeUnit": "ms", "traceEvents": records}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
