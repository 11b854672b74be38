"""Independent reference implementations used to cross-check the library.

Everything here recomputes results from first principles (enumeration, LP,
brute force) without reusing the code paths under test.
"""

from __future__ import annotations

import itertools

import numpy as np

from varlenplan.partitioner import PlacementPlan
from varlenplan.topology import ClusterSpec


def check_plan(plan: PlacementPlan, lengths: dict[int, int], cluster: ClusterSpec) -> list[str]:
    """Re-derive conservation, coverage, per-phase capacity and zone labels
    directly from the fragment lists; returns a list of violations."""
    problems = []
    frags = [f for rank_frags in plan.fragments for f in rank_frags]
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
            if start != covered:
                problems.append(f"seq {sid}: gap or overlap at {start}")
                break
            covered = end
        if covered != length:
            problems.append(f"seq {sid}: covered {covered} of {length} tokens")
    for rank in range(plan.num_ranks):
        loads: dict[int, int] = {}
        for f in plan.fragments[rank]:
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


def ring_round_pairs_bruteforce(ring) -> list[list[tuple[int, int]]]:
    """(compute_pairs, comm_tokens) of every ring round, indexed
    [position][round], by token enumeration: each range lists its tokens
    with the position holding them, and every (query, key) token pair with
    key <= query is tallied under (query position, key position). Round r
    of position i works on the KV set of position (i - r) mod G."""
    g = ring.group_size
    pairs = np.zeros((g, g), dtype=np.int64)
    held = np.zeros(g, dtype=np.int64)
    for seq in ring.sequences:
        tokens = [np.arange(s, e, dtype=np.int64) for ranges in seq.ranges_by_position for s, e in ranges]
        owners = [np.full(e - s, pos, dtype=np.int64)
                  for pos, ranges in enumerate(seq.ranges_by_position) for s, e in ranges]
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


def _remap_program(counts: list[int], cost: np.ndarray):
    """The minimax remapping program over M[i][j] flattened row-major, then
    the bound t: minimize t subject to row sums = surplus, column sums =
    deficit and every per-sender cost <= t. None when nothing moves."""
    d = len(counts)
    total = sum(counts)
    base, extra = divmod(total, d)
    target = [base + 1 if i < extra else base for i in range(d)]
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
