"""Minimax token remapping between attention and linear-module layouts.

Given per-rank token counts A, the target layout B spreads the total evenly
(largest-remainder rounding). The solver finds a transfer matrix M >= 0 with
row sums equal to the per-rank surplus u and column sums equal to the
deficit v that minimizes the maximum per-sender cost sum_j T[i][j]*M[i][j].

T carries two link classes: cost c between the ranks of one node and e >= c
across nodes. A sender that pushes f_i of its u_i tokens off its node pays
c*u_i + (e-c)*f_i, so the problem splits by node. Node n holds surplus U_n
and deficit V_n and must push E_n = max(0, U_n - V_n) tokens to other nodes,
whose deficits left over after their own in-node fills take them at the same
price. The continuous optimum is max(max_i c*u_i, max_n L_n), where the
water level L_n solves sum_i clamp((L - c*u_i)/(e-c), 0, u_i) = E_n over the
node's senders (the parametric-flow view of Gallo, Grigoriadis & Tarjan,
SIAM J. Comput. 1989).

The solve visits only the nodes with E_n > 0. The fills are two-pointer
passes, O(d) in all: each node's senders hand what they keep in the node
to its deficits in index order, then the cross-node shares fill the
deficits left over, in index order over all ranks. The few nonzero
transfers go into the zero matrix in one assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention_engine import split_even
from .topology import ClusterSpec


def target_distribution(counts: list[int]) -> list[int]:
    """Even integer target with the same total: every entry is floor or ceil
    of the mean, extra tokens going to the largest remainders (ties by index)."""
    if len(counts) < 1:
        raise ValueError("need at least one rank")
    if any(c < 0 for c in counts):
        raise ValueError("token counts must be >= 0")
    # the fractional part total/d is identical for every entry, so the
    # leftover tokens go to the lowest indices
    return split_even(sum(counts), len(counts))


def cost_matrix(cluster: ClusterSpec) -> np.ndarray:
    """Symmetric rank-to-rank cost: intra coefficient within a node, inter
    across nodes, zero diagonal."""
    node = np.arange(cluster.num_ranks) // cluster.gpus_per_node
    t = np.where(node[:, None] == node, float(cluster.inv_bw_intra), float(cluster.inv_bw_inter))
    np.fill_diagonal(t, 0.0)
    return t


@dataclass(frozen=True)
class RemapResult:
    matrix: np.ndarray  # integer token transfers, d x d
    objective: float  # continuous minimax optimum
    row_costs: np.ndarray  # per-sender cost of the integer matrix


def _node_blocks(t: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Read the nodes off a cost matrix: (node label per rank, intra cost c,
    inter cost e). Ranks i and j share a node iff t[i][j] is the smallest
    off-diagonal entry c, and each rank is labelled by the first rank of its
    node; anything but a zero-diagonal block form raises."""
    d = len(t)
    if d == 1:
        c = e = 0.0
        label = np.zeros(1, dtype=np.int64)
    else:
        # the off-diagonal entries as a strided view: the flat matrix after
        # t[0][0] is d-1 runs of d entries, each followed by a diagonal one
        off = t.reshape(-1)[1:].reshape(d - 1, d + 1)[:, :d]
        c, e = float(off.min()), float(off.max())
        near = t == c
        np.fill_diagonal(near, True)
        label = near.argmax(axis=1)
    expected = np.where(label[:, None] == label, c, e)
    np.fill_diagonal(expected, 0.0)
    if not c >= 0 or not np.array_equal(t, expected):
        raise ValueError("cost matrix must be zero on the diagonal, one cost within each "
                         "node and one cost across nodes")
    return label, c, e


def _water_level(lo: list[float], hi: list[float], need: float) -> float:
    """The level L at which sum_i clamp(L - lo_i, 0, hi_i - lo_i) reaches
    `need`: walk the sorted breakpoints, where the number of senders still
    filling (the slope) changes, and solve the segment that crosses."""
    points = sorted([(x, 1) for x in lo] + [(x, -1) for x in hi])
    level, filled, slope = points[0][0], 0.0, 0
    for x, step in points:
        gain = slope * (x - level)
        if filled + gain >= need:
            return level + (need - filled) / slope
        filled += gain
        level = x
        slope += step
    # float noise left the full node just short of `need`: every sender is drained
    return level


def _northwest(senders, receivers, supply: list[int], demand: list[int],
               fills: list[tuple[int, int, int]]) -> None:
    """North-west fill: the senders, in order, hand their `supply` to the
    receivers' `demand`, in order, appending each (sender, receiver, tokens)
    to `fills`; `demand` keeps what is left. The receivers must want at
    least what the senders hold."""
    pending = iter(receivers)
    j = room = 0
    for i in senders:
        give = supply[i]
        while give:
            while not room:
                j = next(pending)
                room = demand[j]
            moved = min(give, room)
            fills.append((i, j, moved))
            give -= moved
            room -= moved
            demand[j] = room


def solve_remap(counts: list[int], cost: np.ndarray) -> RemapResult:
    """Minimize the maximum per-sender transfer cost of rebalancing `counts`
    to the even target distribution.

    `cost` must be in the block form of `cost_matrix`. Returns the continuous
    minimax optimum as `objective` together with an integer transfer matrix
    whose row/column sums match the surplus/deficit vectors exactly and whose
    max row cost is the integer minimax optimum: each sender's cross-node
    share is the floor of its continuous share, and each token short goes to
    the sender whose next token is cheapest (ties by index). Senders fill
    their in-node deficits in index order, then the cross-node ones.
    """
    a = np.asarray(counts, dtype=np.int64)
    d = len(a)
    t = np.asarray(cost, dtype=float)
    if t.shape != (d, d):
        raise ValueError("cost matrix shape does not match the rank count")
    b = np.asarray(target_distribution(list(counts)), dtype=np.int64)
    label, c, e = _node_blocks(t)
    u = np.maximum(a - b, 0)
    v = np.maximum(b - a, 0)
    if u.sum() == 0:
        return RemapResult(matrix=np.zeros((d, d), dtype=np.int64), objective=0.0, row_costs=np.zeros(d))

    objective = c * float(u.max())
    # ranks grouped by node, in index order within each; a node's first rank
    # is its label, so it opens the node's run
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(order == label[order])
    excess = np.add.reduceat((a - b)[order], starts)
    cross = np.zeros(d, dtype=np.int64)  # tokens each sender pushes off its node
    pushing = np.flatnonzero(excess > 0).tolist()  # only with two or more nodes, so e > c
    grouped, bounds = order.tolist(), starts.tolist() + [d]
    if pushing:
        # Python ints keep the level, and so the objective, a Python float
        ul = u.tolist()
        for n in pushing:
            need = int(excess[n])
            senders = [i for i in grouped[bounds[n]:bounds[n + 1]] if ul[i] > 0]
            level = _water_level([c * ul[i] for i in senders], [e * ul[i] for i in senders], (e - c) * need)
            objective = max(objective, level)
            shares = [min(ul[i], max(0, math.floor((level - c * ul[i]) / (e - c)))) for i in senders]
            # sender i's j-th extra token costs c*u_i + (e - c)*(share + j), never less as j
            # grows, in floats too, so the `short` cheapest (cost, index) are the greedy's picks
            short = need - sum(shares)
            ranked = sorted((c * ul[i] + (e - c) * (s + j), k) for k, (i, s) in enumerate(zip(senders, shares))
                            for j in range(1, min(short, ul[i] - s) + 1))
            for _, k in ranked[:short]:
                shares[k] += 1
            cross[senders] = shares
    # each node's senders keep u - cross in the node, which its deficits
    # take in full when it pushes; only nodes that push nothing off keep
    # deficits, so the cross-node shares' fills all cross nodes
    fills: list[tuple[int, int, int]] = []
    kept, left = (u - cross).tolist(), v.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        _northwest(grouped[lo:hi], grouped[lo:hi], kept, left, fills)
    if pushing:
        _northwest(range(d), range(d), cross.tolist(), left, fills)
    senders, receivers, moved = zip(*fills)
    matrix = np.zeros((d, d), dtype=np.int64)
    matrix[senders, receivers] = moved
    return RemapResult(matrix=matrix, objective=objective, row_costs=(t * matrix).sum(axis=1))
