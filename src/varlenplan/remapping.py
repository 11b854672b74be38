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
    d = cluster.num_ranks
    t = np.full((d, d), cluster.inv_bw_inter, dtype=float)
    for node in range(cluster.num_nodes):
        ranks = list(cluster.ranks_of_node(node))
        t[np.ix_(ranks, ranks)] = cluster.inv_bw_intra
    np.fill_diagonal(t, 0.0)
    return t


@dataclass(frozen=True)
class RemapResult:
    matrix: np.ndarray  # integer token transfers, d x d
    objective: float  # continuous minimax optimum
    row_costs: np.ndarray  # per-sender cost of the integer matrix


def _node_blocks(t: np.ndarray) -> tuple[list[np.ndarray], float, float]:
    """Read the nodes off a cost matrix: (rank indices per node, intra cost c,
    inter cost e). Ranks i and j share a node iff t[i][j] is the smallest
    off-diagonal entry c; anything but a zero-diagonal block form raises."""
    d = len(t)
    off = ~np.eye(d, dtype=bool)
    if d == 1:
        c = e = 0.0
        label = np.zeros(1, dtype=np.int64)
    else:
        c, e = float(t[off].min()), float(t[off].max())
        # each rank is labelled by the first rank of its node
        label = ((t == c) | ~off).argmax(axis=1)
    expected = np.where(off, np.where(label[:, None] == label[None, :], c, e), 0.0)
    if not c >= 0 or not np.array_equal(t, expected):
        raise ValueError("cost matrix must be zero on the diagonal, one cost within each "
                         "node and one cost across nodes")
    return [np.flatnonzero(label == n) for n in np.unique(label)], c, e


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


def _northwest(supply: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Fill each supply onto the demands in index order (north-west corner):
    entry (i, j) is the overlap of supply i's and demand j's slots on the
    line of cumulative tokens. Demand may exceed supply."""
    s, t = np.cumsum(supply), np.cumsum(demand)
    return np.maximum(np.minimum.outer(s, t) - np.maximum.outer(s - supply, t - demand), 0)


def solve_remap(counts: list[int], cost: np.ndarray) -> RemapResult:
    """Minimize the maximum per-sender transfer cost of rebalancing `counts`
    to the even target distribution.

    `cost` must be in the block form of `cost_matrix`. Returns the continuous
    minimax optimum as `objective` together with an integer transfer matrix
    whose row/column sums match the surplus/deficit vectors exactly and whose
    max row cost is the integer minimax optimum: each sender's cross-node
    share is the floor of its continuous share, plus one token at a time for
    the shortfall to the sender left cheapest by it (ties by index). Senders
    fill their in-node deficits in index order, then the cross-node ones.
    """
    a = np.asarray(counts, dtype=np.int64)
    d = len(a)
    t = np.asarray(cost, dtype=float)
    if t.shape != (d, d):
        raise ValueError("cost matrix shape does not match the rank count")
    b = np.asarray(target_distribution(list(counts)), dtype=np.int64)
    nodes, c, e = _node_blocks(t)
    u = np.maximum(a - b, 0)
    v = np.maximum(b - a, 0)
    matrix = np.zeros((d, d), dtype=np.int64)
    if u.sum() == 0:
        return RemapResult(matrix=matrix, objective=0.0, row_costs=np.zeros(d))

    objective = c * float(u.max())
    cross = np.zeros(d, dtype=np.int64)  # tokens each sender pushes off its node
    for members in nodes:
        excess = int(u[members].sum() - v[members].sum())
        if excess > 0:  # only with two or more nodes, so e > c
            senders = [int(i) for i in members if u[i] > 0]
            # Python ints keep the level, and so the objective, a Python float
            level = _water_level([c * int(u[i]) for i in senders], [e * int(u[i]) for i in senders],
                                 (e - c) * excess)
            objective = max(objective, level)
            shares = {i: min(int(u[i]), max(0, math.floor((level - c * u[i]) / (e - c)))) for i in senders}
            for _ in range(excess - sum(shares.values())):
                k = min((i for i in senders if shares[i] < u[i]),
                        key=lambda i: (c * u[i] + (e - c) * (shares[i] + 1), i))
                shares[k] += 1
            cross[senders] = [shares[i] for i in senders]
        matrix[np.ix_(members, members)] = _northwest(u[members] - cross[members], v[members])
    # only nodes that push nothing off keep deficits, so these fills all cross nodes
    matrix += _northwest(cross, v - matrix.sum(axis=0))
    return RemapResult(matrix=matrix, objective=objective, row_costs=(t * matrix).sum(axis=1))
