"""Three-step decomposition of inter-node ring transfers.

A direct cross-node send of n tokens costs b_inter*n over the sender's single
NIC path. Splitting it over x1 send proxies and x2 receive proxies costs

    b_intra*n*(x1-1)/x1 + b_inter*max(n/x1, n/x2) + b_intra*n*(x2-1)/x2

(dispatch scatter, parallel multi-path exchange, gather at the destination).
With the order-of-magnitude gap between intra- and inter-node bandwidth a
handful of proxies removes most of the cross-node bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .attention_engine import INTER_NODE, AttentionSchedule, RingGroup, split_even
from .topology import ClusterSpec

if TYPE_CHECKING:
    from .partitioner import PlacementPlan

DISPATCH = "dispatch"
INTER_TRANSFER = "inter_transfer"
COMBINE = "combine"


@dataclass(frozen=True)
class RouteStep:
    kind: str  # dispatch | inter_transfer | combine
    source_rank: int
    dest_rank: int
    tokens: int


@dataclass(frozen=True, eq=False)
class RoutePlan:
    """One cross-node ring send over proxy ranks: its dispatch, transfer and
    combine steps and the time billed for each (link coefficient x tokens)."""

    source_rank: int
    dest_rank: int
    tokens: int
    dispatches: tuple[RouteStep, ...]
    transfers: tuple[RouteStep, ...]
    combines: tuple[RouteStep, ...]
    dispatch_times: tuple[float, ...]
    transfer_times: tuple[float, ...]
    combine_times: tuple[float, ...]

    @property
    def steps(self) -> tuple[RouteStep, ...]:
        return self.dispatches + self.transfers + self.combines


def routed_time(cluster: ClusterSpec, n: int | float, x1: int, x2: int) -> float:
    """Cost of moving n tokens across nodes through x1 send / x2 receive proxies."""
    if n < 0:
        raise ValueError("token count must be >= 0")
    if x1 < 1 or x2 < 1:
        raise ValueError("proxy counts must be >= 1")
    bi = cluster.inv_bw_intra
    be = cluster.inv_bw_inter
    return bi * n * (x1 - 1) / x1 + be * max(n / x1, n / x2) + bi * n * (x2 - 1) / x2


def select_proxies(
    cluster: ClusterSpec,
    ring: RingGroup,
    source_rank: int,
    dest_rank: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Pick send/receive proxy ranks for one cross-node ring transfer.

    Every GPU of the source node proxies the send and every GPU of the
    destination node the receive, so both tuples hold gpus_per_node ranks
    and pair one-to-one. Each endpoint comes first, then its node's other ring
    members, then ranks busy with local or intra-node sequences.
    """
    src_node = cluster.node_of(source_rank)
    dst_node = cluster.node_of(dest_rank)
    if src_node == dst_node:
        raise ValueError("proxy selection applies to cross-node transfers only")
    return _proxy_order(cluster, ring, src_node, source_rank), _proxy_order(cluster, ring, dst_node, dest_rank)


def _proxy_order(cluster: ClusterSpec, ring: RingGroup, node: int, endpoint: int) -> tuple[int, ...]:
    ranks = list(cluster.ranks_of_node(node))
    members = [r for r in ranks if r in ring.members]
    others = [r for r in ranks if r not in ring.members]
    ordered = members + others
    ordered.remove(endpoint)
    return (endpoint, *ordered)


def build_route(
    cluster: ClusterSpec,
    ring: RingGroup,
    source_rank: int,
    dest_rank: int,
    tokens: int,
) -> RoutePlan:
    """Expand one cross-node send into dispatch/transfer/combine steps.

    Tokens split evenly in integers over the x = gpus_per_node proxies, the
    endpoints keeping their own shares. Each step takes its share's time on
    its link, within one token per leg of `routed_time(n, x, x)`.
    """
    send_proxies, recv_proxies = select_proxies(cluster, ring, source_rank, dest_rank)
    # as many send as receive proxies: send proxy i hands its share to receive proxy i
    shares = split_even(tokens, len(send_proxies))
    dispatches = tuple(RouteStep(DISPATCH, source_rank, proxy, n) for proxy, n in zip(send_proxies[1:], shares[1:]))
    transfers = tuple(RouteStep(INTER_TRANSFER, s, r, n) for s, r, n in zip(send_proxies, recv_proxies, shares))
    combines = tuple(RouteStep(COMBINE, proxy, dest_rank, n) for proxy, n in zip(recv_proxies[1:], shares[1:]))
    bi = cluster.inv_bw_intra
    be = cluster.inv_bw_inter
    return RoutePlan(
        source_rank, dest_rank, tokens, dispatches, transfers, combines,
        tuple(bi * s.tokens for s in dispatches),
        tuple(be * s.tokens for s in transfers),
        tuple(bi * s.tokens for s in combines),
    )


def route_schedule(
    schedule: AttentionSchedule,
    plan: "PlacementPlan",
    cluster: ClusterSpec,
) -> dict[tuple[int, int, int], RoutePlan]:
    """Build a RoutePlan for every cross-node send of every inter-node ring
    round, keyed by (ring index within schedule.rings(), round, source rank).

    A ring sends each position's KV set once per hop, so its sends repeat a
    few (source, destination, tokens) keys; each key is built once per ring
    and the same RoutePlan serves every round that sends it.

    Schedules without inter-node rings come back unchanged (empty mapping).
    """
    routes: dict[tuple[int, int, int], RoutePlan] = {}
    for ring_idx, ring_sched in enumerate(schedule.rings()):
        ring = ring_sched.ring
        if ring.kind != INTER_NODE:
            continue
        g = ring.group_size
        hops = [(pos, ring.members[pos], ring.members[(pos + 1) % g]) for pos in range(g)]
        crossing = [(pos, src, dst) for pos, src, dst in hops if cluster.node_of(src) != cluster.node_of(dst)]
        built: dict[tuple[int, int, int], RoutePlan] = {}
        for r in range(g):
            for pos, src, dst in crossing:
                tokens = ring_sched.kv_sizes[(pos - r) % g]
                if tokens == 0:
                    continue
                key = (src, dst, tokens)
                if key not in built:
                    built[key] = build_route(cluster, ring, src, dst, tokens)
                routes[(ring_idx, r, src)] = built[key]
    return routes
