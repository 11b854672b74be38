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

from .attention_engine import AttentionSchedule, RingGroup, split_even
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
    """One cross-node ring send over proxy ranks: the endpoint-first send and
    receive proxies, the integer share send proxy i hands receive proxy i,
    and the time billed for each dispatch and transfer (link coefficient x
    share); the gather moves the dispatched shares back, so each combine
    bills its dispatch's time. The steps are a view built when read."""

    source_rank: int
    dest_rank: int
    tokens: int
    send_proxies: tuple[int, ...]
    recv_proxies: tuple[int, ...]
    shares: tuple[int, ...]
    dispatch_times: tuple[float, ...]
    transfer_times: tuple[float, ...]

    @property
    def steps(self) -> tuple[RouteStep, ...]:
        """The source's scatter to every other send proxy, the transfers
        across, then every other receive proxy's gather to the destination."""
        return (*(RouteStep(DISPATCH, self.source_rank, proxy, n)
                  for proxy, n in zip(self.send_proxies[1:], self.shares[1:])),
                *(RouteStep(INTER_TRANSFER, s, r, n)
                  for s, r, n in zip(self.send_proxies, self.recv_proxies, self.shares)),
                *(RouteStep(COMBINE, proxy, self.dest_rank, n)
                  for proxy, n in zip(self.recv_proxies[1:], self.shares[1:])))


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
    members = set(ring.members)
    return _proxy_order(cluster, members, src_node, source_rank), _proxy_order(cluster, members, dst_node, dest_rank)


def _proxy_order(cluster: ClusterSpec, members: set[int], node: int, endpoint: int) -> tuple[int, ...]:
    ranks = cluster.ranks_of_node(node)
    ordered = [r for r in ranks if r in members] + [r for r in ranks if r not in members]
    ordered.remove(endpoint)
    return (endpoint, *ordered)


def build_route(
    cluster: ClusterSpec,
    ring: RingGroup,
    source_rank: int,
    dest_rank: int,
    tokens: int,
) -> RoutePlan:
    """Route one cross-node send over dispatch/transfer/combine steps.

    Tokens split evenly in integers over the x = gpus_per_node proxies, the
    endpoints keeping their own shares. Each step takes its share's time on
    its link, within one token per leg of `routed_time(n, x, x)`.
    """
    return _route(cluster, *select_proxies(cluster, ring, source_rank, dest_rank), tokens)


def _route(cluster: ClusterSpec, send_proxies: tuple[int, ...], recv_proxies: tuple[int, ...],
           tokens: int) -> RoutePlan:
    # as many send as receive proxies: send proxy i hands its share to receive proxy i
    shares = tuple(split_even(tokens, len(send_proxies)))
    return RoutePlan(
        send_proxies[0], recv_proxies[0], tokens, send_proxies, recv_proxies, shares,
        tuple(cluster.inv_bw_intra * n for n in shares[1:]), tuple(cluster.inv_bw_inter * n for n in shares),
    )


def route_schedule(
    schedule: AttentionSchedule,
    plan: "PlacementPlan",
    cluster: ClusterSpec,
) -> dict[tuple[int, int, int], RoutePlan]:
    """Build a RoutePlan for every cross-node send of every inter-node ring
    round, keyed by (ring index within schedule.rings(), round, source rank):
    the inter-node rings come first there, so their indices are those of
    schedule.inter_rings.

    A ring sends each position's KV set once per hop, so each crossing hop
    picks its proxies once, and each of its distinct token counts is routed
    once and the same RoutePlan serves every round that sends it.

    Schedules without inter-node rings come back unchanged (empty mapping).
    """
    routes: dict[tuple[int, int, int], RoutePlan] = {}
    for ring_idx, ring_sched in enumerate(schedule.inter_rings):
        ring = ring_sched.ring
        g = ring.group_size
        # each crossing hop's position, source, proxies and routes by token count
        hops = []
        for pos, src in enumerate(ring.members):
            dst = ring.members[(pos + 1) % g]
            if cluster.node_of(src) != cluster.node_of(dst):
                hops.append((pos, src, select_proxies(cluster, ring, src, dst), {}))
        for r in range(g):
            for pos, src, proxies, built in hops:
                tokens = ring_sched.kv_sizes[(pos - r) % g]
                if tokens == 0:
                    continue
                if tokens not in built:
                    built[tokens] = _route(cluster, *proxies, tokens)
                routes[(ring_idx, r, src)] = built[tokens]
    return routes
