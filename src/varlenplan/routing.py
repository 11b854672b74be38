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
    scope: str  # intra | inter


@dataclass(frozen=True)
class RoutePlan:
    """One ring round's cross-node transfer, decomposed over proxy ranks."""

    source_rank: int
    dest_rank: int
    tokens: int
    x1: int
    x2: int
    send_proxies: tuple[int, ...]
    recv_proxies: tuple[int, ...]
    steps: tuple[RouteStep, ...]
    dispatch_time: float
    transfer_time: float
    combine_time: float

    @property
    def routed_time(self) -> float:
        return self.dispatch_time + self.transfer_time + self.combine_time


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
    available: dict[int, int] | None = None,
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """Pick send/receive proxy ranks for one cross-node ring transfer.

    The send proxy count is the minimum of the GPUs available on the source
    and destination nodes (the receive count likewise, so the two match and
    proxies pair one-to-one). Ring members on a node proxy first; ranks busy
    with local or intra-node sequences serve as the remaining proxies. The
    `available` map caps the usable GPU count per node.
    """
    src_node = cluster.node_of(source_rank)
    dst_node = cluster.node_of(dest_rank)
    if src_node == dst_node:
        raise ValueError("proxy selection applies to cross-node transfers only")
    p = cluster.gpus_per_node
    avail = available or {}
    avail_src = min(avail.get(src_node, p), p)
    avail_dst = min(avail.get(dst_node, p), p)
    x1 = max(1, min(avail_src, avail_dst))
    x2 = max(1, min(avail_dst, avail_src))
    send_proxies = _proxy_order(cluster, ring, src_node, source_rank)[:x1]
    recv_proxies = _proxy_order(cluster, ring, dst_node, dest_rank)[:x2]
    return x1, x2, tuple(send_proxies), tuple(recv_proxies)


def _proxy_order(cluster: ClusterSpec, ring: RingGroup, node: int, endpoint: int) -> list[int]:
    ranks = list(cluster.ranks_of_node(node))
    members = [r for r in ranks if r in ring.members]
    others = [r for r in ranks if r not in ring.members]
    ordered = members + others
    ordered.remove(endpoint)
    return [endpoint] + ordered


def build_route(
    cluster: ClusterSpec,
    ring: RingGroup,
    source_rank: int,
    dest_rank: int,
    tokens: int,
    available: dict[int, int] | None = None,
) -> RoutePlan:
    """Expand one cross-node send into dispatch/transfer/combine steps.

    Durations use the continuous division of the cost formula; the emitted
    steps split tokens with the maximally even integer rule. The endpoint
    ranks keep their own shares, so dispatch moves n*(x1-1)/x1 tokens and
    combine n*(x2-1)/x2.
    """
    x1, x2, send_proxies, recv_proxies = select_proxies(cluster, ring, source_rank, dest_rank, available)
    send_shares = split_even(tokens, x1)
    recv_shares = split_even(tokens, x2)
    steps: list[RouteStep] = []
    for proxy, share in zip(send_proxies[1:], send_shares[1:]):
        steps.append(RouteStep(DISPATCH, source_rank, proxy, share, "intra"))
    pairs = max(x1, x2)
    transfer_shares = split_even(tokens, pairs)
    for i, share in enumerate(transfer_shares):
        steps.append(RouteStep(
            INTER_TRANSFER,
            send_proxies[i % x1],
            recv_proxies[i % x2],
            share,
            "inter",
        ))
    for proxy, share in zip(recv_proxies[1:], recv_shares[1:]):
        steps.append(RouteStep(COMBINE, proxy, dest_rank, share, "intra"))
    bi = cluster.inv_bw_intra
    be = cluster.inv_bw_inter
    return RoutePlan(
        source_rank=source_rank,
        dest_rank=dest_rank,
        tokens=tokens,
        x1=x1,
        x2=x2,
        send_proxies=send_proxies,
        recv_proxies=recv_proxies,
        steps=tuple(steps),
        dispatch_time=bi * tokens * (x1 - 1) / x1,
        transfer_time=be * max(tokens / x1, tokens / x2),
        combine_time=bi * tokens * (x2 - 1) / x2,
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
        built: dict[tuple[int, int, int], RoutePlan] = {}
        for r in range(g):
            for pos in range(g):
                src = ring.members[pos]
                dst = ring.members[(pos + 1) % g]
                if cluster.node_of(src) == cluster.node_of(dst):
                    continue
                tokens = ring_sched.kv_sizes[(pos - r) % g]
                if tokens == 0:
                    continue
                key = (src, dst, tokens)
                if key not in built:
                    built[key] = build_route(cluster, ring, src, dst, tokens)
                routes[(ring_idx, r, src)] = built[key]
    return routes
