import random

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import reference_route
from varlenplan import routing
from varlenplan.attention_engine import AttentionSchedule, RingGroup, RingSchedule, build_schedule
from varlenplan.partitioner import build_plan
from varlenplan.topology import ClusterSpec, cluster_a, direct_transfer_time
from varlenplan.workload import SequenceBatch


def make_cluster(bi=1.0, be=10.0, n=2, p=8, nics=4, cap=100000):
    return ClusterSpec(num_nodes=n, gpus_per_node=p, token_capacity=cap,
                       inv_bw_intra=bi, inv_bw_inter=be, nics_per_node=nics)


def billed_time(route):
    """A routed send's time as the simulator bills it on idle lanes: the
    dispatch chain, the slowest parallel transfer, then the gather chain,
    which moves the dispatched shares back in the dispatch times."""
    return 2 * sum(route.dispatch_times) + max(route.transfer_times)


class TestRoutedTime:
    def test_single_proxy_recovers_direct_cost(self):
        rng = random.Random(0)
        for _ in range(1000):
            bi = rng.uniform(0.01, 1.0)
            be = bi * rng.uniform(1.0, 50.0)
            n = rng.randint(0, 10**6)
            cluster = make_cluster(bi=bi, be=be)
            assert routing.routed_time(cluster, n, 1, 1) == direct_transfer_time(cluster, n, "inter")

    def test_four_by_four_example(self):
        cluster = make_cluster(bi=1.0, be=10.0)
        assert routing.routed_time(cluster, 1024, 4, 4) == 4096.0

    def test_asymmetric_example(self):
        cluster = make_cluster(bi=1.0, be=10.0)
        assert routing.routed_time(cluster, 1024, 4, 2) == 6400.0

    def test_monotone_in_proxy_count_with_wide_gap(self):
        for ratio in (2.0, 4.0, 16.0):
            cluster = make_cluster(bi=1.0, be=ratio)
            times = [routing.routed_time(cluster, 4096, x, x) for x in range(1, 9)]
            assert all(a >= b for a, b in zip(times, times[1:]))

    def test_best_proxy_choice_never_beats_zero_never_loses_to_direct(self):
        rng = random.Random(1)
        for _ in range(1000):
            bi = rng.uniform(0.01, 1.0)
            be = bi * rng.uniform(1.0, 40.0)
            n = rng.randint(1, 10**6)
            cluster = make_cluster(bi=bi, be=be)
            best = min(routing.routed_time(cluster, n, x1, x2)
                       for x1 in range(1, 9) for x2 in range(1, 9))
            assert best <= direct_transfer_time(cluster, n, "inter") + 1e-9
            assert best > 0

    def test_rejects_bad_arguments(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            routing.routed_time(cluster, -1, 1, 1)
        with pytest.raises(ValueError):
            routing.routed_time(cluster, 10, 0, 1)


class TestProxySelection:
    def test_full_nodes_give_all_gpus(self):
        cluster, _ = cluster_a()
        plan = build_plan(SequenceBatch(((0, 65536),)), cluster)
        ring = plan.ring_groups[0]
        send, recv = routing.select_proxies(cluster, ring, 7, 8)
        assert len(send) == len(recv) == 8
        assert send[0] == 7 and set(send) == set(range(0, 8))
        assert recv[0] == 8 and set(recv) == set(range(8, 16))

    def test_same_node_endpoints_rejected(self):
        cluster, _ = cluster_a()
        plan = build_plan(SequenceBatch(((0, 65536),)), cluster)
        with pytest.raises(ValueError):
            routing.select_proxies(cluster, plan.ring_groups[0], 0, 1)


class TestBuildRoute:
    def test_volume_conservation(self):
        cluster, _ = cluster_a()
        plan = build_plan(SequenceBatch(((0, 65536),)), cluster)
        ring = plan.ring_groups[0]
        route = routing.build_route(cluster, ring, 7, 8, 4096)
        dispatch = sum(s.tokens for s in route.steps if s.kind == routing.DISPATCH)
        transfer = sum(s.tokens for s in route.steps if s.kind == routing.INTER_TRANSFER)
        combine = sum(s.tokens for s in route.steps if s.kind == routing.COMBINE)
        assert transfer == 4096
        # the endpoints keep their own shares
        assert dispatch == 4096 - 4096 // 8
        assert combine == 4096 - 4096 // 8

    @given(p=st.integers(1, 16), bi=st.floats(1e-9, 1.0), gap=st.floats(1.0, 50.0), n=st.integers(0, 10**6))
    def test_billed_time_within_a_token_per_leg_of_the_formula(self, p, bi, gap, n):
        # integer shares bill dispatch and combine up to one intra token
        # under the formula each, and the largest transfer up to one inter
        # token over it
        cluster = make_cluster(bi=bi, be=bi * gap, p=p)
        ring = RingGroup((p - 1, p), (0,))
        route = routing.build_route(cluster, ring, p - 1, p, n)
        formula = routing.routed_time(cluster, n, p, p)
        diff = billed_time(route) - formula
        tol = 1e-9 * formula
        assert -2 * cluster.inv_bw_intra - tol <= diff <= cluster.inv_bw_inter + tol
        if n % p == 0:
            assert diff == pytest.approx(0.0, abs=tol)

    def test_step_scopes(self):
        cluster, _ = cluster_a()
        plan = build_plan(SequenceBatch(((0, 65536),)), cluster)
        route = routing.build_route(cluster, plan.ring_groups[0], 7, 8, 4096)
        for step in route.steps:
            if step.kind == routing.INTER_TRANSFER:
                assert cluster.node_of(step.source_rank) != cluster.node_of(step.dest_rank)
            else:
                assert cluster.node_of(step.source_rank) == cluster.node_of(step.dest_rank)


class TestRouteSchedule:
    def test_no_inter_rings_means_no_routes(self):
        cluster, _ = cluster_a()
        batch = SequenceBatch(((0, 9000), (1, 9000)))  # two intra-node rings
        plan = build_plan(batch, cluster)
        assert [{m // 8 for m in r.members} for r in plan.ring_groups] == [{0}, {1}]
        schedule = build_schedule(plan)
        assert routing.route_schedule(schedule, plan, cluster) == {}

    def test_single_sequence_scenario_routes_every_crossing(self):
        cluster, _ = cluster_a()
        plan = build_plan(SequenceBatch(((0, 65536),)), cluster)
        schedule = build_schedule(plan)
        routes = routing.route_schedule(schedule, plan, cluster)
        # boundary senders 7 and 15, every one of the 16 rounds
        assert len(routes) == 32
        for (ring_idx, r, src), route in routes.items():
            assert src in (7, 15)
            # the workload splits into eight per-proxy transfer pieces
            transfers = [s for s in route.steps if s.kind == routing.INTER_TRANSFER]
            assert len(transfers) == 8
        ratio = billed_time(routes[(0, 0, 7)]) / direct_transfer_time(cluster, 4096, "inter")
        assert 1 / 8 <= ratio <= 1 / 4

    def test_local_hosting_ranks_serve_as_proxies(self):
        cluster, _ = cluster_a()
        # one node-spanning sequence plus a local sequence on node 0
        batch = SequenceBatch(((0, 65536), (1, 512)))
        plan = build_plan(batch, cluster)
        local_rank = next(rank for rank, _, sid, _, _ in plan.placement.tolist() if sid == 1)
        assert plan.zone_of[1] == "local"
        schedule = build_schedule(plan)
        routes = routing.route_schedule(schedule, plan, cluster)
        proxy_ranks = {
            s.source_rank
            for route in routes.values()
            for s in route.steps
            if s.kind == routing.INTER_TRANSFER
        }
        assert local_rank in proxy_ranks


@st.composite
def inter_ring_schedules(draw):
    """A small cluster and a schedule of one or two random inter-node rings
    whose KV sizes repeat, include zeros and fall below the proxy count."""
    p = draw(st.integers(1, 16))
    bi = draw(st.floats(1e-9, 1.0))
    cluster = make_cluster(bi=bi, be=bi * draw(st.floats(1.0, 50.0)), n=draw(st.integers(2, 4)), p=p)
    rings = []
    for _ in range(draw(st.integers(1, 2))):
        members = draw(st.lists(st.integers(0, cluster.num_ranks - 1), min_size=2, max_size=12, unique=True))
        assume(len({m // p for m in members}) >= 2)
        sizes = st.one_of(st.integers(0, 2 * p), st.integers(0, 10**6))
        kv = draw(st.lists(sizes, min_size=len(members), max_size=len(members)))
        g = len(members)
        rings.append(RingSchedule(RingGroup(tuple(members), (0,)), np.zeros((g, g), dtype=np.int64),
                                  tuple(kv)))
    return cluster, AttentionSchedule(tuple(rings), (), ())


class TestRouteProperties:
    @given(inter_ring_schedules())
    def test_routes_follow_their_proxies_and_shares(self, case):
        cluster, schedule = case
        routes = routing.route_schedule(schedule, None, cluster)
        p = cluster.gpus_per_node
        expected = set()
        for ring_idx, ring_sched in enumerate(schedule.rings()):
            members = ring_sched.ring.members
            g = len(members)
            for pos, src in enumerate(members):
                for r in range(g):
                    if src // p != members[(pos + 1) % g] // p and ring_sched.kv_sizes[(pos - r) % g] > 0:
                        expected.add((ring_idx, r, src))
        assert set(routes) == expected
        hop_proxies = {}
        for (ring_idx, r, src), route in routes.items():
            ring_sched = schedule.rings()[ring_idx]
            members = ring_sched.ring.members
            pos = members.index(src)
            dst = members[(pos + 1) % len(members)]
            assert (route.source_rank, route.dest_rank) == (src, dst)
            assert route.tokens == ring_sched.kv_sizes[(pos - r) % len(members)]
            send, recv, shares = route.send_proxies, route.recv_proxies, route.shares
            # every GPU of each node proxies, its endpoint first
            assert send[0] == src and sorted(send) == list(cluster.ranks_of_node(src // p))
            assert recv[0] == dst and sorted(recv) == list(cluster.ranks_of_node(dst // p))
            assert len(shares) == p
            assert sum(shares) == route.tokens
            assert max(shares) - min(shares) <= 1
            assert all(a >= b for a, b in zip(shares, shares[1:]))
            # the derived steps: dispatches, then transfers, then combines
            steps = [(s.kind, s.source_rank, s.dest_rank, s.tokens) for s in route.steps]
            assert steps == [(routing.DISPATCH, src, proxy, n) for proxy, n in zip(send[1:], shares[1:])] \
                + [(routing.INTER_TRANSFER, a, b, n) for a, b, n in zip(send, recv, shares)] \
                + [(routing.COMBINE, proxy, dst, n) for proxy, n in zip(recv[1:], shares[1:])]
            # each time is its link coefficient x its share; a combine bills its dispatch's time
            assert route.dispatch_times == tuple(cluster.inv_bw_intra * n for n in shares[1:])
            assert route.transfer_times == tuple(cluster.inv_bw_inter * n for n in shares)
            hop_proxies.setdefault((ring_idx, src), set()).add((send, recv))
            # the proxies' order and the shares as the routing spec gives them
            reference = reference_route(cluster, ring_sched.ring, src, dst, route.tokens)
            assert (list(send), list(recv), list(shares)) == (reference.send, reference.recv, reference.shares)
        # one proxy choice per (ring, crossing hop)
        assert all(len(choices) == 1 for choices in hop_proxies.values())
