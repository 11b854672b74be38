import random

import pytest

from varlenplan import routing
from varlenplan.attention_engine import build_schedule
from varlenplan.partitioner import build_plan
from varlenplan.topology import ClusterSpec, cluster_a, direct_transfer_time
from varlenplan.workload import SequenceBatch


def make_cluster(bi=1.0, be=10.0, n=2, p=8, nics=4, cap=100000):
    return ClusterSpec(num_nodes=n, gpus_per_node=p, token_capacity=cap,
                       inv_bw_intra=bi, inv_bw_inter=be, nics_per_node=nics)


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
        x1, x2, send, recv = routing.select_proxies(cluster, ring, 7, 8)
        assert x1 == x2 == 8
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
        assert dispatch == 4096 - 4096 // route.x1
        assert combine == 4096 - 4096 // route.x2
        assert route.routed_time == routing.routed_time(cluster, 4096, route.x1, route.x2)

    def test_step_scopes(self):
        cluster, _ = cluster_a()
        plan = build_plan(SequenceBatch(((0, 65536),)), cluster)
        route = routing.build_route(cluster, plan.ring_groups[0], 7, 8, 4096)
        for step in route.steps:
            if step.kind == routing.INTER_TRANSFER:
                assert cluster.node_of(step.source_rank) != cluster.node_of(step.dest_rank)
                assert step.scope == "inter"
            else:
                assert cluster.node_of(step.source_rank) == cluster.node_of(step.dest_rank)
                assert step.scope == "intra"


class TestRouteSchedule:
    def test_no_inter_rings_means_no_routes(self):
        cluster, _ = cluster_a()
        batch = SequenceBatch(((0, 9000), (1, 9000)))  # two intra-node rings
        plan = build_plan(batch, cluster)
        assert all(r.kind == "intra_node" for r in plan.ring_groups)
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
            assert route.x1 == route.x2 == 8
            # the workload splits into eight per-proxy transfer pieces
            transfers = [s for s in route.steps if s.kind == routing.INTER_TRANSFER]
            assert len(transfers) == 8
        ratio = routes[(0, 0, 7)].routed_time / direct_transfer_time(cluster, 4096, "inter")
        assert 1 / 8 <= ratio <= 1 / 4

    def test_local_hosting_ranks_serve_as_proxies(self):
        cluster, _ = cluster_a()
        # one node-spanning sequence plus a local sequence on node 0
        batch = SequenceBatch(((0, 65536), (1, 512)))
        plan = build_plan(batch, cluster)
        local_rank = next(f.rank for frags in plan.fragments for f in frags if f.sequence_id == 1)
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
