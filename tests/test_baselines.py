import random

import pytest

from oracles import check_plan
from varlenplan import baselines
from varlenplan.attention_engine import build_schedule, causal_pairs
from varlenplan.partitioner import InfeasibleBatch, build_plan
from varlenplan.simulator import simulate
from varlenplan.topology import ClusterSpec, CostCoefficients, cluster_a
from varlenplan.workload import SequenceBatch, preset, sample_batch


def small_cluster(n=2, p=2, cap=4000, bi=1.0, be=10.0):
    return ClusterSpec(num_nodes=n, gpus_per_node=p, token_capacity=cap,
                       inv_bw_intra=bi, inv_bw_inter=be)


class TestTeCp:
    def test_single_sequence_two_ranks(self):
        cluster = small_cluster(n=1, p=2, cap=100)
        plan = baselines.plan_te_cp(SequenceBatch(((0, 8),)), cluster)
        schedule = build_schedule(plan)
        assert len(schedule.rings()) == 1
        ring_sched = schedule.rings()[0]
        assert ring_sched.ring.group_size == 2
        assert ring_sched.num_rounds == 2

    def test_64k_on_16_ranks_round_volume(self):
        cluster, _ = cluster_a()
        batch = sample_batch(preset("arxiv"), 65536, seed=0)
        plan = baselines.plan_te_cp(batch, cluster)
        schedule = build_schedule(plan)
        ring_sched = schedule.rings()[0]
        g = ring_sched.ring.group_size
        assert g == 16
        # each round sends every position's resident KV one hop on, so kv_sizes are the round volumes
        for tokens in ring_sched.kv_sizes:
            assert abs(tokens - 65536 // 16) <= len(batch)

    def test_every_sequence_rides_the_ring(self):
        cluster, _ = cluster_a()
        batch = SequenceBatch(((0, 100), (1, 40000)))
        plan = baselines.plan_te_cp(batch, cluster)
        ring = plan.ring_groups[0]
        assert ring.sequence_ids == (0, 1)

    def test_plans_validate(self):
        cluster, _ = cluster_a()
        for seed in range(10):
            batch = sample_batch(preset("github"), 65536, seed=seed)
            plan = baselines.plan_te_cp(batch, cluster)
            assert check_plan(plan, batch.lengths, cluster) == []

    def test_inter_volume_dominates_hierarchical_plans(self):
        cluster, coeffs = cluster_a()
        rng = random.Random(17)
        for name in ("arxiv", "github", "prolong64k"):
            for _ in range(8):
                batch = sample_batch(preset(name), 65536, seed=rng.randint(0, 10**6))
                te = simulate(baselines.plan_te_cp(batch, cluster), cluster, coeffs)[1]
                zep = simulate(build_plan(batch, cluster), cluster, coeffs)[1]
                assert zep.inter_comm_tokens <= te.inter_comm_tokens
                for a, b in zip(zep.inter_tokens_per_rank, te.inter_tokens_per_rank):
                    assert a <= b


class TestLlamaCp:
    def test_single_rank_has_no_comm(self):
        cluster = small_cluster(n=1, p=1, cap=10000)
        coeffs = CostCoefficients(attn_quadratic=1e-9)
        plan = baselines.plan_llama_cp(SequenceBatch(((0, 100),)), cluster)
        _, report = simulate(plan, cluster, coeffs)
        assert report.inter_comm_tokens == 0
        assert report.intra_comm_tokens == 0

    def test_allgather_formula(self):
        cluster = small_cluster(n=2, p=2, cap=4000, bi=1.0, be=10.0)
        coeffs = CostCoefficients(attn_quadratic=1e-9)
        batch = SequenceBatch(((0, 5000), (1, 3000)))
        plan = baselines.plan_llama_cp(batch, cluster)
        _, report = simulate(plan, cluster, coeffs)
        gather = 10.0 * 8000 * 3 / 4
        compute = 1e-9 * (causal_pairs(5000) + causal_pairs(3000)) / 4
        assert report.attention_makespan == pytest.approx(gather + compute, rel=1e-12)

    def test_comm_never_overlaps_compute(self):
        cluster, coeffs = cluster_a()
        batch = sample_batch(preset("arxiv"), 65536, seed=4)
        timeline, report = simulate(baselines.plan_llama_cp(batch, cluster), cluster, coeffs)
        comm = max(e.end for e in timeline.events if e.stream != "compute")
        computes = [e for e in timeline.events if e.kind == "attn.parallel"]
        assert all(e.start >= comm for e in computes)
        assert report.attention_makespan == pytest.approx(comm + computes[0].duration)

    def test_peak_kv_is_full_gather(self):
        cluster, coeffs = cluster_a()
        batch = sample_batch(preset("arxiv"), 65536, seed=4)
        _, report = simulate(baselines.plan_llama_cp(batch, cluster), cluster, coeffs)
        assert report.peak_kv_tokens == 65536


class TestHybridDp:
    def test_identical_shorts_balance_perfectly(self):
        cluster = small_cluster(n=2, p=2, cap=100)
        batch = SequenceBatch(tuple((i, 50) for i in range(8)))
        plan = baselines.plan_hybrid_dp(batch, cluster)
        assert plan.ring_groups == ()
        assert plan.tokens_per_rank == [100, 100, 100, 100]
        assert plan.micro_batch_counts == [1, 1, 1, 1]

    def test_long_sequences_take_the_ring_path(self):
        cluster, _ = cluster_a()
        batch = SequenceBatch(((0, 40000), (1, 900), (2, 700)))
        plan = baselines.plan_hybrid_dp(batch, cluster)
        assert plan.meta["cp_sequences"] == [0]
        assert plan.zone_of[0] == "inter_node"
        assert plan.zone_of[1] == plan.zone_of[2] == "local"
        assert {sid for _, mb, sid, _, _ in plan.placement.tolist() if mb > 0} == {1, 2}

    def test_overflowing_shorts_split_into_micro_batches(self):
        cluster = small_cluster(n=1, p=2, cap=100)
        batch = SequenceBatch(tuple((i, 60) for i in range(6)))  # 180 tokens per rank
        plan = baselines.plan_hybrid_dp(batch, cluster)
        assert max(plan.micro_batch_counts) > 1
        assert check_plan(plan, batch.lengths, cluster) == []

    def test_sequences_above_device_capacity_forced_to_cp(self):
        cluster = small_cluster(n=1, p=4, cap=100)
        batch = SequenceBatch(((0, 250), (1, 30)))
        plan = baselines.plan_hybrid_dp(batch, cluster)
        assert plan.meta["cp_sequences"] == [0]

    def test_plans_validate(self):
        cluster, _ = cluster_a()
        for seed in range(10):
            batch = sample_batch(preset("prolong64k"), 65536, seed=seed)
            plan = baselines.plan_hybrid_dp(batch, cluster)
            assert check_plan(plan, batch.lengths, cluster) == []


def test_infeasible_batch_rejected_by_all_planners():
    cluster = small_cluster(n=1, p=1, cap=10)
    batch = SequenceBatch(((0, 11),))
    for planner in (baselines.plan_te_cp, baselines.plan_llama_cp, baselines.plan_hybrid_dp):
        with pytest.raises(InfeasibleBatch):
            planner(batch, cluster)
