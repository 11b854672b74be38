import dataclasses
import random

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from oracles import check_plan, reference_global_ring
from varlenplan import baselines, partitioner, simulator
from varlenplan.attention_engine import build_schedule, causal_pairs
from varlenplan.partitioner import InfeasibleBatch, build_plan, lay_out_global_ring
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
        assert set(plan.placement[:, 1].tolist()) <= {0, 1}  # one micro-batch per rank

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
        assert plan.placement[:, 1].max() > 1
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


@st.composite
def global_ring_cases(draw):
    """A cluster of 1-4 nodes of 1-8 GPUs and 0-11 sequences, each shorter
    than 2R or from 2R up to twenty times that, by id as the even split
    takes them; with `cut` set, only those longer than it, as hybrid_dp lays out
    its ring-phase sequences."""
    cluster = small_cluster(n=draw(st.integers(1, 4)), p=draw(st.integers(1, 8)))
    two_r = 2 * cluster.num_ranks
    ids = draw(st.lists(st.integers(0, 99), max_size=11, unique=True))
    lengths = [draw(st.integers(1, max(two_r - 1, 1)) | st.integers(two_r, 20 * two_r)) for _ in ids]
    sequences = sorted(zip(ids, lengths))
    cut = draw(st.none() | st.integers(1, 20 * two_r))
    if cut is not None:
        sequences = [(sid, ln) for sid, ln in sequences if ln > cut]
    return sequences, cluster, cut


class TestGlobalRingLayout:
    @settings(max_examples=400)
    @given(global_ring_cases())
    def test_closed_form_matches_the_per_sequence_layout(self, case):
        sequences, cluster, _ = case
        rows, rings = lay_out_global_ring(sequences, cluster)
        ref_rows, ref_rings = reference_global_ring(sequences, cluster)
        assert rows.dtype == ref_rows.dtype and rows.shape == ref_rows.shape
        assert rows.tolist() == ref_rows.tolist()
        assert rings == ref_rings

    def test_cases_draw_every_shape(self):
        # the property above sees one rank, no sequences, lengths on both
        # sides of 2R on a wider ring, and hybrid_dp's cut subsets
        first = settings(phases=[Phase.generate])  # any example will do: skip the shrinking
        find(global_ring_cases(), lambda case: case[1].num_ranks == 1 and case[0], settings=first)
        find(global_ring_cases(), lambda case: case[1].num_ranks > 1 and not case[0], settings=first)
        for short in (True, False):
            find(global_ring_cases(), lambda case: case[1].num_ranks > 2 and len(case[0]) > 2
                 and any((ln < 2 * case[1].num_ranks) == short for _, ln in case[0]), settings=first)
        find(global_ring_cases(), lambda case: case[2] is not None and len(case[0]) > 1, settings=first)

    @pytest.mark.parametrize("name", ["arxiv", "github", "prolong64k"])
    def test_closed_form_matches_on_sampled_batches(self, name):
        for nodes in (2, 8):
            cluster, _ = cluster_a(num_nodes=nodes)
            for seed in range(3):
                batch = sample_batch(preset(name), 32768 * nodes, seed=seed)
                whole = sorted(batch.sequences)
                for sequences in (whole, [(sid, ln) for sid, ln in whole if ln > cluster.token_capacity]):
                    rows, rings = lay_out_global_ring(sequences, cluster)
                    ref_rows, ref_rings = reference_global_ring(sequences, cluster)
                    assert rows.tolist() == ref_rows.tolist() and rings == ref_rings


@pytest.fixture
def calls(monkeypatch):
    """Counts the calls of validate_plan and lay_out_global_ring in the
    partitioner's and the baselines' namespaces, by (namespace, name)."""
    counts: dict[tuple[str, str], list] = {}
    for module in (partitioner, baselines):
        for name in ("validate_plan", "lay_out_global_ring"):
            made = counts[module.__name__.rsplit(".", 1)[1], name] = []

            def counting(*args, _fn=getattr(module, name), _made=made):
                _made.append(args)
                return _fn(*args)

            monkeypatch.setattr(module, name, counting)
    return counts


# a batch zeppelin places on its own levels, and one they cannot place, so
# that it takes the even split
GREEDY = (small_cluster(n=2, p=2, cap=4000), ((0, 5000), (1, 3000), (2, 700)))
FALLBACK = (ClusterSpec(num_nodes=2, gpus_per_node=2, token_capacity=8, inv_bw_intra=0.5, inv_bw_inter=1.0),
            tuple(enumerate((6, 6, 9, 11))))


class TestOneEvenPlanPerBatch:
    def test_te_cp_and_llama_cp_share_the_table(self):
        cluster, sequences = GREEDY
        batch = SequenceBatch(sequences)
        te = baselines.plan_te_cp(batch, cluster)
        llama = baselines.plan_llama_cp(batch, cluster)
        assert llama.placement is te.placement and llama.ring_groups is te.ring_groups
        assert (te.strategy, llama.strategy) == ("te_cp", "llama_cp")
        assert all(getattr(llama, f.name) == getattr(te, f.name)
                   for f in dataclasses.fields(te) if f.name not in ("strategy", "placement"))
        assert llama.meta is not te.meta and llama.sequence_lengths is not te.sequence_lengths

    @pytest.mark.parametrize("case, validations", [(GREEDY, 3), (FALLBACK, 2)], ids=["greedy", "fallback"])
    def test_a_compare_lays_out_and_validates_the_even_split_once(self, calls, case, validations):
        cluster, sequences = case
        batch = SequenceBatch(sequences)
        reports = simulator.compare(batch, cluster, CostCoefficients(attn_quadratic=1e-9), list(baselines.STRATEGIES))
        assert all(r.feasible for r in reports)
        # zeppelin (on its own levels) and hybrid_dp validate their own
        # plans; te_cp, llama_cp and zeppelin's fallback share one
        assert len(calls["partitioner", "validate_plan"]) + len(calls["baselines", "validate_plan"]) == validations
        layouts = calls["partitioner", "lay_out_global_ring"] + calls["baselines", "lay_out_global_ring"]
        assert [args[0] for args in layouts].count(sorted(sequences)) == 1

    def test_each_planner_alone_returns_a_validated_plan(self, calls):
        cluster, sequences = GREEDY
        for planner in (baselines.plan_te_cp, baselines.plan_llama_cp):
            batch = SequenceBatch(sequences)
            plan = planner(batch, cluster)
            (validated, checked, against), = calls["partitioner", "validate_plan"][-1:]
            assert checked is batch and against is cluster and validated.placement is plan.placement
        assert len(calls["partitioner", "validate_plan"]) == 2

    def test_returned_plans_are_their_own(self):
        cluster, sequences = GREEDY
        batch = SequenceBatch(sequences)
        first = baselines.plan_te_cp(batch, cluster)
        first.meta["edited"] = True
        first.sequence_lengths[99] = 1
        first.s0_per_node.append(7)
        second = baselines.plan_te_cp(batch, cluster)
        assert second.placement is first.placement
        assert second.meta == {} and second.sequence_lengths == batch.lengths and second.s0_per_node == [0, 0]

    def test_only_the_same_batch_and_cluster_objects_hit(self, calls):
        cluster, sequences = GREEDY
        batch = SequenceBatch(sequences)
        kept = baselines.plan_te_cp(batch, cluster).placement
        assert baselines.plan_llama_cp(batch, cluster).placement is kept
        equal = SequenceBatch(sequences)
        assert baselines.plan_te_cp(equal, cluster).placement is not kept
        roomier = dataclasses.replace(cluster, token_capacity=cluster.token_capacity + 1)
        assert baselines.plan_te_cp(equal, roomier).placement is not kept
        assert len(calls["partitioner", "lay_out_global_ring"]) == 3

    def test_an_over_capacity_batch_raises_every_time(self, calls):
        cluster = small_cluster(n=1, p=2, cap=10)
        fits = SequenceBatch(((0, 20),))
        kept = baselines.plan_te_cp(fits, cluster).placement
        over = SequenceBatch(((0, 21),))
        for planner in (baselines.plan_te_cp, baselines.plan_llama_cp, baselines.plan_te_cp):
            with pytest.raises(InfeasibleBatch, match="exceeds cluster capacity"):
                planner(over, cluster)
        assert len(calls["partitioner", "lay_out_global_ring"]) == 1
        assert baselines.plan_llama_cp(fits, cluster).placement is kept

    def test_a_fallback_keeps_its_own_meta(self):
        cluster, sequences = FALLBACK
        batch = SequenceBatch(sequences)
        zeppelin = build_plan(batch, cluster)
        assert zeppelin.meta["reconcile_attempts"] == 1
        te = baselines.plan_te_cp(batch, cluster)
        assert te.placement is zeppelin.placement and te.meta == {}
        assert zeppelin.meta == {"s1_restarts": 0, "s0_restarts": [0, 0], "reconcile_attempts": 1}
        assert zeppelin.strategy == "zeppelin" and te.strategy == "te_cp"
