import dataclasses
import functools
import hashlib
import json
import operator
import random

import numpy as np
import pytest
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

from oracles import check_plan, reference_threshold_fill
from varlenplan import partitioner as pt
from varlenplan.attention_engine import RingGroup, build_schedule, split_even
from varlenplan.baselines import STRATEGIES, plan_te_cp, plan_with
from varlenplan.topology import ClusterSpec, cluster_a
from varlenplan.workload import SequenceBatch, preset, sample_batch


def make_cluster(n=2, p=2, cap=10):
    return ClusterSpec(num_nodes=n, gpus_per_node=p, token_capacity=cap,
                       inv_bw_intra=1.0, inv_bw_inter=2.0)


def bucket_tokens(bucket):
    return sum(tokens for _, tokens in bucket.chunks) + sum(ln for _, ln in bucket.own)


def device_loads(bucket, result, p):
    """Per device: its even share of the bucket's chunks plus the pieces of
    the own sequences level two put on it (piece i of k holds
    split_even(length, k)[i] tokens)."""
    loads = [0] * p
    for _, tokens in bucket.chunks:
        for dev, size in enumerate(split_even(tokens, p)):
            loads[dev] += size
    lengths = dict(bucket.own)
    for sid, devs in result.devices_of.items():
        for dev, size in zip(devs, split_even(lengths[sid], len(devs))):
            loads[dev] += size
    return loads


class TestInterNodePartitioning:
    def test_hand_trace(self):
        # N=2, P=2, L=10: 24 chunks into 12+12, then 6 -> node0, 5 -> node1,
        # 3 -> node1; final loads 18 and 20 within the 20-token node budget
        cluster = make_cluster()
        batch = SequenceBatch(((0, 24), (1, 6), (2, 5), (3, 3)))
        result = pt.partition_inter_node(batch, cluster)
        assert result.s1 == 20
        assert result.restarts == 0
        loads = [bucket_tokens(b) for b in result.buckets]
        assert loads == [18, 20]
        assert result.buckets[0].chunks == [(0, 12)]
        assert result.buckets[1].chunks == [(0, 12)]
        assert result.buckets[0].own == [(1, 6)]
        assert result.buckets[1].own == [(2, 5), (3, 3)]

    def test_single_node_keeps_sequence_whole(self):
        cluster = make_cluster(n=1, p=4, cap=10)
        batch = SequenceBatch(((0, 30),))
        result = pt.partition_inter_node(batch, cluster)
        assert result.buckets[0].own == [(0, 30)]
        assert result.buckets[0].chunks == []
        assert result.s1 == 40

    def test_single_node_chunk_at_threshold(self):
        # a sequence at the node budget enters the chunked tier but stays in
        # one piece on a single node
        cluster = make_cluster(n=1, p=4, cap=10)
        result = pt.partition_inter_node(SequenceBatch(((0, 40),)), cluster)
        assert result.buckets[0].chunks == [(0, 40)]
        assert result.buckets[0].own == []
        assert result.s1 == 40

    def test_empty_batch(self):
        cluster = make_cluster()
        result = pt.partition_inter_node(SequenceBatch(()), cluster)
        assert all(bucket_tokens(b) == 0 for b in result.buckets)
        assert result.s1 == 20

    def test_threshold_drops_when_whole_sequences_overflow(self):
        # 15 + 15 + 9 on two 20-token nodes: whole placement overflows twice,
        # the threshold walks down to 9 and everything enters the chunked tier
        cluster = make_cluster()
        batch = SequenceBatch(((0, 15), (1, 15), (2, 9)))
        result = pt.partition_inter_node(batch, cluster)
        assert result.restarts >= 1
        assert result.s1 == 9
        assert all(b.own == [] for b in result.buckets)
        loads = [bucket_tokens(b) for b in result.buckets]
        assert all(load <= 20 for load in loads)
        assert sum(loads) == 39

    def test_infeasible_batch_raises(self):
        cluster = make_cluster()
        with pytest.raises(pt.InfeasibleBatch):
            pt.partition_inter_node(SequenceBatch(((0, 41),)), cluster)

    def test_chunks_sum_to_length_on_distinct_nodes(self):
        cluster = make_cluster(n=4, p=2, cap=100)
        batch = SequenceBatch(((0, 700),))
        result = pt.partition_inter_node(batch, cluster)
        chunks = [(node, tokens) for node, b in enumerate(result.buckets) for sid, tokens in b.chunks if sid == 0]
        assert sum(tokens for _, tokens in chunks) == 700
        assert sorted(node for node, _ in chunks) == [0, 1, 2, 3]


class TestIntraNodePartitioning:
    def test_hand_trace_with_chunk(self):
        # P=2, L=16: an 8-token chunk splits 4+4, then 10 -> dev0, 4 -> dev1,
        # 3 -> dev1; loads 14 and 11
        cluster = make_cluster(p=2, cap=16)
        bucket = pt.NodeBucket(chunks=[(9, 8)], own=[(0, 10), (1, 4), (2, 3)])
        result = pt.partition_intra_node(bucket, cluster)
        assert result.s0 == 16
        assert device_loads(bucket, result, 2) == [14, 11]
        assert result.devices_of == {0: [0], 1: [1], 2: [1]}

    def test_tie_breaks_choose_lowest_device(self):
        cluster = make_cluster(p=2, cap=32)
        bucket = pt.NodeBucket(own=[(0, 20), (1, 20)])
        result = pt.partition_intra_node(bucket, cluster)
        assert result.s0 == 32
        assert device_loads(bucket, result, 2) == [20, 20]
        assert result.devices_of[0] == [0]

    def test_sequence_filling_single_device_node_stays_local(self):
        # length == s0 puts it in the split tier, where one device takes all
        cluster = make_cluster(p=1, cap=16)
        bucket = pt.NodeBucket(own=[(0, 16)])
        result = pt.partition_intra_node(bucket, cluster)
        assert result.s0 == 16
        assert result.devices_of == {0: [0]}

    def test_sequence_at_threshold_splits_across_devices(self):
        # length == s0 lands in the split tier: its quadratic work spreads
        # over the devices even though it would fit one exactly
        cluster = make_cluster(p=2, cap=16)
        bucket = pt.NodeBucket(own=[(0, 16)])
        result = pt.partition_intra_node(bucket, cluster)
        assert result.s0 == 16
        assert result.devices_of == {0: [0, 1]}
        assert device_loads(bucket, result, 2) == [8, 8]

    def test_threshold_iteration_splits_oversized_locals(self):
        # 12 + 10 + 10 on two 16-token devices: whole placement overflows,
        # the threshold drops and the larger sequences split
        cluster = make_cluster(p=2, cap=16)
        bucket = pt.NodeBucket(own=[(0, 12), (1, 10), (2, 10)])
        result = pt.partition_intra_node(bucket, cluster)
        assert result.restarts >= 1
        assert any(len(devs) == 2 for devs in result.devices_of.values())
        loads = device_loads(bucket, result, 2)
        assert max(loads) <= 16
        assert sum(loads) == 32


class TestBuildPlan:
    def test_one_token_batch(self):
        cluster = make_cluster()
        plan = pt.build_plan(SequenceBatch(((0, 1),)), cluster)
        assert plan.zone_of == {0: "local"}
        assert plan.ring_groups == ()
        assert plan.placement.tolist() == [[0, 0, 0, 0, 1]]
        assert plan.tokens_per_rank == [1, 0, 0, 0]

    def test_composed_hand_trace_covers_everything(self):
        cluster = make_cluster()
        batch = SequenceBatch(((0, 24), (1, 6), (2, 5), (3, 3)))
        plan = pt.build_plan(batch, cluster)
        assert check_plan(plan, batch.lengths, cluster) == []
        assert plan.zone_of[0] == "inter_node"
        assert plan.s1 == 20
        assert plan.meta["reconcile_attempts"] == 0
        # the one ring that spans nodes, listed first
        spans = [len({m // cluster.gpus_per_node for m in r.members}) for r in plan.ring_groups]
        assert spans == [2, 1, 1] and plan.ring_groups[0].members == (0, 1, 2, 3)

    def test_exact_capacity_single_sequence(self):
        cluster = make_cluster(n=2, p=2, cap=10)
        plan = pt.build_plan(SequenceBatch(((0, 40),)), cluster)
        assert check_plan(plan, {0: 40}, cluster) == []
        assert plan.tokens_per_rank == [10, 10, 10, 10]

    def test_tight_mixed_batch_reconciles(self):
        # 12 + 5 + 3 = 20 tokens on one 2x10 node pair's worth of capacity
        cluster = make_cluster(n=2, p=2, cap=5)
        batch = SequenceBatch(((0, 12), (1, 5), (2, 3)))
        plan = pt.build_plan(batch, cluster)
        assert check_plan(plan, batch.lengths, cluster) == []

    def test_random_small_batches_always_validate(self):
        rng = random.Random(99)
        for trial in range(300):
            n = rng.choice([1, 2, 3])
            p = rng.choice([1, 2, 4])
            cap = rng.randint(4, 40)
            count = rng.randint(0, 6)
            lengths = [rng.randint(1, n * p * cap) for _ in range(count)]
            if sum(lengths) > n * p * cap:
                continue
            cluster = make_cluster(n=n, p=p, cap=cap)
            batch = SequenceBatch(tuple(enumerate(lengths)))
            plan = pt.build_plan(batch, cluster)
            problems = check_plan(plan, batch.lengths, cluster)
            assert problems == [], (lengths, n, p, cap, problems)

    def test_final_thresholds_bounded(self):
        cluster, _ = cluster_a()
        for seed in range(5):
            batch = sample_batch(preset("github"), 65536, seed=seed)
            plan = pt.build_plan(batch, cluster)
            assert plan.s1 <= cluster.gpus_per_node * cluster.token_capacity
            assert all(s0 <= cluster.token_capacity for s0 in plan.s0_per_node)

    def test_iteration_counts_bounded_by_sequence_count(self):
        cluster, _ = cluster_a()
        for seed in range(5):
            batch = sample_batch(preset("prolong64k"), 65536, seed=seed)
            plan = pt.build_plan(batch, cluster)
            s = len(batch)
            assert plan.meta["s1_restarts"] <= s
            assert all(r <= s for r in plan.meta["s0_restarts"])

    def test_plan_json_round_trip(self, tmp_path):
        cluster, _ = cluster_a()
        batch = sample_batch(preset("arxiv"), 65536, seed=2)
        plan = pt.build_plan(batch, cluster)
        path = tmp_path / "plan.json"
        pt.save_plan(str(path), plan)
        loaded = pt.load_plan(str(path))
        assert loaded.placement.tolist() == plan.placement.tolist()
        assert loaded.ring_groups == plan.ring_groups
        assert loaded.zone_of == plan.zone_of
        assert loaded.tokens_per_rank == plan.tokens_per_rank

    def test_plan_from_json_rejects_fields_that_disagree_with_fragments(self):
        cluster, _ = cluster_a()
        batch = SequenceBatch(((0, 40000), (1, 512), (2, 3000)))
        text = pt.plan_to_json(pt.build_plan(batch, cluster))
        for member in (-3, 16):
            off_plan = json.loads(text)
            off_plan["rings"][0]["members"][1] = member
            with pytest.raises(ValueError, match=r"ring members \[.*\] are not ranks 0..15"):
                pt.plan_from_json(json.dumps(off_plan))
        extra_rank = json.loads(text)
        extra_rank["placement"].append([16, 0, 1, 0, 1])
        with pytest.raises(ValueError, match="placement rows name ranks outside 0..15"):
            pt.plan_from_json(json.dumps(extra_rank))
        for key in ("strategy", "num_nodes", "gpus_per_node", "s1", "s0_per_node", "sequence_lengths", "placement",
                    "rings", "meta"):
            missing = json.loads(text)
            del missing[key]
            with pytest.raises(ValueError, match="malformed plan file"):
                pt.plan_from_json(json.dumps(missing))
        for key in ("members", "sequence_ids"):
            missing = json.loads(text)
            del missing["rings"][0][key]
            with pytest.raises(ValueError, match="malformed plan file"):
                pt.plan_from_json(json.dumps(missing))

    def test_plan_from_json_rejects_short_rows_and_repeated_ids(self):
        cluster, _ = cluster_a()
        text = pt.plan_to_json(pt.build_plan(SequenceBatch(((0, 40000), (1, 512), (2, 3000))), cluster))
        short = json.loads(text)
        short["placement"][0].pop()
        with pytest.raises(ValueError, match="placement rows must be lists of 5 integers"):
            pt.plan_from_json(json.dumps(short))
        # a repeated id is rejected, not folded into one entry
        repeated = json.loads(text)
        repeated["sequence_lengths"].append([1, 512])
        with pytest.raises(ValueError, match="sequence_lengths repeat a sequence id"):
            pt.plan_from_json(json.dumps(repeated))
        for pairs in ([[0, 40000, 1]], [{"0": 40000}]):
            edited = json.loads(text)
            edited["sequence_lengths"] = pairs
            with pytest.raises(ValueError, match=r"sequence_lengths must be \[id, length\] pairs"):
                pt.plan_from_json(json.dumps(edited))

    def test_plan_from_json_reads_fragments_in_any_order(self):
        # a file may list its placement rows out of execution order; the
        # loaded table is sorted all the same
        cluster, _ = cluster_a()
        plan = pt.build_plan(SequenceBatch(((0, 40000), (1, 512), (2, 3000))), cluster)
        payload = json.loads(pt.plan_to_json(plan))
        payload["placement"].reverse()
        payload["sequence_lengths"].reverse()
        loaded = pt.plan_from_json(json.dumps(payload))
        assert loaded.placement.tolist() == plan.placement.tolist()
        assert pt.plan_to_json(loaded) == pt.plan_to_json(plan)

    def test_plan_from_json_rejects_values_that_are_not_integers(self):
        cluster, _ = cluster_a()
        text = pt.plan_to_json(pt.build_plan(SequenceBatch(((0, 40000), (1, 512), (2, 3000))), cluster))
        edits = {
            "rank": lambda p: p["placement"][0].__setitem__(0, "0"),
            "sequence id": lambda p: p["placement"][0].__setitem__(2, float(p["placement"][0][2])),
            "length": lambda p: p["sequence_lengths"][1].__setitem__(1, 512.0),
            "length's id": lambda p: p["sequence_lengths"][1].__setitem__(0, "1"),
            "start": lambda p: p["placement"][0].__setitem__(3, 0.5),
            "end": lambda p: p["placement"][0].__setitem__(4, p["placement"][0][4] - 0.5),
            "micro_batch": lambda p: p["placement"][0].__setitem__(1, False),
            "ring member": lambda p: p["rings"][0]["members"].__setitem__(0, float(p["rings"][0]["members"][0])),
            "ring sequence id": lambda p: p["rings"][0]["sequence_ids"].__setitem__(0, True),
            "s1": lambda p: p.update(s1="x"),
            "s1 as bool": lambda p: p.update(s1=True),
            "s0_per_node": lambda p: p.update(s0_per_node=["a", None]),
            "num_nodes": lambda p: p.update(num_nodes=float(p["num_nodes"])),
            "gpus_per_node": lambda p: p.update(gpus_per_node=True),
        }
        for name, edit in edits.items():
            edited = json.loads(text)
            edit(edited)
            with pytest.raises(ValueError, match="must be integers"):
                pt.plan_from_json(json.dumps(edited))
        # one s0 threshold per node, as a list
        for s0, error in ((0, "s0_per_node must be a list"), ([0], "lists 1 s0 thresholds for 2 nodes"),
                          ({"0": 0, "1": 0}, "s0_per_node must be a list")):
            edited = json.loads(text)
            edited["s0_per_node"] = s0
            with pytest.raises(ValueError, match=error):
                pt.plan_from_json(json.dumps(edited))
        # the placement table holds int64
        edited = json.loads(text)
        edited["placement"][0][4] = 2**64
        with pytest.raises(ValueError, match="plan file's integers must fit in 64 bits"):
            pt.plan_from_json(json.dumps(edited))

    @settings(max_examples=400)
    @given(st.data())
    def test_plan_from_json_raises_only_value_error_on_a_mutated_file(self, data):
        # drop one key, insert one beside it, or give one value another JSON
        # type, anywhere in a plan file but inside meta, whose contents are
        # free-form
        payload = json.loads(_mutation_base())
        paths = list(_json_paths(payload))
        *where, key = data.draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, where, payload)
        edits = ["drop", "insert", "retype"] if isinstance(parent, dict) else ["retype"]
        edit = data.draw(st.sampled_from(edits))
        if edit == "drop":
            del parent[key]
        elif edit == "insert":
            parent[data.draw(st.text(max_size=5).filter(lambda k: k not in parent))] = data.draw(JSON_VALUES)
        else:
            old = type(parent[key])
            parent[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not old))
        with pytest.raises(ValueError):
            pt.plan_from_json(json.dumps(payload))

    @pytest.mark.parametrize("edit, error", [
        (lambda plan, ring: {"placement": [(r, int(s == 1), s, a, b) for r, _, s, a, b in plan.placement.tolist()]},
         "sequence 1 has a fragment off its ring's micro-batch 0"),
        (lambda plan, ring: {"ring_groups": (dataclasses.replace(ring, members=(0, 1, 2)),)},
         "has a fragment off its ring's micro-batch 0"),
        (lambda plan, ring: {"ring_groups": (ring, RingGroup((0, 1), (1,)))},
         "sequence 1 rides two rings"),
        (lambda plan, ring: {"ring_groups": (dataclasses.replace(ring, sequence_ids=(1,)),)},
         "sequence 0 is split but rides no ring"),
        (lambda plan, ring: {"ring_groups": (dataclasses.replace(ring, members=(0, 1, 2, 2)),)},
         "ring members are not distinct ranks"),
        (lambda plan, ring: {"ring_groups": (dataclasses.replace(ring, sequence_ids=(0, 1, 9)),)},
         "a ring carries sequence 9, which the batch lacks"),
        (lambda plan, ring: {"placement": [(r, m, s if s == 0 else 9, a, b) for r, m, s, a, b in plan.placement.tolist()]},
         "a fragment holds sequence 9, which the batch lacks"),
    ], ids=["micro_batch", "off_member", "two_rings", "split_unringed", "repeated_member", "unknown_ringed",
            "unknown_fragment"])
    def test_validate_plan_checks_the_ring_layout(self, edit, error):
        cluster = make_cluster(n=2, p=2, cap=40)
        batch = SequenceBatch(((0, 24), (1, 6)))
        plan = plan_te_cp(batch, cluster)
        (ring,) = plan.ring_groups
        broken = dataclasses.replace(plan, **edit(plan, ring))
        with pytest.raises(pt.PlanValidationError, match=error):
            pt.validate_plan(broken, batch, cluster)
        assert check_plan(broken, batch.lengths, cluster) != []

    @pytest.mark.parametrize("moves, error", [
        # rank 0 over capacity, and rank 3's fragment of ringed sequence 1 at micro-batch 1
        ({(1, 0, 1, 1, 2): (0, 0, 1, 1, 2), (3, 0, 1, 3, 4): (3, 1, 1, 3, 4)},
         "^sequence 1 has a fragment off its ring's micro-batch 0$"),
        # rank 0 over capacity, and sequence 0's range [6, 9) moved to [7, 10)
        ({(1, 0, 1, 1, 2): (0, 0, 1, 1, 2), (2, 0, 0, 6, 9): (2, 0, 0, 7, 10)},
         "^rank 0 exceeds token capacity$"),
    ], ids=["off_ring_before_capacity", "capacity_before_tiling"])
    def test_validate_plan_names_the_first_fault_class(self, moves, error):
        # fault classes are checked in one order: unknown sequence, off its
        # ring, negative micro-batch, capacity, tiling, coverage, split
        cluster = make_cluster(n=2, p=2, cap=8)
        batch = SequenceBatch(((0, 24), (1, 6)))
        plan = plan_te_cp(batch, cluster)
        assert plan.tokens_per_rank == [8, 8, 7, 7]
        broken = dataclasses.replace(plan, placement=[moves.get(tuple(row), row) for row in plan.placement.tolist()])
        assert broken.tokens_per_rank[0] == 9
        with pytest.raises(pt.PlanValidationError, match=error):
            pt.validate_plan(broken, batch, cluster)
        assert check_plan(broken, batch.lengths, cluster) != []

    @pytest.mark.parametrize("moves, error", [
        # sequence 1 off its ring on rank 1, sequence 0 on rank 3: the first
        # offender is taken in (sequence, start) order, not in rank order
        ({(1, 0, 1, 1, 2): (1, 1, 1, 1, 2), (3, 0, 0, 9, 12): (3, 1, 0, 9, 12)},
         "^sequence 0 has a fragment off its ring's micro-batch 0$"),
        # a fragment of unknown sequence 9 on rank 3, sequence 0 off its ring on rank 0
        ({(3, 0, 1, 3, 4): (3, 0, 9, 3, 4), (0, 0, 0, 0, 3): (0, 1, 0, 0, 3)},
         "^a fragment holds sequence 9, which the batch lacks$"),
        # sequence 1's [2, 3) moved onto [3, 4), sequence 0's [12, 15) onto [13, 16)
        ({(2, 0, 1, 2, 3): (2, 0, 1, 3, 4), (3, 0, 0, 12, 15): (3, 0, 0, 13, 16)},
         r"^sequence 0 fragments do not tile \[0, 24\)$"),
    ], ids=["off_ring_by_sequence", "unknown_before_off_ring", "tiling_by_sequence"])
    def test_validate_plan_names_the_first_offender_of_the_first_fault_class(self, moves, error):
        cluster = make_cluster(n=2, p=2, cap=40)
        batch = SequenceBatch(((0, 24), (1, 6)))
        plan = plan_te_cp(batch, cluster)
        rows = plan.placement.tolist()
        assert all(list(row) in rows for row in moves)
        broken = dataclasses.replace(plan, placement=[moves.get(tuple(row), row) for row in rows])
        with pytest.raises(pt.PlanValidationError, match=error):
            pt.validate_plan(broken, batch, cluster)
        assert check_plan(broken, batch.lengths, cluster) != []

    def test_validate_plan_checks_the_sequence_ids(self):
        # the plan covers sequences 0 and 1; the batch holds a sequence 2 too
        cluster = make_cluster(n=2, p=2, cap=40)
        plan = plan_te_cp(SequenceBatch(((0, 24), (1, 6))), cluster)
        batch = SequenceBatch(((0, 24), (1, 6), (2, 1)))
        with pytest.raises(pt.PlanValidationError, match="^plan covers a different sequence id set than the batch$"):
            pt.validate_plan(plan, batch, cluster)
        assert check_plan(plan, batch.lengths, cluster) != []

    def test_infeasible_total_raises(self):
        cluster = make_cluster()
        with pytest.raises(pt.InfeasibleBatch):
            pt.build_plan(SequenceBatch(((0, 30), (1, 30))), cluster)


@st.composite
def small_clusters_and_batches(draw):
    """1-4 nodes of 1-8 GPUs with small capacities, and a batch cut at
    random into 1-8 sequences whose total fills the cluster up to 100%, or
    one token past it; about half the draws fill it to within 3 tokens, where the
    greedy levels run out of room."""
    cluster = make_cluster(n=draw(st.integers(1, 4)), p=draw(st.integers(1, 8)), cap=draw(st.integers(1, 16)))
    room = cluster.num_ranks * cluster.token_capacity
    total = draw(st.integers(max(room - 3, 1), room + 1) | st.integers(1, room + 1))
    cuts = draw(st.lists(st.integers(1, max(total - 1, 1)), max_size=min(7, total - 1), unique=True))
    bounds = [0, *sorted(cuts), total]
    return cluster, SequenceBatch(tuple(enumerate(b - a for a, b in zip(bounds, bounds[1:]))))


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    st.lists(st.integers(), max_size=3), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@functools.cache
def _mutation_base() -> str:
    """A zeppelin plan file with an inter-node ring, local rows and meta."""
    cluster, _ = cluster_a(num_nodes=2)
    return pt.plan_to_json(pt.build_plan(SequenceBatch(((0, 70000), (1, 512), (2, 3000), (3, 9))), cluster))


def _json_paths(value, path=()):
    """The key path of every value inside a JSON document, meta's contents
    excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield (*path, key)
        if path or key != "meta":
            yield from _json_paths(child, (*path, key))


def pinned_plan_cases():
    """cluster_a at 1-8 nodes with 32k tokens per node, then 500 seeded random
    small clusters with batches up to their capacity (half of them within
    3 tokens of it, where the levels restart and fall back)."""
    for n in (1, 2, 4, 8):
        cluster, _ = cluster_a(num_nodes=n)
        for name in ("arxiv", "github", "prolong64k"):
            for seed in range(5):
                yield sample_batch(preset(name), 32768 * n, seed=seed), cluster
    rng = random.Random(2024)
    for _ in range(500):
        cluster = make_cluster(n=rng.randint(1, 4), p=rng.randint(1, 8), cap=rng.randint(1, 16))
        room = cluster.num_ranks * cluster.token_capacity
        total = rng.randint(max(room - 3, 1), room) if rng.random() < 0.5 else rng.randint(1, room)
        cuts = sorted(rng.sample(range(1, total), min(rng.randint(0, 7), total - 1)))
        bounds = [0, *cuts, total]
        yield SequenceBatch(tuple(enumerate(b - a for a, b in zip(bounds, bounds[1:])))), cluster


def plans_digest(plans) -> str:
    digest = hashlib.sha256()
    for plan in plans:
        digest.update(pt.plan_to_json(plan).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class TestPinnedPlans:
    # sha256 over format-3 plan files; a change that means to move a plan, or
    # to change the file format, updates the digest and says so
    DIGEST = "bc86b3c908abb4c8b5de8e792f6c2c04e867ddf6f6679147852085524615c7f7"
    BASELINES_DIGEST = "3cc307737f04d4e3603413f65c9555814737048dd37b90acea3f54eeef598b66"
    FALLBACK_DIGEST = "7fbad2c6fd00cf26acb8b84a7feee451356545c313ed10b47a88343321c7e073"

    def test_greedy_plans_are_byte_identical(self):
        plans = (pt.build_plan(batch, cluster) for batch, cluster in pinned_plan_cases())
        assert plans_digest(plans) == self.DIGEST

    def test_baseline_plans_are_byte_identical(self):
        plans = (plan_with(strategy, batch, cluster) for batch, cluster in pinned_plan_cases()
                 for strategy in ("te_cp", "llama_cp", "hybrid_dp"))
        assert plans_digest(plans) == self.BASELINES_DIGEST

    def test_fallback_plans_at_scale_are_byte_identical(self):
        # cluster_a at 57,344 tokens per node: the greedy levels give up on
        # 19 of these 225 batches, which take the even split
        fallbacks = []
        for n in (2, 4, 8):
            cluster, _ = cluster_a(num_nodes=n)
            for name in ("arxiv", "github", "prolong64k"):
                for seed in range(25):
                    plan = pt.build_plan(sample_batch(preset(name), 57344 * n, seed=seed), cluster)
                    if plan.meta["reconcile_attempts"]:
                        fallbacks.append(plan)
        assert len(fallbacks) == 19
        assert plans_digest(fallbacks) == self.FALLBACK_DIGEST


class TestLevelInvariants:
    @settings(max_examples=300)
    @given(small_clusters_and_batches())
    def test_levels_fill_within_capacity_or_raise(self, case):
        cluster, batch = case
        p, cap = cluster.gpus_per_node, cluster.token_capacity
        try:
            inter = pt.partition_inter_node(batch, cluster)
        except pt.InfeasibleBatch:
            return
        assert inter.restarts <= len(batch)
        nodes_of, tokens_of = {}, {}
        for node, bucket in enumerate(inter.buckets):
            assert bucket_tokens(bucket) <= p * cap
            assert all(tokens >= 1 for _, tokens in bucket.chunks + bucket.own)
            assert all(ln < inter.s1 for _, ln in bucket.own)
            for sid, tokens in bucket.chunks + bucket.own:
                nodes_of.setdefault(sid, []).append(node)
                tokens_of[sid] = tokens_of.get(sid, 0) + tokens
        assert tokens_of == batch.lengths
        assert all(len(set(nodes)) == len(nodes) for nodes in nodes_of.values())
        for bucket in inter.buckets:
            try:
                intra = pt.partition_intra_node(bucket, cluster)
            except pt.InfeasibleBatch:
                continue
            assert intra.restarts <= len(bucket.own)
            # each own sequence lands on 1..length distinct devices, each
            # piece nonempty, so its tokens are all placed
            assert sorted(intra.devices_of) == sorted(sid for sid, _ in bucket.own)
            for sid, ln in bucket.own:
                devs = intra.devices_of[sid]
                assert 1 <= len(devs) <= ln and len(set(devs)) == len(devs)
            # the fill puts a piece only where it fits; the chunks' even
            # shares are the starting loads, which it does not check
            loads = device_loads(bucket, intra, p)
            assert all(loads[d] <= cap for devs in intra.devices_of.values() for d in devs)


@st.composite
def fill_cases(draw):
    """A threshold fill's inputs: 1-8 items with distinct ids in any order,
    1-6 bins of 1-30 tokens with start loads up to half the cap, a power of
    1 or 2 and an order name. As in `small_clusters_and_batches`, the items
    fill the free room up to 100% or one token past it, about half the
    draws to within 3 tokens."""
    cap = draw(st.integers(1, 30))
    loads = draw(st.lists(st.integers(0, cap // 2), min_size=1, max_size=6))
    room = sum(cap - load for load in loads)
    total = draw(st.integers(max(room - 3, 1), room + 1) | st.integers(1, room + 1))
    cuts = draw(st.lists(st.integers(1, max(total - 1, 1)), max_size=min(7, total - 1), unique=True))
    bounds = [0, *sorted(cuts), total]
    lengths = [b - a for a, b in zip(bounds, bounds[1:])]
    ids = draw(st.permutations(range(len(lengths))))
    return list(zip(ids, lengths)), loads, cap, draw(st.sampled_from([1, 2])), \
        draw(st.sampled_from(["least_loaded", "round_robin"]))


def fill_outcome(fill, items, loads, cap, power, order):
    try:
        return fill(items, loads, cap, power, order)
    except pt.InfeasibleBatch:
        return "infeasible"


class TestThresholdFill:
    ORDERS = {"least_loaded": pt._least_loaded, "round_robin": pt._round_robin}

    def library(self, items, loads, cap, power, order):
        return fill_outcome(pt._threshold_fill, items, loads, cap, power, self.ORDERS[order])

    @settings(max_examples=500)
    @given(fill_cases())
    def test_matches_the_candidate_list_reference(self, case):
        items, loads, cap, power, order = case
        start = list(loads)
        assert self.library(*case) == fill_outcome(reference_threshold_fill, *case)
        assert loads == start

    def test_cases_draw_restarts_splits_and_failures(self):
        # the property above sees restarts and items split into uneven
        # pieces under both orders, and fills that fail; no shrinking, as
        # any example will do
        def draws(condition):
            find(fill_cases(), condition, settings=settings(phases=[Phase.generate]))

        for order in self.ORDERS:
            placed = lambda case: case[4] == order and self.library(*case) != "infeasible"
            draws(lambda case: placed(case) and self.library(*case)[1] > 0)
            draws(lambda case: placed(case) and any(len({size for _, size in pieces}) > 1
                                                    for pieces in self.library(*case)[2].values()))
        draws(lambda case: self.library(*case) == "infeasible")


class TestEvenSplitFallback:
    def test_batch_the_greedy_levels_cannot_place(self):
        # node 1's bucket does not spread over its devices; the even split puts 8 tokens on each rank
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=2, token_capacity=8,
                              inv_bw_intra=0.5, inv_bw_inter=1.0)
        batch = SequenceBatch(tuple(enumerate((6, 6, 9, 11))))
        plan = pt.build_plan(batch, cluster)
        assert check_plan(plan, batch.lengths, cluster) == []
        assert plan.meta["reconcile_attempts"] == 1
        assert plan.tokens_per_rank == [8, 8, 8, 8]
        assert plan.strategy == "zeppelin"

    @settings(max_examples=300)
    @given(small_clusters_and_batches())
    def test_feasible_exactly_when_te_cp_is(self, case):
        cluster, batch = case
        try:
            plan_te_cp(batch, cluster)
            te_cp_places = True
        except pt.InfeasibleBatch:
            te_cp_places = False
        if not te_cp_places:
            with pytest.raises(pt.InfeasibleBatch):
                pt.build_plan(batch, cluster)
            return
        plan = pt.build_plan(batch, cluster)
        assert check_plan(plan, batch.lengths, cluster) == []

    def test_validation_error_in_a_level_is_not_swallowed(self, monkeypatch):
        def broken(node, cluster):
            raise pt.PlanValidationError("bug guard")

        monkeypatch.setattr(pt, "partition_intra_node", broken)
        with pytest.raises(pt.PlanValidationError, match="bug guard"):
            pt.build_plan(SequenceBatch(((0, 24), (1, 6))), make_cluster())

    def test_invalid_greedy_plan_raises_instead_of_falling_back(self, monkeypatch):
        assemble = pt._assemble_plan

        def dropping(*args):
            plan = assemble(*args)
            return dataclasses.replace(plan, placement=plan.placement[:-1])  # lose one fragment's tokens

        monkeypatch.setattr(pt, "_assemble_plan", dropping)
        # the even split would place this batch and validate, so the error
        # also shows that the batch did not fall back
        with pytest.raises(pt.PlanValidationError, match="token conservation"):
            pt.build_plan(SequenceBatch(((0, 24), (1, 6))), make_cluster())


@st.composite
def corrupted_plans(draw):
    """A planner's plan of a small batch, with one corruption applied to its
    placement table: a boundary two rows of one sequence share (or a
    sequence's last end) shifted, a row dropped or duplicated, a row moved
    to another rank or to micro-batch 1 or -1, or a row's sequence
    relabelled."""
    cluster, batch = draw(small_clusters_and_batches())
    strategy = draw(st.sampled_from(STRATEGIES))
    try:
        plan = plan_with(strategy, batch, cluster)
    except pt.InfeasibleBatch:
        assume(False)
    rows = plan.placement.tolist()
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    corruption = draw(st.sampled_from(["shift", "drop", "duplicate", "rank", "micro_batch", "relabel"]))
    if corruption == "shift":
        delta = draw(st.sampled_from([-2, -1, 1, 2]))
        for other in rows:
            if other[2] == row[2] and other[3] == row[4]:
                other[3] += delta
        row[4] += delta
    elif corruption == "drop":
        del rows[i]
    elif corruption == "duplicate":
        rows.append(list(row))
    elif corruption == "rank":
        row[0] = draw(st.integers(0, cluster.num_ranks - 1))
    elif corruption == "micro_batch":
        row[1] = draw(st.sampled_from([1, -1]))
    else:
        row[2] = draw(st.sampled_from(sorted(batch.lengths) + [len(batch.lengths)]))
    return dataclasses.replace(plan, placement=rows), batch, cluster


class TestValidatePlanAgainstOracle:
    @settings(max_examples=400)
    @given(corrupted_plans())
    def test_rejects_exactly_what_the_oracle_rejects(self, case):
        plan, batch, cluster = case
        problems = check_plan(plan, batch.lengths, cluster)
        try:
            pt.validate_plan(plan, batch, cluster)
        except pt.PlanValidationError as exc:
            assert problems, f"validate_plan rejects a plan the oracle accepts: {exc}"
        else:
            assert problems == []

    def test_corruptions_draw_both_outcomes(self):
        # the property above sees plans validate_plan accepts and ones whose
        # tiling it rejects, not only token-count mismatches
        def outcome(case):
            try:
                pt.validate_plan(*case)
            except pt.PlanValidationError as exc:
                return str(exc)
            return "accepted"

        find(corrupted_plans(), lambda case: outcome(case) == "accepted")
        find(corrupted_plans(), lambda case: "do not tile" in outcome(case))

    def test_planners_tables_are_read_only(self):
        cluster = make_cluster(n=2, p=2, cap=40)
        batch = SequenceBatch(((0, 24), (1, 6), (2, 5)))
        for strategy in STRATEGIES:
            plan = plan_with(strategy, batch, cluster)
            assert plan.placement.dtype == np.int64 and plan.placement.shape[1] == 5
            assert not plan.placement.flags.writeable
            with pytest.raises(ValueError):
                plan.placement[0, 4] += 1
        rows = np.array([[1, 0, 0, 0, 3], [0, 0, 1, 0, 2]])
        plan = dataclasses.replace(plan, placement=rows, ring_groups=())
        assert plan.placement.tolist() == [[0, 0, 1, 0, 2], [1, 0, 0, 0, 3]]
        assert rows.flags.writeable  # the caller's array is left alone

    def test_a_plan_is_sorted_by_sequence_once(self, monkeypatch):
        # validate_plan and the ring schedules read one view of the table by
        # sequence: a global-ring plan, whose rows all ride the ring, is
        # sorted whole once, not once per reader
        cluster = make_cluster(n=2, p=2, cap=40)
        batch = SequenceBatch(((0, 24), (1, 6), (2, 5)))
        rows, rings = pt.lay_out_global_ring(sorted(batch.sequences), cluster)
        plan = pt.plan_from_rows("te_cp", batch, cluster, rows, rings, meta={})
        lexsort, sorted_lengths = np.lexsort, []
        monkeypatch.setattr(np, "lexsort", lambda keys: sorted_lengths.append(len(keys[0])) or lexsort(keys))
        pt.validate_plan(plan, batch, cluster)
        view = plan.by_sequence
        build_schedule(plan)
        assert plan.by_sequence is view
        assert sorted_lengths.count(len(plan.placement)) == 1
        assert all(not array.flags.writeable for array in view)

    def test_even_split_twins_share_the_kept_plans_view(self):
        cluster = make_cluster(n=2, p=2, cap=40)
        batch = SequenceBatch(((0, 24), (1, 6), (2, 5)))
        te, llama = plan_te_cp(batch, cluster), plan_with("llama_cp", batch, cluster)
        # carried over when the twin is made, not built again on first read
        assert "by_sequence" in vars(te) and "by_sequence" in vars(llama)
        assert te.by_sequence is llama.by_sequence
        fresh = dataclasses.replace(te)
        assert all(np.array_equal(a, b) for a, b in zip(fresh.by_sequence, te.by_sequence))

    def test_rows_must_name_ranks_of_the_plan(self):
        plan = plan_te_cp(SequenceBatch(((0, 8),)), make_cluster(n=1, p=2, cap=8))
        for rank in (-1, 2):
            with pytest.raises(ValueError, match=r"placement rows name ranks outside 0..1"):
                dataclasses.replace(plan, placement=[(rank, 0, 0, 0, 8)])
