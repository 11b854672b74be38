import random

import numpy as np
import pytest
from hypothesis import find, given
from hypothesis import strategies as st

from oracles import (reference_zigzag_sizes, ring_pair_totals_bruteforce, ring_round_pairs_bruteforce,
                     visible_pairs_bruteforce)
from varlenplan import attention_engine as ae
from varlenplan.baselines import STRATEGIES, plan_with
from varlenplan.partitioner import PlacementPlan, build_plan
from varlenplan.topology import ClusterSpec, cluster_a
from varlenplan.workload import SequenceBatch


def test_split_even_rule():
    assert ae.split_even(10, 3) == [4, 3, 3]
    assert ae.split_even(8, 4) == [2, 2, 2, 2]
    assert ae.split_even(3, 5) == [1, 1, 1, 0, 0]
    assert ae.split_even(0, 2) == [0, 0]


@pytest.mark.parametrize("build, message", [
    (lambda: ae.split_even(4, 0), "parts must be >= 1"),
    (lambda: ae.split_even(-1, 2), "total must be >= 0"),
    (lambda: ae.RingGroup((3,), (0,)), "a ring needs at least 2 members"),
], ids=["no_parts", "negative_total", "one_member_ring"])
def test_input_checks_raise_value_errors(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_zigzag_two_rank_example():
    ranges = ae.ranges_from_sizes(ae.split_even(8, 4))
    assert ranges[0] == [(0, 2), (6, 8)]
    assert ranges[1] == [(2, 4), (4, 6)]
    # pair totals against a full context: 3 + 15 and 7 + 11
    totals = ring_pair_totals_bruteforce(8, ranges)
    assert totals == [18, 18]
    # a full-context KV range overlaps the query chunks: not a zigzag layout
    with pytest.raises(ValueError):
        ring_pairs(ranges[0], [(0, 8)])


def test_zigzag_degenerate_single_rank():
    ranges = ae.ranges_from_sizes(ae.split_even(10, 2))
    assert ranges == [[(0, 5), (5, 10)]]


def test_zigzag_balance_when_divisible():
    ranges = ae.ranges_from_sizes(ae.split_even(4096, 16))
    totals = ring_pair_totals_bruteforce(4096, ranges)
    assert len(set(totals)) == 1


def test_zigzag_balance_bound_when_not_divisible():
    rng = random.Random(11)
    for _ in range(50):
        g = rng.randint(2, 8)
        s = rng.randint(2 * g, 512)
        ranges = ae.ranges_from_sizes(ae.split_even(s, 2 * g))
        totals = ring_pair_totals_bruteforce(s, ranges)
        if s % (2 * g) == 0:
            assert len(set(totals)) == 1
        chunk_rows = -(-s // (2 * g))
        assert max(totals) - min(totals) <= chunk_rows * s
        assert sum(totals) == ae.causal_pairs(s)


def ring_pairs(q_ranges, kv_ranges):
    """Causal pairs of one sequence between the query ranges at ring
    position 0 and the key ranges at position 1, off the ring's pair matrix."""
    placement = table([(0, 0, 0, s, e) for s, e in q_ranges] + [(1, 0, 0, s, e) for s, e in kv_ranges])
    ring = ae.RingGroup(members=(0, 1), sequence_ids=(0,))
    return int(ae._ring_schedules(ring_plan((ring,), placement, ring.group_size))[0].pairs[0, 1])


def table(rows):
    """Placement rows (rank, micro_batch, sequence_id, start, end), in the
    execution order a plan keeps them in."""
    return PlacementPlan(strategy="te_cp", num_nodes=1, gpus_per_node=1 + max((r[0] for r in rows), default=0), s1=0,
                         s0_per_node=[0], sequence_lengths={}, placement=rows, ring_groups=(), meta={}).placement


def ring_plan(rings, placement, gpus_per_node):
    """An unvalidated plan of a placement table on `rings`, over as many
    nodes of `gpus_per_node` ranks as its ranks and members need."""
    n_nodes = 1 + max([*placement[:, 0].tolist(), *(m for ring in rings for m in ring.members)]) // gpus_per_node
    return PlacementPlan(strategy="te_cp", num_nodes=n_nodes, gpus_per_node=gpus_per_node, s1=0,
                         s0_per_node=[0] * n_nodes, sequence_lengths={}, placement=placement, ring_groups=rings,
                         meta={})


def test_visible_pairs_examples():
    assert ring_pairs([(4, 8)], [(0, 4)]) == 16
    assert ring_pairs([(0, 4)], [(4, 8)]) == 0
    assert ring_pairs([(4, 8)], [(0, 2), (2, 4)]) == 16
    # empty ranges hold no tokens
    assert ring_pairs([(4, 8), (6, 6)], [(0, 4), (9, 9)]) == 16
    # overlapping and reversed ranges are not a zigzag layout
    for q_ranges, kv_ranges in [([(0, 4)], [(0, 4)]), ([(4, 8)], [(0, 8)]),
                                ([(4, 8)], [(6, 2), (0, 4)]), ([(8, 4)], [(0, 8)])]:
        with pytest.raises(ValueError, match=r"ring \[0, 1\]: sequence 0 is not laid out in zigzag chunks"):
            ring_pairs(q_ranges, kv_ranges)


def test_zigzag_fault_names_the_first_ring_by_size_and_its_first_sequence():
    # every sequence on both rings overlaps itself; the narrower ring comes
    # first, and sequence 7 first among its sequences, though the plan
    # lists the wider ring first and sequence 0 has the lowest id
    wide, narrow = ae.RingGroup(members=(0, 1, 2), sequence_ids=(0,)), ae.RingGroup(members=(3, 4), sequence_ids=(7, 5))
    rows = [(0, 0, 0, 0, 2), (1, 0, 0, 0, 2), (2, 0, 0, 2, 6),
            (3, 0, 7, 0, 4), (4, 0, 7, 0, 4), (3, 0, 5, 0, 2), (4, 0, 5, 1, 3)]
    plan = ring_plan((wide, narrow), table(rows), 5)
    with pytest.raises(ValueError, match=r"^ring \[3, 4\]: sequence 7 is not laid out in zigzag chunks"):
        ae.build_schedule(plan)


def test_a_sequence_on_two_rings_is_scheduled_on_the_narrower():
    # validate_plan rejects such a plan; the schedule reads the sequence as
    # on the narrowest of its rings, though the plan lists it second
    ranges = ae.ranges_from_sizes(ae.split_even(8, 4))
    rows = [(rank, 0, 0, s, e) for rank, rank_ranges in zip((3, 4), ranges) for s, e in rank_ranges]
    wide, narrow = ae.RingGroup(members=(0, 1, 2), sequence_ids=(0,)), ae.RingGroup(members=(3, 4), sequence_ids=(0,))
    schedule = ae.build_schedule(ring_plan((wide, narrow), table(rows), 5))
    pairs = {sched.ring.members: int(sched.pairs.sum()) for sched in schedule.rings()}
    assert pairs == {(3, 4): ae.causal_pairs(8), (0, 1, 2): 0}


def test_visible_pairs_matches_enumeration():
    # accepted layouts count exactly; overlapping ones are always rejected
    rng = random.Random(5)
    outcomes = set()
    for _ in range(200):
        a = rng.randint(0, 30)
        b = a + rng.randint(0, 20)
        kv = []
        pos = 0
        for _ in range(rng.randint(0, 3)):
            lo = pos + rng.randint(0, 8)
            hi = lo + rng.randint(0, 10)
            kv.append((lo, hi))
            pos = hi
        overlap = any(max(a, lo) < min(b, hi) for lo, hi in kv)
        try:
            pairs = ring_pairs([(a, b)], kv)
        except ValueError:
            outcomes.add("rejected")
            continue
        outcomes.add("accepted")
        assert not overlap
        assert pairs == visible_pairs_bruteforce((a, b), kv)
    assert outcomes == {"accepted", "rejected"}


def _tiny_cluster():
    return ClusterSpec(num_nodes=2, gpus_per_node=2, token_capacity=64,
                       inv_bw_intra=1.0, inv_bw_inter=2.0)


def test_local_only_schedule_has_no_comm():
    cluster = _tiny_cluster()
    batch = SequenceBatch(((0, 5), (1, 4), (2, 3), (3, 2)))
    plan = build_plan(batch, cluster)
    schedule = ae.build_schedule(plan)
    assert schedule.rings() == ()
    assert {t.rank for t in schedule.local_tasks} <= set(range(4))
    assert sum(t.compute_pairs for t in schedule.local_tasks) == sum(
        ae.causal_pairs(ln) for _, ln in batch.sequences
    )


def test_single_long_sequence_ring_structure():
    cluster, _ = cluster_a()
    plan = build_plan(SequenceBatch(((0, 65536),)), cluster)
    schedule = ae.build_schedule(plan)
    assert len(schedule.inter_rings) == 1
    rs = schedule.inter_rings[0]
    assert rs.ring.group_size == 16
    assert rs.num_rounds == 16
    assert rs.kv_sizes == (65536 // 16,) * 16


def test_fused_intra_ring_balances_two_sequences():
    ranges = ae.ranges_from_sizes(ae.split_even(8, 4))
    placement = table([(rank, 0, sid, s, e) for rank in (0, 1) for sid in (0, 1) for s, e in ranges[rank]])
    ring = ae.RingGroup(members=(0, 1), sequence_ids=(0, 1))
    sched = ae._ring_schedules(ring_plan((ring,), placement, ring.group_size))[0]
    assert sched.pairs.sum(axis=1).tolist() == [2 * 18, 2 * 18]


def test_ring_work_conservation_random_plans():
    # te_cp's global ring carries a one-token sequence whose tokens sit on a
    # single rank; its pairs must be counted once
    cases = [(_tiny_cluster(), SequenceBatch(((0, 1), (1, 40))))]
    cluster, _ = cluster_a()
    rng = random.Random(3)
    for _ in range(5):
        lengths = [rng.randint(1, 20000) for _ in range(rng.randint(1, 8))]
        batch = SequenceBatch(tuple(enumerate(lengths)))
        if batch.total_tokens > cluster.num_ranks * cluster.token_capacity:
            continue
        cases.append((cluster, batch))
    for cluster, batch in cases:
        for strategy in STRATEGIES:
            schedule = ae.build_schedule(plan_with(strategy, batch, cluster))
            ring_pairs = sum(int(rs.pairs.sum()) for rs in schedule.rings())
            local_pairs = sum(t.compute_pairs for t in schedule.local_tasks)
            expected = sum(ae.causal_pairs(ln) for _, ln in batch.sequences)
            assert ring_pairs + local_pairs == expected, (strategy, batch.sequences)


def test_ring_per_rank_totals_equal_for_exact_split():
    cluster, _ = cluster_a()
    plan = build_plan(SequenceBatch(((0, 65536),)), cluster)
    schedule = ae.build_schedule(plan)
    rs = schedule.inter_rings[0]
    assert len(set(rs.pairs.sum(axis=1).tolist())) == 1


def draw_ranges(draw, g, zigzag_only=False):
    """One sequence's ranges per ring position and whether they are zigzag
    chunks: balanced zigzag chunks, zigzag chunks of any sizes (zeros
    included), or, unless `zigzag_only`, arbitrary (possibly empty or
    overlapping) ranges in any order."""
    layout = draw(st.sampled_from(["balanced", "sizes"] if zigzag_only else ["balanced", "sizes", "arbitrary"]))
    if layout == "balanced":
        seq_len = draw(st.integers(0, 8 * g))
        loads = draw(st.lists(st.integers(0, 50), min_size=g, max_size=g))
        return ae.ranges_from_sizes(ae.balanced_zigzag_sizes(seq_len, loads)), True
    if layout == "sizes":
        return ae.ranges_from_sizes(draw(st.lists(st.integers(0, 12), min_size=2 * g, max_size=2 * g))), True
    span = st.tuples(st.integers(0, 40), st.integers(0, 12)).map(lambda t: (t[0], t[0] + t[1]))
    return draw(st.lists(st.lists(span, max_size=3), min_size=g, max_size=g)), False


@st.composite
def rings(draw):
    """Rings of 2-12 members, in any order over ranks 0..G-1, carrying 1-4
    sequences, the placement table that holds them, and whether every
    sequence is laid out in zigzag chunks (`draw_ranges`). A sequence the
    ring does not carry, at micro-batch 0 or 1, may sit on one rank beside
    them."""
    g = draw(st.integers(2, 12))
    members = tuple(draw(st.permutations(range(g))))
    rows = []
    n_seqs = draw(st.integers(1, 4))
    zigzag = True
    for sid in range(n_seqs):
        ranges, chunked = draw_ranges(draw, g)
        zigzag &= chunked
        for rank, pos_ranges in zip(members, ranges):
            rows += [(rank, 0, sid, s, e) for s, e in pos_ranges]
    if draw(st.booleans()):
        rank = draw(st.integers(0, g - 1))
        rows.append((rank, draw(st.integers(0, 1)), n_seqs, 0, draw(st.integers(1, 40))))
    return ae.RingGroup(members=members, sequence_ids=tuple(range(n_seqs))), table(rows), zigzag


def ring_schedule_or_none(case):
    ring, placement, _ = case
    try:
        return ae._ring_schedules(ring_plan((ring,), placement, ring.group_size))[0]
    except ValueError:
        return None


@given(rings())
def test_ring_rounds_match_token_enumeration(case):
    # zigzag layouts are always accepted, and whatever is accepted counts
    # exactly what token enumeration counts
    ring, placement, zigzag = case
    sched = ring_schedule_or_none(case)
    if sched is None:
        assert not zigzag
        return
    assert round_pairs(sched) == ring_round_pairs_bruteforce(ring, placement)
    assert sched.pairs.dtype == np.int64 and not sched.pairs.flags.writeable
    assert all(type(n) is int for n in sched.kv_sizes)


def test_ring_layouts_draw_both_outcomes():
    # the property above sees accepted non-zigzag layouts and rejected ones
    find(rings(), lambda case: not case[2] and ring_schedule_or_none(case) is not None)
    find(rings(), lambda case: ring_schedule_or_none(case) is None)


def test_rejects_positions_that_rise_twice():
    # sorted by start, the chunks sit at positions 0, 1, 0, 1
    placement = [(0, 0, 0, 0, 2), (0, 0, 0, 4, 6), (1, 0, 0, 2, 4), (1, 0, 0, 6, 8)]
    ring = ae.RingGroup(members=(0, 1), sequence_ids=(0,))
    plan = PlacementPlan(strategy="te_cp", num_nodes=1, gpus_per_node=2, s1=0, s0_per_node=[0],
                         sequence_lengths={0: 8}, placement=placement, ring_groups=(ring,), meta={})
    with pytest.raises(ValueError, match=r"ring \[0, 1\]: sequence 0 is not laid out in zigzag chunks"):
        ae.build_schedule(plan)


def round_pairs(sched):
    """(pairs, KV tokens) of every round, indexed [position][round]: in round
    r, position i computes against and sends on the KV of position (i - r) mod g."""
    g = sched.ring.group_size
    return [[(int(sched.pairs[i, (i - r) % g]), sched.kv_sizes[(i - r) % g]) for r in range(g)] for i in range(g)]


@st.composite
def zigzag_inputs(draw):
    """A length and the loads of 1-12 positions, loads of 0-3 tokens so that
    ties are common, with a leftover (length mod 2G) of 0, 2G-1 or any."""
    g = draw(st.integers(1, 12))
    loads = draw(st.lists(st.integers(0, 3), min_size=g, max_size=g))
    extra = draw(st.sampled_from([0, 2 * g - 1]) | st.integers(0, 2 * g - 1))
    return 2 * g * draw(st.integers(0, 4)) + extra, loads


@given(zigzag_inputs())
def test_balanced_zigzag_sizes_match_the_argsort_reference(case):
    seq_len, loads = case
    sizes = ae.balanced_zigzag_sizes(seq_len, loads)
    assert sizes == reference_zigzag_sizes(seq_len, loads).tolist()
    assert all(type(n) is int for n in sizes)


@st.composite
def mixed_size_rings(draw):
    """2-4 rings of distinct sizes 2-10 on disjoint ranks, each carrying 1-3
    zigzag sequences, their placement table, and a node width below the
    widest ring and equal to another ring's size: the rings of at most that
    width share one padded product, and wider ones keep their own."""
    sizes = draw(st.lists(st.integers(2, 10), min_size=2, max_size=4, unique=True))
    ranks = draw(st.permutations(range(sum(sizes))))
    rows, ring_groups, sid = [], [], 0
    for g in sizes:
        members, ranks = tuple(ranks[:g]), ranks[g:]
        sids = []
        for _ in range(draw(st.integers(1, 3))):
            ranges, _ = draw_ranges(draw, g, zigzag_only=True)
            rows += [(rank, 0, sid, s, e) for rank, pos_ranges in zip(members, ranges) for s, e in pos_ranges]
            sids.append(sid)
            sid += 1
        ring_groups.append(ae.RingGroup(members=members, sequence_ids=tuple(sids)))
    return tuple(ring_groups), table(rows), draw(st.sampled_from(sorted(sizes)[:-1]))


@given(mixed_size_rings())
def test_rings_of_mixed_sizes_in_one_call_match_token_enumeration(case):
    rings, placement, gpus_per_node = case
    scheds = ae._ring_schedules(ring_plan(rings, placement, gpus_per_node))
    assert sorted(s.ring.members for s in scheds) == sorted(r.members for r in rings)
    for sched in scheds:
        g = sched.ring.group_size
        assert sched.pairs.shape == (g, g) and sched.pairs.dtype == np.int64 and not sched.pairs.flags.writeable
        assert all(type(n) is int for n in sched.kv_sizes)
        assert round_pairs(sched) == ring_round_pairs_bruteforce(sched.ring, placement)


@st.composite
def multi_ring_plans(draw):
    """Unvalidated plans of 2-4 rings over 2-10 ranks on one or two nodes,
    and whether every sequence is laid out in zigzag chunks. Rings carry
    disjoint sequences, and their members may share ranks. Each sequence is
    laid out as in `rings`, and the rows come in any order."""
    n_nodes = draw(st.integers(1, 2))
    p = draw(st.integers(3 - n_nodes, 5 if n_nodes == 2 else 10))
    n_ranks = n_nodes * p
    rows = []
    ring_groups = []
    sid = 0
    zigzag = True
    for _ in range(draw(st.integers(2, 4))):
        g = draw(st.integers(2, n_ranks))
        members = tuple(draw(st.permutations(range(n_ranks)))[:g])
        sids = []
        for _ in range(draw(st.integers(1, 3))):
            ranges, chunked = draw_ranges(draw, g)
            zigzag &= chunked
            for rank, pos_ranges in zip(members, ranges):
                rows += [(rank, 0, sid, s, e) for s, e in pos_ranges]
            sids.append(sid)
            sid += 1
        ring_groups.append(ae.RingGroup(members=members, sequence_ids=tuple(sids)))
    rows = draw(st.permutations(rows))
    lengths = dict.fromkeys(range(sid), 0)
    for _, _, seq, _, end in rows:
        lengths[seq] = max(lengths[seq], end)
    plan = PlacementPlan(strategy="te_cp", num_nodes=n_nodes, gpus_per_node=p, s1=0, s0_per_node=[0] * n_nodes,
                         sequence_lengths=lengths, placement=rows, ring_groups=tuple(ring_groups), meta={})
    return plan, zigzag


@given(multi_ring_plans())
def test_every_ring_of_a_plan_matches_token_enumeration(case):
    # one pass over all rings builds their matrices: no pairs may leak
    # from one ring's rows or sequences into another's
    plan, zigzag = case
    try:
        schedule = ae.build_schedule(plan)
    except ValueError:
        assert not zigzag
        return
    assert sorted(s.ring.sequence_ids for s in schedule.rings()) == sorted(r.sequence_ids for r in plan.ring_groups)
    # the inter-node queue holds exactly the rings whose members sit on two nodes
    p = plan.gpus_per_node
    assert [len({m // p for m in s.ring.members}) for s in schedule.rings()] \
        == [2] * len(schedule.inter_rings) + [1] * len(schedule.intra_rings)
    for sched in schedule.rings():
        assert round_pairs(sched) == ring_round_pairs_bruteforce(sched.ring, plan.placement)
        assert all(type(n) is int for n in sched.kv_sizes)
