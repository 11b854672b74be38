import random

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from oracles import lp_remap_oracle, milp_remap_oracle, reference_cost_matrix, reference_remap
from varlenplan import remapping
from varlenplan.partitioner import build_plan
from varlenplan.topology import ClusterSpec, cluster_a
from varlenplan.workload import preset, sample_batch


def uniform_cost(d, b=1.0):
    t = np.full((d, d), b)
    np.fill_diagonal(t, 0.0)
    return t


def two_node_cost(d, bi, be):
    cluster = ClusterSpec(num_nodes=2, gpus_per_node=d // 2, token_capacity=1000,
                          inv_bw_intra=bi, inv_bw_inter=be)
    return remapping.cost_matrix(cluster)


def check_marginals(counts, matrix):
    d = len(counts)
    total = sum(counts)
    base, extra = divmod(total, d)
    target = [base + 1 if i < extra else base for i in range(d)]
    surplus = [max(counts[i] - target[i], 0) for i in range(d)]
    deficit = [max(target[i] - counts[i], 0) for i in range(d)]
    assert matrix.sum(axis=1).tolist() == surplus
    assert matrix.sum(axis=0).tolist() == deficit
    assert all(matrix[i][i] == 0 for i in range(d))
    assert (matrix >= 0).all()


class TestTargetDistribution:
    def test_already_uniform(self):
        assert remapping.target_distribution([4, 4]) == [4, 4]

    def test_simple_mean(self):
        assert remapping.target_distribution([6, 2]) == [4, 4]

    def test_remainder_conserves_total(self):
        target = remapping.target_distribution([5, 5, 3])
        assert sum(target) == 13
        assert sorted(target) == [4, 4, 5]

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            remapping.target_distribution([-1, 2])

    def test_rejects_no_ranks(self):
        with pytest.raises(ValueError, match="^need at least one rank$"):
            remapping.target_distribution([])


class TestSolveRemap:
    def test_two_rank_forced_transfer(self):
        result = remapping.solve_remap([6, 2], uniform_cost(2, b=3.0))
        assert result.matrix.tolist() == [[0, 2], [0, 0]]
        assert result.objective == pytest.approx(6.0, rel=1e-9)

    def test_uniform_input_is_free(self):
        result = remapping.solve_remap([5, 5, 5, 5], uniform_cost(4))
        assert result.objective == 0.0
        assert not result.matrix.any()

    def test_prefers_intra_node_path(self):
        # ranks {0,1} on node 0 and {2,3} on node 1; the surplus at rank 0
        # covers rank 1's deficit without crossing nodes
        cost = two_node_cost(4, bi=1.0, be=10.0)
        result = remapping.solve_remap([8, 0, 4, 4], cost)
        assert result.matrix[0][1] == 4
        assert result.objective == pytest.approx(4.0, rel=1e-9)
        assert result.objective == pytest.approx(lp_remap_oracle([8, 0, 4, 4], cost), rel=1e-6)

    def test_matches_lp_oracle_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(80):
            d = rng.randint(1, 6)
            counts = [rng.randint(0, 40 // d) for _ in range(d)]
            if rng.random() < 0.5 and d % 2 == 0:
                cost = two_node_cost(d, bi=1.0, be=rng.uniform(1.0, 20.0))
            else:
                cost = uniform_cost(d, b=rng.uniform(0.1, 5.0))
            result = remapping.solve_remap(counts, cost)
            oracle = lp_remap_oracle(counts, cost)
            assert result.objective == pytest.approx(oracle, rel=1e-6, abs=1e-9)
            check_marginals(counts, result.matrix)
            if result.row_costs.size:
                assert result.row_costs.max() <= oracle + cost.max() + 1e-6

    def test_scale_covariance(self):
        cost = two_node_cost(4, bi=1.0, be=8.0)
        base = remapping.solve_remap([9, 1, 3, 3], cost)
        for k in (2, 5, 13):
            scaled = remapping.solve_remap([9 * k, 1 * k, 3 * k, 3 * k], cost)
            assert scaled.objective == pytest.approx(k * base.objective, rel=1e-6)

    def test_rejects_mismatched_cost_shape(self):
        with pytest.raises(ValueError):
            remapping.solve_remap([1, 2, 3], uniform_cost(2))


    def test_rejects_cost_outside_block_form(self):
        not_block_form = [
            np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]),  # three costs
            uniform_cost(3) + np.eye(3),  # non-zero diagonal
            np.array([[0.0, 1.0], [2.0, 0.0]]),  # asymmetric
            np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]),  # 0~1~2 but 0 !~ 2
            uniform_cost(2, b=-1.0),  # negative
            np.array([[1.0]]),
        ]
        for cost in not_block_form:
            for counts in ([4, 0, 2][:len(cost)], [3] * len(cost)):
                with pytest.raises(ValueError):
                    remapping.solve_remap(counts, cost)


def block_cost(nodes, gpus, c, e, perm=None):
    node = np.arange(nodes * gpus) // gpus
    if perm is not None:
        node = node[perm]
    t = np.where(node[:, None] == node[None, :], c, e).astype(float)
    np.fill_diagonal(t, 0.0)
    return t


@st.composite
def remap_instances(draw):
    nodes = draw(st.integers(1, 4))
    gpus = draw(st.integers(1, 6))
    # integer costs keep the distinct per-sender costs apart, so the MILP's
    # tolerances cannot settle on a slightly worse integer matrix
    c = draw(st.integers(0, 8))
    e = c + draw(st.integers(0, 40))
    counts = draw(st.lists(st.integers(0, 60), min_size=nodes * gpus, max_size=nodes * gpus))
    return counts, block_cost(nodes, gpus, c, e)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(remap_instances())
def test_water_fill_matches_lp_and_milp_oracles(instance):
    counts, cost = instance
    result = remapping.solve_remap(counts, cost)
    assert result.objective == pytest.approx(lp_remap_oracle(counts, cost), rel=1e-9, abs=1e-9)
    check_marginals(counts, result.matrix)
    # the worst integer row is what the compare CSV reports as remap time
    assert result.row_costs.max() == pytest.approx(milp_remap_oracle(counts, cost), rel=1e-9, abs=1e-9)


@st.composite
def block_form_instances(draw, max_nodes=8):
    """Block-form costs up to `max_nodes` nodes x 8 GPUs, ranks possibly
    permuted, with counts that mix zeros, repeated values and values above
    2**20."""
    nodes = draw(st.integers(1, max_nodes))
    gpus = draw(st.integers(1, 8))
    d = nodes * gpus
    c = draw(st.sampled_from([0.0, 1.0, 0.37, 2.5e-7]))
    e = draw(st.sampled_from([c, c + 3.0, c * 1.7 + 0.11, c + 1e-9]))
    perm = draw(st.none() | st.permutations(range(d)))
    repeated = draw(st.lists(st.integers(0, 2**22), min_size=1, max_size=3))
    count = st.integers(0, 40) | st.just(0) | st.integers(2**20, 2**22) | st.sampled_from(repeated)
    counts = draw(st.lists(count, min_size=d, max_size=d))
    return counts, block_cost(nodes, gpus, c, e, perm)


def assert_bit_identical(counts, cost):
    result, reference = remapping.solve_remap(counts, cost), reference_remap(counts, cost)
    assert result.matrix.dtype == np.int64
    assert np.array_equal(result.matrix, reference.matrix)
    assert type(result.objective) is float and result.objective == reference.objective
    assert result.row_costs.dtype == reference.row_costs.dtype
    assert np.array_equal(result.row_costs, reference.row_costs)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(block_form_instances(max_nodes=32))
def test_solve_remap_is_bit_identical_to_the_per_node_reference(instance):
    # up to 256 ranks: the per-node fills are where a wide cluster and a
    # permuted layout could part from the node-at-a-time reference
    assert_bit_identical(*instance)


@pytest.mark.parametrize("seed", range(10))
def test_solve_remap_is_bit_identical_on_32_node_plans(seed):
    cluster, _ = cluster_a(num_nodes=32)
    counts = build_plan(sample_batch(preset("github"), 32768 * 32, seed), cluster).tokens_per_rank
    assert_bit_identical(counts, remapping.cost_matrix(cluster))
    # tokens cross nodes, so both the in-node and the cross-node fills run
    node = np.arange(cluster.num_ranks) // cluster.gpus_per_node
    assert remapping.solve_remap(counts, remapping.cost_matrix(cluster)).matrix[node[:, None] != node].any()


def test_solve_remap_hands_out_a_shortfall_as_the_token_by_token_reference():
    # e - c is below one float step of c * u here, so a sender's second extra
    # token can cost no more than another sender's first: handing out one
    # token each to the cheapest senders would differ from the reference
    counts = [0, 1741597, 0, 88131, 2686462, 3282202, 0, 538481]
    cost = block_cost(2, 4, 4.0, 4.0 + 1e-9)
    result, reference = remapping.solve_remap(counts, cost), reference_remap(counts, cost)
    assert reference.shortfall == 2
    assert np.array_equal(result.matrix, reference.matrix)
    assert result.objective == reference.objective


def test_block_form_instances_draw_shortfalls_of_two_or_more():
    # the solver hands a node's shortfall out one token each to its cheapest
    # senders, where the reference loops token by token: only a shortfall of
    # 2 or more could tell the two apart
    counts, cost = find(block_form_instances(), lambda instance: reference_remap(*instance).shortfall >= 2,
                        settings=settings(derandomize=True, max_examples=400, database=None,
                                          phases=[Phase.generate]))
    assert reference_remap(counts, cost).shortfall >= 2


@settings(derandomize=True, max_examples=200, deadline=None)
@given(block_form_instances(), st.data())
def test_solve_remap_rejects_what_the_reference_rejects(instance, data):
    counts, cost = instance
    d = len(counts)
    i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    # any one changed entry breaks the zero diagonal or the symmetry
    cost[i][j] = data.draw(st.sampled_from([cost[i][j] + 0.5, cost[i][j] + 1e-9, -1.0, float("nan")]))
    with pytest.raises(ValueError) as expected:
        reference_remap(counts, cost)
    with pytest.raises(ValueError) as raised:
        remapping.solve_remap(counts, cost)
    assert str(raised.value) == str(expected.value)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from([1.0, 0.37, 2.5e-7]),
       st.sampled_from([1.0, 1.7, 40.0]))
def test_cost_matrix_matches_the_entrywise_reference(nodes, gpus, intra, ratio):
    cluster = ClusterSpec(num_nodes=nodes, gpus_per_node=gpus, token_capacity=1000,
                          inv_bw_intra=intra, inv_bw_inter=intra * ratio)
    t = remapping.cost_matrix(cluster)
    assert t.dtype == np.float64
    assert np.array_equal(t, reference_cost_matrix(cluster))
