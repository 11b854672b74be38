import math
import re

import pytest

from varlenplan.topology import (
    ClusterSpec,
    ConfigError,
    CostCoefficients,
    cluster_a,
    direct_transfer_time,
    inv_bw_from_bandwidth,
    load_cluster_config,
    parse_cluster_config,
    resolve_cluster,
    save_cluster_config,
    zone_boundaries,
)


def make_cluster(n=2, p=8, cap=4096, bi=4.0, be=8.0, nics=4):
    return ClusterSpec(num_nodes=n, gpus_per_node=p, token_capacity=cap,
                       inv_bw_intra=bi, inv_bw_inter=be, nics_per_node=nics)


def _crossing_numeric(f, g, lo, hi):
    # bisection on f(s) - g(s) for the nontrivial curve intersection
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < g(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_local_boundary_closed_form():
    cluster = make_cluster(p=8, bi=4.0, be=4.0)
    coeffs = CostCoefficients(attn_quadratic=1.0)
    s_local, _ = zone_boundaries(cluster, coeffs)
    assert s_local == 32.0


def test_equal_bandwidths_scale_boundary_by_node_count():
    cluster = make_cluster(n=3, p=8, bi=4.0, be=4.0)
    coeffs = CostCoefficients(attn_quadratic=1.0)
    s_local, s_intra = zone_boundaries(cluster, coeffs)
    assert s_intra == pytest.approx(cluster.num_nodes * s_local)


def test_inter_boundary_matches_numeric_crossing():
    cluster = make_cluster(n=2, p=4, bi=8.0, be=16.0)
    coeffs = CostCoefficients(attn_quadratic=2.0)
    _, s_intra = zone_boundaries(cluster, coeffs)
    assert s_intra == 64.0
    alpha, n, p, be = 2.0, 2, 4, 16.0
    crossing = _crossing_numeric(lambda s: alpha * s * s / (n * p), lambda s: be * s, 1.0, 1e6)
    assert s_intra == pytest.approx(crossing, rel=1e-6)


def test_direct_transfer_examples():
    cluster = make_cluster(bi=1.0, be=10.0)
    assert direct_transfer_time(cluster, 0, "inter") == 0.0
    assert direct_transfer_time(cluster, 1024, "inter") == 10240.0
    assert direct_transfer_time(cluster, 1024, "intra") == 1024.0
    with pytest.raises(ValueError):
        direct_transfer_time(cluster, 10, "nvlink")
    with pytest.raises(ValueError):
        direct_transfer_time(cluster, -1, "intra")


def test_boundary_monotonicity_grid():
    coeffs = CostCoefficients(attn_quadratic=1.0)
    prev_local = 0.0
    for bi in (1.0, 2.0, 4.0, 8.0):
        s_local, _ = zone_boundaries(make_cluster(bi=bi, be=16.0), coeffs)
        assert s_local >= prev_local
        prev_local = s_local
    prev_intra = 0.0
    for be in (4.0, 8.0, 16.0):
        _, s_intra = zone_boundaries(make_cluster(bi=4.0, be=be), coeffs)
        assert s_intra >= prev_intra
        prev_intra = s_intra
    cluster = make_cluster()
    prev = (math.inf, math.inf)
    for alpha in (0.5, 1.0, 2.0, 4.0):
        bounds = zone_boundaries(cluster, CostCoefficients(attn_quadratic=alpha))
        assert bounds[0] <= prev[0] and bounds[1] <= prev[1]
        prev = bounds


def test_local_boundary_never_exceeds_inter_boundary():
    coeffs = CostCoefficients(attn_quadratic=3.0)
    for n in (1, 2, 4):
        for be_mult in (1.0, 2.0, 16.0):
            cluster = make_cluster(n=n, bi=2.0, be=2.0 * be_mult)
            s_local, s_intra = zone_boundaries(cluster, coeffs)
            assert s_local <= s_intra


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigError):
        make_cluster(n=0)
    with pytest.raises(ConfigError):
        make_cluster(bi=4.0, be=2.0)  # inter faster than intra
    with pytest.raises(ConfigError):
        make_cluster(bi=0.0, be=2.0)
    with pytest.raises(ConfigError):
        CostCoefficients(attn_quadratic=0.0)
    with pytest.raises(ConfigError):
        CostCoefficients(attn_quadratic=1.0, linear_per_token=-1.0)


CONFIG_WITHOUT_COEFFS = "nodes = 1\ngpus_per_node = 1\ntoken_capacity = 10\ninv_bw_intra = 1.0\ninv_bw_inter = 1.0\n"


@pytest.mark.parametrize("build, message", [
    (lambda: make_cluster(p=0), "gpus_per_node must be >= 1"),
    (lambda: make_cluster(cap=0), "token_capacity must be >= 1"),
    (lambda: make_cluster(nics=0), "nics_per_node must be >= 1"),
    (lambda: ClusterSpec(num_nodes=1, gpus_per_node=1, token_capacity=1, inv_bw_intra=1.0, inv_bw_inter=1.0,
                         backward_multiplier=-0.5), "backward_multiplier must be >= 0"),
    (lambda: inv_bw_from_bandwidth(0), "bandwidth must be > 0"),
    (lambda: parse_cluster_config("nodes = 1\nattn_quadratic 1e-9\n"),
     "line 2: expected 'key = value', got 'attn_quadratic 1e-9'"),
    (lambda: parse_cluster_config(CONFIG_WITHOUT_COEFFS + "attn_quadratic = tiny\n"),
     "key 'attn_quadratic': expected a number, got 'tiny'"),
    (lambda: parse_cluster_config("nodes = 2.5\n"), "key 'nodes': expected an integer, got '2.5'"),
    (lambda: parse_cluster_config("frobnicate = 3\n"), "unknown config key 'frobnicate'"),
    (lambda: parse_cluster_config(CONFIG_WITHOUT_COEFFS), "missing required config key 'attn_quadratic'"),
    (lambda: parse_cluster_config("nics_per_node = 2\n"), "missing required config key 'nodes'"),
], ids=["no_gpus", "no_capacity", "no_nics", "negative_backward", "zero_bandwidth", "line_without_equals",
        "non_numeric_float", "non_integer_int", "unknown_key", "missing_coefficient", "missing_nodes"])
def test_input_checks_raise_config_errors(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("spec, name", [
    (ClusterSpec, "inv_bw_intra"), (ClusterSpec, "inv_bw_inter"), (ClusterSpec, "backward_multiplier"),
    (CostCoefficients, "attn_quadratic"), (CostCoefficients, "linear_per_token"),
])
def test_non_finite_costs_rejected(spec, name, value):
    valid = {
        ClusterSpec: dict(num_nodes=2, gpus_per_node=8, token_capacity=4096, inv_bw_intra=4.0, inv_bw_inter=8.0),
        CostCoefficients: dict(attn_quadratic=1.0, linear_per_token=0.0),
    }[spec]
    with pytest.raises(ConfigError, match=name):
        spec(**{**valid, name: value})


def test_cluster_a_preset():
    cluster, coeffs = cluster_a()
    assert cluster.num_nodes == 2
    assert cluster.gpus_per_node == 8
    assert cluster.nics_per_node == 4
    # 400 GB/s intra vs one 200 Gb/s NIC path: a 16x per-token gap
    assert cluster.inv_bw_inter / cluster.inv_bw_intra == pytest.approx(16.0)
    assert coeffs.attn_quadratic > 0
    c4, _ = cluster_a(num_nodes=4)
    assert c4.num_ranks == 32


def test_config_file_round_trip(tmp_path):
    cluster, coeffs = cluster_a(num_nodes=3, token_capacity=5000)
    path = tmp_path / "cluster.cfg"
    save_cluster_config(str(path), cluster, coeffs)
    loaded_cluster, loaded_coeffs = load_cluster_config(str(path))
    assert loaded_cluster == cluster
    assert loaded_coeffs == coeffs


def test_saved_config_lists_the_fields_in_order(tmp_path):
    cluster, coeffs = cluster_a(num_nodes=3, token_capacity=5000)
    path = tmp_path / "cluster.cfg"
    save_cluster_config(str(path), cluster, coeffs)
    assert path.read_text() == (
        "nodes = 3\ngpus_per_node = 8\ntoken_capacity = 5000\ninv_bw_intra = 4.096e-08\n"
        "inv_bw_inter = 6.5536e-07\nnics_per_node = 4\nbackward_multiplier = 2.0\n"
        "attn_quadratic = 1.2e-10\nlinear_per_token = 2e-06\n"
    )


def test_a_config_in_the_earlier_key_order_parses_to_equal_objects():
    text = ("nodes = 3\ngpus_per_node = 8\ntoken_capacity = 5000\ninv_bw_intra = 4.096e-08\n"
            "inv_bw_inter = 6.5536e-07\nnics_per_node = 4\nattn_quadratic = 1.2e-10\n"
            "linear_per_token = 2e-06\nbackward_multiplier = 2.0\n")
    assert parse_cluster_config(text) == cluster_a(num_nodes=3, token_capacity=5000)


def test_config_errors_name_offending_key():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_cluster_config("frobnicate = 3")
    with pytest.raises(ConfigError, match="token_capacity"):
        parse_cluster_config("token_capacity = many")
    with pytest.raises(ConfigError, match="inv_bw_intra"):
        parse_cluster_config("nodes = 1\ngpus_per_node = 1\ntoken_capacity = 10\n"
                             "inv_bw_inter = 1.0\nattn_quadratic = 1e-9")


def test_config_rejects_a_repeated_key():
    with pytest.raises(ConfigError, match="line 2: key 'nodes' is set twice"):
        parse_cluster_config("nodes = 2\nnodes = 4\n")


def test_config_comments_and_defaults():
    cluster, coeffs = parse_cluster_config(
        "# test cluster\n"
        "nodes = 2\n"
        "gpus_per_node = 4   # comment\n"
        "token_capacity = 100\n"
        "inv_bw_intra = 1.0\n"
        "inv_bw_inter = 2.0\n"
        "attn_quadratic = 1e-9\n"
    )
    assert cluster.nics_per_node == 1
    assert cluster.backward_multiplier == 2.0
    assert coeffs.linear_per_token == 0.0
    # the defaults are the dataclasses' own
    assert cluster == ClusterSpec(num_nodes=2, gpus_per_node=4, token_capacity=100, inv_bw_intra=1.0,
                                  inv_bw_inter=2.0)
    assert coeffs == CostCoefficients(attn_quadratic=1e-9)
    # and a key that is set overrides its default
    cluster, coeffs = parse_cluster_config(CONFIG_WITHOUT_COEFFS + "attn_quadratic = 1e-9\nnics_per_node = 3\n"
                                           "backward_multiplier = 0.5\nlinear_per_token = 2e-6\n")
    assert (cluster.num_nodes, cluster.nics_per_node, cluster.backward_multiplier) == (1, 3, 0.5)
    assert coeffs == CostCoefficients(attn_quadratic=1e-9, linear_per_token=2e-6)


def test_resolve_cluster_preset_name():
    cluster, _ = resolve_cluster("cluster_a")
    assert cluster.gpus_per_node == 8
