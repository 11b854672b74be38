import dataclasses
import json
import re

import pytest

from varlenplan import cli, partitioner
from varlenplan.attention_engine import RingGroup
from varlenplan.baselines import STRATEGIES
from varlenplan.topology import ClusterSpec, CostCoefficients, cluster_a, save_cluster_config
from varlenplan.workload import load_batch


def run(argv):
    return cli.main(argv)


@pytest.fixture
def batch_file(tmp_path):
    path = tmp_path / "batch.json"
    assert run(["sample", "--dataset", "arxiv", "--total-len", "65536",
                "--seed", "7", "--out", str(path)]) == 0
    return str(path)


def test_sample_writes_exact_total(batch_file):
    batch = load_batch(batch_file)
    assert batch.total_tokens == 65536


def test_sample_rejects_unknown_dataset(tmp_path, capsys):
    rc = run(["sample", "--dataset", "wikipedia", "--total-len", "10",
              "--seed", "0", "--out", str(tmp_path / "x.json")])
    assert rc == 2  # argparse choice failure


def test_plan_and_simulate_round_trip(tmp_path, batch_file):
    plan_path = tmp_path / "plan.json"
    assert run(["plan", "--config", "cluster_a", "--batch", batch_file,
                "--strategy", "zeppelin", "--out", str(plan_path)]) == 0
    trace = tmp_path / "trace.json"
    report = tmp_path / "report.csv"
    assert run(["simulate", "--config", "cluster_a", "--plan", str(plan_path),
                "--trace", str(trace), "--report", str(report)]) == 0
    payload = json.loads(trace.read_text())
    assert payload["traceEvents"]
    lines = report.read_text().splitlines()
    assert lines[0].startswith("strategy,")
    assert lines[1].startswith("zeppelin,")


def _overfill_rank_0(path):
    # move whole local sequences onto rank 0 and write the file afresh
    plan = partitioner.load_plan(str(path))
    load = plan.tokens_per_rank[0]
    rows = plan.placement.tolist()
    for row in rows:
        rank, _, sid, start, end = row
        if rank > 0 and load <= 8192 and plan.zone_of[sid] == "local":
            row[0] = 0
            load += end - start
    assert load > 8192
    partitioner.save_plan(str(path), dataclasses.replace(plan, placement=rows))


def _half_token_boundary(path):
    # move a boundary two placement rows of one sequence share by half a token
    payload = json.loads(path.read_text())
    rows = payload["placement"]
    a, b = next((a, b) for a in rows for b in rows if b[2] == a[2] and b[3] == a[4])
    a[4] = b[3] = a[4] - 0.5
    path.write_text(json.dumps(payload))


def _unknown_strategy(path):
    payload = json.loads(path.read_text())
    payload["strategy"] = "foo"
    path.write_text(json.dumps(payload))


def _float_length(path):
    payload = json.loads(path.read_text())
    pair = payload["sequence_lengths"][0]
    pair[1] = float(pair[1])
    path.write_text(json.dumps(payload))


def _bool_micro_batch(path):
    payload = json.loads(path.read_text())
    payload["placement"][0][1] = False
    path.write_text(json.dumps(payload))


def _negative_micro_batch(path):
    # put a fragment of a sequence that rides no ring before the attention phase
    payload = json.loads(path.read_text())
    ringed = {sid for ring in payload["rings"] for sid in ring["sequence_ids"]}
    next(row for row in payload["placement"] if row[2] not in ringed)[1] = -3
    path.write_text(json.dumps(payload))


def _lengths_as_object(path):
    # the shape an older plan file gave sequence_lengths: {"id": length}
    payload = json.loads(path.read_text())
    payload["sequence_lengths"] = {str(sid): length for sid, length in payload["sequence_lengths"]}
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("edit, error", [
    (_overfill_rank_0, "invalid plan: rank 0 exceeds token capacity"),
    (_half_token_boundary, "must be integers"),
    (_float_length, "must be integers"),
    (_bool_micro_batch, "must be integers"),
    (_negative_micro_batch, "has a fragment at a negative micro-batch"),
    (_lengths_as_object, "malformed plan file"),
    (_unknown_strategy, "unknown strategy 'foo'"),
], ids=["over_capacity", "half_token", "float_length", "bool_micro_batch", "negative_micro_batch", "lengths_array",
        "unknown_strategy"])
def test_simulate_rejects_a_plan_file_with_an_edited_zone(tmp_path, batch_file, capsys, edit, error):
    plan_path = tmp_path / "plan.json"
    assert run(["plan", "--config", "cluster_a", "--batch", batch_file,
                "--strategy", "zeppelin", "--out", str(plan_path)]) == 0
    edit(plan_path)
    rc = run(["simulate", "--config", "cluster_a", "--plan", str(plan_path)])
    assert rc == 2
    assert error in capsys.readouterr().err


# te_cp's plan of sequences of 8 and 1 tokens on one node of two GPUs, as
# the first plan format wrote it: fragment lists per rank, per-position ring
# ranges, stored zones, node buckets and micro-batch counts, and no "format"
FORMAT_1_PLAN = (
    '{"gpus_per_node": 2, "meta": {}, "micro_batch_counts": [1, 1], "node_buckets": [[[0, 8], [1, 1]]], '
    '"num_nodes": 1, "ranks": [[{"end": 2, "micro_batch": 0, "sequence_id": 0, "start": 0}, '
    '{"end": 8, "micro_batch": 0, "sequence_id": 0, "start": 6}, '
    '{"end": 1, "micro_batch": 0, "sequence_id": 1, "start": 0}], '
    '[{"end": 4, "micro_batch": 0, "sequence_id": 0, "start": 2}, '
    '{"end": 6, "micro_batch": 0, "sequence_id": 0, "start": 4}]], '
    '"rings": [{"kind": "intra_node", "members": [0, 1], "sequences": ['
    '{"ranges": [[[0, 2], [6, 8]], [[2, 4], [4, 6]]], "sequence_id": 0}, '
    '{"ranges": [[[0, 1]], []], "sequence_id": 1}]}], "s0_per_node": [0], "s1": 0, '
    '"sequence_lengths": {"0": 8, "1": 1}, "strategy": "te_cp", "zones": {"0": "intra_node", "1": "local"}}'
)


# the same plan as the second format wrote it: the placement table, and
# rings that store their kind beside their members
FORMAT_2_PLAN = (
    '{"format": 2, "gpus_per_node": 2, "meta": {}, "num_nodes": 1, "placement": [[0, 0, 0, 0, 2], '
    '[0, 0, 0, 6, 8], [0, 0, 1, 0, 1], [1, 0, 0, 2, 4], [1, 0, 0, 4, 6]], '
    '"rings": [{"kind": "intra_node", "members": [0, 1], "sequence_ids": [0, 1]}], "s0_per_node": [0], "s1": 0, '
    '"sequence_lengths": [[0, 8], [1, 1]], "strategy": "te_cp"}'
)


def assert_simulate_rejects_as_stale(tmp_path, capsys, text):
    message = "not a format-3 plan file; write it afresh with `varlenplan plan`"
    with pytest.raises(ValueError, match=re.escape(message)):
        partitioner.plan_from_json(text)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(text)
    rc = run(["simulate", "--config", "cluster_a", "--plan", str(plan_path)])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_simulate_rejects_a_format_1_plan_file(tmp_path, capsys):
    assert_simulate_rejects_as_stale(tmp_path, capsys, FORMAT_1_PLAN)


def test_simulate_rejects_a_format_2_plan_file(tmp_path, capsys):
    assert_simulate_rejects_as_stale(tmp_path, capsys, FORMAT_2_PLAN)
    # with its format and kind edited away, the same plan reads as format 3
    payload = json.loads(FORMAT_2_PLAN)
    payload["format"] = 3
    del payload["rings"][0]["kind"]
    assert partitioner.plan_from_json(json.dumps(payload)).ring_groups == (RingGroup((0, 1), (0, 1)),)


def _stale_ring_kind(path):
    # a format-2 ring entry's kind, left in a format-3 file
    payload = json.loads(path.read_text())
    payload["rings"][0]["kind"] = "intra_node"
    path.write_text(json.dumps(payload))


def _leftover_zones(path):
    # the zones a format-1 file stored beside its fragments
    payload = json.loads(path.read_text())
    payload["zones"] = {"0": "inter_node"}
    path.write_text(json.dumps(payload))


def _rings_as(rings):
    def edit(path):
        payload = json.loads(path.read_text())
        payload["rings"] = rings
        path.write_text(json.dumps(payload))

    return edit


@pytest.mark.parametrize("edit, error", [
    (_stale_ring_kind, "malformed plan file: unknown keys ['kind']"),
    (_leftover_zones, "malformed plan file: unknown keys ['zones']"),
    (_rings_as({}), "malformed plan file: rings must be a list of objects"),
    (_rings_as(["x"]), "malformed plan file: rings must be a list of objects"),
    (_rings_as([[0, 1]]), "malformed plan file: rings must be a list of objects"),
], ids=["ring_kind", "zones", "rings_object", "ring_string", "ring_list"])
def test_simulate_rejects_a_plan_file_with_an_unknown_key(tmp_path, batch_file, capsys, edit, error):
    plan_path = tmp_path / "plan.json"
    assert run(["plan", "--config", "cluster_a", "--batch", batch_file,
                "--strategy", "te_cp", "--out", str(plan_path)]) == 0
    assert run(["simulate", "--config", "cluster_a", "--plan", str(plan_path)]) == 0
    edit(plan_path)
    rc = run(["simulate", "--config", "cluster_a", "--plan", str(plan_path)])
    assert rc == 2
    assert f"error: {error}" in capsys.readouterr().err


def test_simulate_checks_topology_before_validating(tmp_path, batch_file, capsys):
    plan_path = tmp_path / "plan.json"
    assert run(["plan", "--config", "cluster_a", "--batch", batch_file,
                "--strategy", "zeppelin", "--out", str(plan_path)]) == 0
    cluster, coeffs = cluster_a(num_nodes=4)
    cfg = tmp_path / "four.cfg"
    save_cluster_config(str(cfg), cluster, coeffs)
    rc = run(["simulate", "--config", str(cfg), "--plan", str(plan_path)])
    assert rc == 2
    assert "error: plan topology does not match this cluster" in capsys.readouterr().err


def test_simulate_rejects_a_ring_that_is_not_zigzag(tmp_path, capsys):
    # the plan tiles its one sequence, but sorted by start its chunks sit at
    # ring positions 0, 1, 0, 1
    cluster = ClusterSpec(num_nodes=1, gpus_per_node=2, token_capacity=64, inv_bw_intra=1.0, inv_bw_inter=2.0)
    cfg = tmp_path / "cluster.cfg"
    save_cluster_config(str(cfg), cluster, CostCoefficients(attn_quadratic=1e-9))
    placement = [(0, 0, 0, 0, 2), (0, 0, 0, 4, 6), (1, 0, 0, 2, 4), (1, 0, 0, 6, 8)]
    ring = RingGroup(members=(0, 1), sequence_ids=(0,))
    plan_path = tmp_path / "plan.json"
    partitioner.save_plan(str(plan_path), partitioner.PlacementPlan(
        strategy="te_cp", num_nodes=1, gpus_per_node=2, s1=0, s0_per_node=[0], sequence_lengths={0: 8},
        placement=placement, ring_groups=(ring,), meta={}))
    rc = run(["simulate", "--config", str(cfg), "--plan", str(plan_path)])
    assert rc == 2
    assert "error: ring [0, 1]: sequence 0 is not laid out in zigzag chunks" in capsys.readouterr().err


def test_simulate_report_speedup_matches_compare(tmp_path, batch_file):
    rows = {}
    for strategy in ("zeppelin", "te_cp"):
        plan_path = tmp_path / f"{strategy}.json"
        report = tmp_path / f"{strategy}.csv"
        assert run(["plan", "--config", "cluster_a", "--batch", batch_file,
                    "--strategy", strategy, "--out", str(plan_path)]) == 0
        assert run(["simulate", "--config", "cluster_a", "--plan", str(plan_path),
                    "--report", str(report)]) == 0
        rows[strategy] = report.read_text().splitlines()[1]
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--config", "cluster_a", "--batch", batch_file,
                "--strategies", "zeppelin", "--out", str(out)]) == 0
    compared = out.read_text().splitlines()[1]
    speedup = compared.split(",")[5]
    assert speedup
    assert rows["zeppelin"].split(",")[5] == speedup
    assert rows["zeppelin"] == compared
    assert rows["te_cp"].split(",")[5] == "1"


def test_compare_writes_requested_rows(tmp_path, batch_file):
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--config", "cluster_a", "--batch", batch_file,
                "--strategies", "zeppelin,te_cp,llama_cp,hybrid_dp",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert [l.split(",")[0] for l in lines[1:]] == ["zeppelin", "te_cp", "llama_cp", "hybrid_dp"]


@pytest.mark.parametrize("strategies", ["zeppelin,zeppelin,te_cp", " , "])
def test_compare_rejects_repeated_or_empty_strategies(tmp_path, batch_file, capsys, strategies):
    out = tmp_path / "cmp.csv"
    traces = tmp_path / "traces"
    assert run(["compare", "--config", "cluster_a", "--batch", batch_file, "--strategies", strategies,
                "--out", str(out), "--trace-dir", str(traces)]) == 2
    assert "strategies" in capsys.readouterr().err
    assert not out.exists() and not traces.exists()


def test_compare_of_an_empty_batch_writes_zeros_and_empty_traces(tmp_path, capsys):
    batch = tmp_path / "batch.json"
    batch.write_text("[]")
    out = tmp_path / "cmp.csv"
    traces = tmp_path / "traces"
    assert run(["compare", "--config", "cluster_a", "--batch", str(batch), "--out", str(out),
                "--trace-dir", str(traces)]) == 0
    stdout, stderr = capsys.readouterr()
    # an infeasible strategy is reported on stderr
    assert stderr == ""
    assert stdout.splitlines() == [f"{s}: total 0s, speedup vs te_cp n/a" for s in STRATEGIES]
    assert out.read_text().splitlines()[1:] == [f"{s},0,0,0,0,,0,0" for s in STRATEGIES]
    assert sorted(p.name for p in traces.iterdir()) == sorted(f"{s}.trace.json" for s in STRATEGIES)
    for s in STRATEGIES:
        assert (traces / f"{s}.trace.json").read_bytes() == b'{"displayTimeUnit":"ms","traceEvents":[]}\n'


def test_compare_sampled_batch_is_deterministic(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        trace_dir = tmp_path / f"traces_{name}"
        assert run(["compare", "--config", "cluster_a", "--dataset", "prolong64k",
                    "--total-len", "65536", "--seed", "3",
                    "--out", str(out), "--trace-dir", str(trace_dir)]) == 0
        outs.append(out.read_bytes())
        traces = sorted((trace_dir).glob("*.trace.json"))
        assert len(traces) == 4
    assert outs[0] == outs[1]
    a = sorted((tmp_path / "traces_a.csv").glob("*.trace.json"))
    b = sorted((tmp_path / "traces_b.csv").glob("*.trace.json"))
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_missing_batch_file_gives_io_exit(tmp_path, capsys):
    rc = run(["plan", "--config", "cluster_a", "--batch", str(tmp_path / "nope.json"),
              "--out", str(tmp_path / "p.json")])
    assert rc == 4
    assert "nope.json" in capsys.readouterr().err


def _trace_dir_names_a_file(tmp_path, afile):
    return ["compare", "--config", "cluster_a", "--dataset", "arxiv", "--total-len", "4096",
            "--out", str(tmp_path / "out.csv"), "--trace-dir", str(afile)]


def _compare_out_under_a_file(tmp_path, afile):
    return ["compare", "--config", "cluster_a", "--dataset", "arxiv", "--total-len", "4096",
            "--out", str(afile / "out.csv")]


def _sample_out_under_a_file(tmp_path, afile):
    return ["sample", "--dataset", "arxiv", "--total-len", "4096", "--seed", "0", "--out", str(afile / "b.json")]


@pytest.mark.parametrize("argv", [_trace_dir_names_a_file, _compare_out_under_a_file, _sample_out_under_a_file])
def test_output_path_through_a_file_gives_io_exit(tmp_path, capsys, argv):
    # FileExistsError and NotADirectoryError are OSErrors like a missing file
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run(argv(tmp_path, afile)) == 4
    assert "error: cannot access" in capsys.readouterr().err


def test_malformed_json_gives_io_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = run(["plan", "--config", "cluster_a", "--batch", str(bad),
              "--out", str(tmp_path / "p.json")])
    assert rc == 4


def _batch_not_utf8(tmp_path, bad):
    return ["plan", "--config", "cluster_a", "--batch", str(bad), "--out", str(tmp_path / "p.json")]


def _plan_not_utf8(tmp_path, bad):
    return ["simulate", "--config", "cluster_a", "--plan", str(bad)]


def _config_not_utf8(tmp_path, bad):
    return ["compare", "--config", str(bad), "--dataset", "arxiv", "--total-len", "4096",
            "--out", str(tmp_path / "out.csv")]


@pytest.mark.parametrize("argv", [_batch_not_utf8, _plan_not_utf8, _config_not_utf8])
def test_input_that_is_not_utf8_gives_io_exit(tmp_path, capsys, argv):
    # a batch, a plan or a config file that does not decode is an unreadable
    # input, as malformed JSON is
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[]")
    assert run(argv(tmp_path, bad)) == 4
    assert "error: input is not UTF-8 text" in capsys.readouterr().err


def test_bad_config_with_a_good_batch_names_the_config(tmp_path, batch_file, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe[]")
    assert run(["compare", "--config", str(bad), "--batch", batch_file, "--out", str(tmp_path / "out.csv")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: input is not UTF-8 text") and str(bad) in err and batch_file not in err


def _plan_of_bad_json(tmp_path, bad):
    return ["simulate", "--config", "cluster_a", "--plan", str(bad)]


def _batch_of_bad_json(tmp_path, bad):
    return ["compare", "--config", "cluster_a", "--batch", str(bad), "--out", str(tmp_path / "out.csv")]


@pytest.mark.parametrize("argv", [_batch_of_bad_json, _plan_of_bad_json])
def test_bad_json_names_its_file(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(argv(tmp_path, bad)) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON input") and str(bad) in err


def test_non_integer_batch_length_gives_usage_exit(tmp_path, capsys):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"id": 0, "len": 10.7}]))
    out = tmp_path / "p.json"
    rc = run(["plan", "--config", "cluster_a", "--batch", str(batch), "--out", str(out)])
    assert rc == 2
    assert "malformed batch entry" in capsys.readouterr().err
    assert not out.exists()


def test_batch_entry_with_an_unknown_key_gives_usage_exit(tmp_path, capsys):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"id": 0, "len": 10, "dataset": "arxiv"}]))
    out = tmp_path / "p.json"
    rc = run(["plan", "--config", "cluster_a", "--batch", str(batch), "--out", str(out)])
    assert rc == 2
    assert "malformed batch entry" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_trace_matches_compare_trace(tmp_path):
    # one sequence longer than a node: zeppelin routes its inter-node ring
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"id": 0, "len": 131072}]))
    plan_path = tmp_path / "plan.json"
    assert run(["plan", "--config", "cluster_a", "--batch", str(batch),
                "--strategy", "zeppelin", "--out", str(plan_path)]) == 0
    trace = tmp_path / "t.json"
    assert run(["simulate", "--config", "cluster_a", "--plan", str(plan_path), "--trace", str(trace)]) == 0
    trace_dir = tmp_path / "traces"
    assert run(["compare", "--config", "cluster_a", "--batch", str(batch),
                "--out", str(tmp_path / "cmp.csv"), "--trace-dir", str(trace_dir)]) == 0
    assert b'"name":"route.transfer"' in trace.read_bytes()
    assert trace.read_bytes() == (trace_dir / "zeppelin.trace.json").read_bytes()


def test_bad_config_value_gives_usage_exit(tmp_path, capsys):
    cfg = tmp_path / "cluster.cfg"
    cfg.write_text("nodes = some\n")
    rc = run(["compare", "--config", str(cfg), "--dataset", "arxiv",
              "--total-len", "100", "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "nodes" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["attn_quadratic", "inv_bw_inter"])
def test_non_finite_config_value_gives_usage_exit(tmp_path, capsys, key):
    cluster, coeffs = cluster_a()
    cfg = tmp_path / "cluster.cfg"
    save_cluster_config(str(cfg), cluster, coeffs)
    cfg.write_text(cfg.read_text() + f"{key} = inf\n")
    out = tmp_path / "o.csv"
    rc = run(["compare", "--config", str(cfg), "--dataset", "arxiv",
              "--total-len", "65536", "--out", str(out)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_infeasible_batch_gives_distinct_exit(tmp_path, capsys):
    cluster, coeffs = cluster_a(num_nodes=1, token_capacity=16)
    cfg = tmp_path / "small.cfg"
    save_cluster_config(str(cfg), cluster, coeffs)
    batch = tmp_path / "big.json"
    batch.write_text(json.dumps([{"id": 0, "len": 100000}]))
    rc = run(["plan", "--config", str(cfg), "--batch", str(batch),
              "--strategy", "zeppelin", "--out", str(tmp_path / "p.json")])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("line, error", [
    ("token_capacity 10", "line 6: expected 'key = value', got 'token_capacity 10'"),
    ("linear_per_token = slow", "key 'linear_per_token': expected a number, got 'slow'"),
], ids=["line_without_equals", "non_numeric_float"])
def test_malformed_config_line_gives_usage_exit(tmp_path, capsys, line, error):
    cfg = tmp_path / "cluster.cfg"
    cfg.write_text("nodes = 1\ngpus_per_node = 2\ninv_bw_intra = 1.0\ninv_bw_inter = 2.0\n"
                   f"attn_quadratic = 1e-9\n{line}\n")
    out = tmp_path / "o.csv"
    rc = run(["compare", "--config", str(cfg), "--dataset", "arxiv", "--total-len", "100", "--out", str(out)])
    assert rc == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not out.exists()


def test_compare_keeps_rows_of_strategies_that_cannot_place_the_batch(tmp_path, capsys):
    # 20 tokens on 2 GPUs of 8: only hybrid_dp, whose micro-batches run one
    # after another, places them
    cfg = tmp_path / "small.cfg"
    cluster = ClusterSpec(num_nodes=1, gpus_per_node=2, token_capacity=8, inv_bw_intra=1e-6, inv_bw_inter=2e-6)
    save_cluster_config(str(cfg), cluster, CostCoefficients(attn_quadratic=1e-9, linear_per_token=1e-7))
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"id": sid, "len": 4} for sid in range(5)]))
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--config", str(cfg), "--batch", str(batch), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["zeppelin", "te_cp", "llama_cp", "hybrid_dp"]
    assert rows[:3] == ["zeppelin,,,,,,,", "te_cp,,,,,,,", "llama_cp,,,,,,,"]
    # hybrid_dp's row has every figure but the speedup, which te_cp lacks
    assert [bool(field) for field in rows[3].split(",")] == [True] * 5 + [False] + [True] * 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"{name}: infeasible (batch of 20 tokens exceeds cluster capacity 16)"
                                         for name in ("zeppelin", "te_cp", "llama_cp")]
    assert captured.out.startswith("hybrid_dp: total ") and captured.out.endswith(", speedup vs te_cp n/a\n")


def test_compare_requires_exactly_one_batch_source(tmp_path, batch_file):
    rc = run(["compare", "--config", "cluster_a", "--batch", batch_file,
              "--dataset", "arxiv", "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_sampling_without_total_len_is_usage_error(tmp_path, capsys):
    rc = run(["compare", "--config", "cluster_a", "--dataset", "arxiv",
              "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "total-len" in capsys.readouterr().err


def test_main_calls_in_one_process_keep_their_own_arguments(tmp_path, batch_file, capsys):
    # the parser is built once per process; no call may see another's options
    first = tmp_path / "first.csv"
    assert run(["compare", "--config", "cluster_a", "--batch", batch_file,
                "--strategies", "te_cp", "--out", str(first)]) == 0
    assert [line.split(",")[0] for line in first.read_text().splitlines()[1:]] == ["te_cp"]
    assert run(["compare", "--config", "cluster_a", "--batch", batch_file,
                "--dataset", "arxiv", "--out", str(tmp_path / "usage.csv")]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    plan_path = tmp_path / "plan.json"
    assert run(["plan", "--config", "cluster_a", "--batch", batch_file, "--out", str(plan_path)]) == 0
    assert partitioner.load_plan(str(plan_path)).strategy == "zeppelin"
    second = tmp_path / "second.csv"
    assert run(["compare", "--config", "cluster_a", "--batch", batch_file, "--out", str(second)]) == 0
    assert [line.split(",")[0] for line in second.read_text().splitlines()[1:]] == list(cli.baselines.STRATEGIES)
    assert cli._build_parser() is cli._build_parser()
