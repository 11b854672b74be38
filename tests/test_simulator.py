import dataclasses
import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_timeline, reference_timeline, reference_trace, sorted_events
from varlenplan import simulator
from varlenplan.attention_engine import (
    RingGroup,
    build_schedule,
    causal_pairs,
    ranges_from_sizes,
)
from varlenplan.baselines import STRATEGIES, plan_te_cp, plan_with
from varlenplan.partitioner import InfeasibleBatch, PlacementPlan, build_plan, plan_from_json, plan_to_json
from varlenplan.remapping import cost_matrix, solve_remap
from varlenplan.routing import RouteStep, route_schedule, routed_time
from varlenplan.topology import ClusterSpec, CostCoefficients, cluster_a, direct_transfer_time
from varlenplan.workload import PRESET_NAMES, SequenceBatch, preset, sample_batch

STREAMS = ("compute", "intra-comm", "inter-comm")


def assert_stream_exclusive(events):
    lanes = {}
    for e in events:
        lanes.setdefault((e.rank, e.stream), []).append(e)
    for lane in lanes.values():
        lane.sort(key=lambda e: e.start)
        for a, b in zip(lane, lane[1:]):
            assert a.end <= b.start + 1e-12, (a, b)


def assert_route_causality(events):
    by_round = {}
    for e in events:
        if e.kind.startswith("route."):
            key = (e.payload["ring"], e.payload["round"], e.payload["src"])
            by_round.setdefault(key, {}).setdefault(e.kind, []).append(e)
    assert by_round, "expected routed events"
    for steps in by_round.values():
        dispatch_end = max(e.end for e in steps["route.dispatch"])
        transfer_start = min(e.start for e in steps["route.transfer"])
        transfer_end = max(e.end for e in steps["route.transfer"])
        combine_start = min(e.start for e in steps["route.combine"])
        assert transfer_start >= dispatch_end - 1e-12
        assert combine_start >= transfer_end - 1e-12


class TestSimulateRings:
    def test_empty_batch(self):
        cluster, coeffs = cluster_a()
        timeline, report = simulator.simulate(build_plan(SequenceBatch(()), cluster), cluster, coeffs)
        assert timeline.events == []
        assert report.total_step == 0.0

    def test_comm_bound_even_split_costs_full_kv_cycle(self):
        # negligible compute: the ring is gated by the boundary NIC, one full
        # KV volume per rank across the G rounds
        cluster, _ = cluster_a()
        coeffs = CostCoefficients(attn_quadratic=1e-20)
        batch = SequenceBatch(((0, 65536),))
        _, report = simulator.simulate(plan_te_cp(batch, cluster), cluster, coeffs)
        per_round = direct_transfer_time(cluster, 65536 // 16, "inter")
        assert report.attention_makespan == pytest.approx(16 * per_round, rel=1e-9)

    def test_compute_bound_even_split_costs_balanced_pairs(self):
        cluster, _ = cluster_a()
        coeffs = CostCoefficients(attn_quadratic=1.0)  # compute dwarfs comm
        batch = SequenceBatch(((0, 65536),))
        _, report = simulator.simulate(plan_te_cp(batch, cluster), cluster, coeffs)
        assert report.attention_makespan == pytest.approx(causal_pairs(65536) / 16, rel=1e-6)

    def test_comm_bound_single_sequence_speedup_matches_round_ratio(self):
        # with compute negligible the makespan ratio reduces to the per-round
        # direct/routed transfer-time ratio
        cluster, _ = cluster_a()
        coeffs = CostCoefficients(attn_quadratic=1e-20)
        batch = SequenceBatch(((0, 131072),))
        te = simulator.simulate(plan_te_cp(batch, cluster), cluster, coeffs)[1]
        zep = simulator.simulate(build_plan(batch, cluster), cluster, coeffs)[1]
        n = 131072 // 16
        expected = direct_transfer_time(cluster, n, "inter") / routed_time(cluster, n, 8, 8)
        assert te.attention_makespan / zep.attention_makespan == pytest.approx(expected, rel=1e-6)

    def test_multi_sequence_context_avoids_inter_node_rings(self):
        # the same 64k token budget in node-sized pieces: each piece stays on
        # one node, so the schedule has two 8-round intra rings instead of a
        # 16-round inter ring and the cross-node volume vanishes
        cluster, coeffs = cluster_a()
        batch = SequenceBatch(((0, 32768), (1, 32768)))
        plan = build_plan(batch, cluster)
        assert [r.members for r in plan.ring_groups] == [tuple(range(8)), tuple(range(8, 16))]
        zep = simulator.simulate(plan, cluster, coeffs)[1]
        te = simulator.simulate(plan_te_cp(batch, cluster), cluster, coeffs)[1]
        assert zep.inter_comm_tokens == 0
        assert zep.attention_makespan < te.attention_makespan

    def test_stream_exclusivity_and_causality(self):
        cluster, coeffs = cluster_a()
        batch = sample_batch(preset("github"), 65536, seed=11)
        for plan in (build_plan(batch, cluster), plan_te_cp(batch, cluster)):
            timeline, _ = simulator.simulate(plan, cluster, coeffs)
            assert_stream_exclusive(timeline.events)
        routed = build_plan(SequenceBatch(((0, 131072),)), cluster)
        timeline, _ = simulator.simulate(routed, cluster, coeffs)
        assert_stream_exclusive(timeline.events)
        assert_route_causality(timeline.events)

    def test_queue_order_per_rank(self):
        # a rank's intra-node rounds never precede its last inter-node round
        # and local kernels come after everything else on the rank
        cluster, coeffs = cluster_a()
        batch = SequenceBatch(((0, 70000), (1, 9000), (2, 500), (3, 400)))
        plan = build_plan(batch, cluster)
        timeline, _ = simulator.simulate(plan, cluster, coeffs)
        by_rank = {}
        for e in timeline.events:
            if e.stream == "compute":
                by_rank.setdefault(e.rank, []).append(e)
        kinds_order = {"inter_node.attn": 0, "intra_node.attn": 1, "local.attn": 2}
        for events in by_rank.values():
            phases = [kinds_order[e.kind] for e in sorted(events, key=lambda e: e.start)
                      if e.kind in kinds_order]
            assert phases == sorted(phases)

    def test_deterministic_timelines(self):
        cluster, coeffs = cluster_a()
        batch = sample_batch(preset("prolong64k"), 65536, seed=5)
        plan = build_plan(batch, cluster)
        a = simulator.simulate(plan, cluster, coeffs)[0]
        b = simulator.simulate(plan, cluster, coeffs)[0]
        assert a.events == b.events

    def test_backward_multiplier_scales_total(self):
        cluster, coeffs = cluster_a()
        batch = sample_batch(preset("arxiv"), 65536, seed=1)
        plan = build_plan(batch, cluster)
        _, report = simulator.simulate(plan, cluster, coeffs)
        forward = (report.attention_makespan + report.remap_forward
                   + report.linear_time + report.remap_inverse)
        assert report.total_step == pytest.approx(forward * 3.0)

    def test_remap_phase_only_for_hierarchical_plans(self):
        cluster, coeffs = cluster_a()
        batch = sample_batch(preset("prolong64k"), 65536, seed=2)
        zep = simulator.simulate(build_plan(batch, cluster), cluster, coeffs)[1]
        te = simulator.simulate(plan_te_cp(batch, cluster), cluster, coeffs)[1]
        assert te.remap_forward == te.remap_inverse == 0.0
        assert zep.remap_forward == zep.remap_inverse >= 0.0

    def test_nic_busy_time_tracks_inter_traffic(self):
        cluster, coeffs = cluster_a()
        plan = build_plan(SequenceBatch(((0, 131072),)), cluster)
        _, report = simulator.simulate(plan, cluster, coeffs)
        assert len(report.nic_busy_time) == 2
        assert all(len(nics) == 4 for nics in report.nic_busy_time)
        assert all(t > 0 for nics in report.nic_busy_time for t in nics)
        te_report = simulator.simulate(plan_te_cp(SequenceBatch(((0, 131072),)), cluster),
                                       cluster, coeffs)[1]
        busy = [t for nics in te_report.nic_busy_time for t in nics if t > 0]
        assert len(busy) == 2  # one boundary NIC per node under the plain ring


class TestTraceExport:
    def test_empty_timeline(self, tmp_path):
        cluster, coeffs = cluster_a()
        timeline, _ = simulator.simulate(build_plan(SequenceBatch(()), cluster), cluster, coeffs)
        path = tmp_path / "empty.json"
        simulator.export_trace(timeline, str(path))
        payload = json.loads(path.read_text())
        assert payload["traceEvents"] == []

    def test_single_event_record(self, tmp_path):
        cluster = ClusterSpec(num_nodes=1, gpus_per_node=1, token_capacity=100,
                              inv_bw_intra=1.0, inv_bw_inter=1.0)
        coeffs = CostCoefficients(attn_quadratic=1e-6)
        timeline, _ = simulator.simulate(build_plan(SequenceBatch(((0, 10),)), cluster),
                                         cluster, coeffs)
        path = tmp_path / "one.json"
        simulator.export_trace(timeline, str(path))
        payload = json.loads(path.read_text())
        (record,) = payload["traceEvents"]
        assert record["ph"] == "X"
        assert record["tid"] == "0.compute"
        assert record["pid"] == 0
        assert record["dur"] == pytest.approx(causal_pairs(10) * 1e-6 * 1e6)

    def test_routed_trace_has_three_step_lanes(self, tmp_path):
        cluster, coeffs = cluster_a()
        plan = build_plan(SequenceBatch(((0, 131072),)), cluster)
        timeline, _ = simulator.simulate(plan, cluster, coeffs)
        path = tmp_path / "routed.json"
        simulator.export_trace(timeline, str(path))
        payload = json.loads(path.read_text())
        names = {r["name"] for r in payload["traceEvents"]}
        assert {"route.dispatch", "route.transfer", "route.combine"} <= names
        # pid is the node, tid carries rank.stream
        assert {r["pid"] for r in payload["traceEvents"]} == {0, 1}
        assert all("." in r["tid"] for r in payload["traceEvents"])


class TestTraceLines:
    """Edge cases of the per-distinct text tables against the reference
    exporter, including pieces that a wrongly keyed table would share
    between events that print differently; the events read back must be
    the reference's in trace order, value types included."""

    def check(self, timeline, events, tmp_path):
        path = tmp_path / "trace.json"
        simulator.export_trace(timeline, str(path))
        assert_same_trace(path.read_text(encoding="utf-8"), reference_trace(events, timeline.gpus_per_node))
        expected = sorted_events(events)
        assert timeline.events == expected
        assert [[(k, type(v)) for k, v in e.payload.items()] for e in timeline.events] \
            == [[(k, type(v)) for k, v in sorted(e.payload.items())] for e in expected]

    def test_no_events(self, tmp_path):
        self.check(simulator.Timeline(gpus_per_node=8), [], tmp_path)

    def test_non_integral_float_pairs(self, tmp_path):
        cluster = ClusterSpec(num_nodes=1, gpus_per_node=3, token_capacity=100,
                              inv_bw_intra=1e-6, inv_bw_inter=1e-5)
        coeffs = CostCoefficients(attn_quadratic=1e-9, linear_per_token=1e-7)
        plan = plan_with("llama_cp", SequenceBatch(((0, 10),)), cluster)
        timeline, _ = simulator.simulate(plan, cluster, coeffs)
        events, _ = reference_timeline(plan, cluster, coeffs)
        assert {e.payload["pairs"] for e in events if e.kind == "attn.parallel"} == {causal_pairs(10) / 3}
        self.check(timeline, events, tmp_path)

    def test_integers_beyond_float_precision(self, tmp_path):
        # a float64 column would print 2**53 + 1 as 9007199254740992.0,
        # an int64 one would overflow on 2**64 + 1
        records = [
            (0, "compute", 0.0, 1e-3, "local.attn", {"seq": 2**53 + 1, "pairs": 2**64 + 1}),
            (1, "compute", 0.0, 1e-3, "local.attn", {"seq": 3, "pairs": 2**53 + 3}),
            (1, "intra-comm", 1e-3, 2e-3, "remap.forward", {"tokens": 2**53 + 1}),
        ]
        self.check(simulator.Timeline(gpus_per_node=2, records=records),
                   [simulator.Event(*record) for record in records], tmp_path)

    def test_times_printed_with_an_exponent(self, tmp_path):
        # ts and dur are in microseconds: 1e-13 s prints as 1e-07, 1e11 s as 1e+17
        records = [
            (0, "compute", 1e-13, 1e-13, "linear", {"tokens": 1}),
            (0, "compute", 2e-13, 1e11, "linear", {"tokens": 2}),
            (3, "inter-comm", 0.0, 3e-14, "kv.allgather", {"tokens": 5}),
        ]
        assert all("e" in repr(seconds * 1e6) for seconds in (1e-13, 1e11, 3e-14))
        self.check(simulator.Timeline(gpus_per_node=2, records=records),
                   [simulator.Event(*record) for record in records], tmp_path)

    def check_plan(self, plan, cluster, coeffs, tmp_path):
        timeline, _ = simulator.simulate(plan, cluster, coeffs)
        events, _ = reference_timeline(plan, cluster, coeffs)
        self.check(timeline, events, tmp_path)
        return events

    def test_crossing_and_intra_sends_of_equal_tokens(self, tmp_path):
        # an even split: every hop of te_cp's 2-node ring sends 16 tokens,
        # the crossing hops at the inter-node rate
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=2, token_capacity=100,
                              inv_bw_intra=1e-9, inv_bw_inter=1e-8)
        coeffs = CostCoefficients(attn_quadratic=1e-9)
        events = self.check_plan(plan_te_cp(SequenceBatch(((0, 64),)), cluster), cluster, coeffs, tmp_path)
        sends = {(e.stream, e.payload["tokens"], e.duration) for e in events if e.kind == "kv.send"}
        assert len(sends) == 2 and {(s, n) for s, n, _ in sends} == {("intra-comm", 16), ("inter-comm", 16)}

    def test_rings_of_equal_pairs(self, tmp_path):
        # two equal sequences, each ringed over one node's two ranks
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=2, token_capacity=40,
                              inv_bw_intra=1e-9, inv_bw_inter=1e-8)
        coeffs = CostCoefficients(attn_quadratic=1e-9)
        events = self.check_plan(build_plan(SequenceBatch(((0, 64), (1, 64))), cluster), cluster, coeffs, tmp_path)
        pairs = [{e.payload["pairs"] for e in events if e.kind == "intra_node.attn" and e.payload["ring"] == ring}
                 for ring in (0, 1)]
        assert pairs[0] and pairs[0] == pairs[1]

    def test_routed_proxies_of_equal_shares(self, tmp_path):
        # each crossing send of 64 tokens splits into four shares of 16,
        # one per proxy, each proxy on its own inter-node lane
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=4, token_capacity=100,
                              inv_bw_intra=1e-9, inv_bw_inter=1e-8)
        coeffs = CostCoefficients(attn_quadratic=1e-9)
        events = self.check_plan(build_plan(SequenceBatch(((0, 512),)), cluster), cluster, coeffs, tmp_path)
        lanes = {}
        for e in events:
            if e.kind == "route.transfer":
                lanes.setdefault((e.payload["src"], e.payload["round"]), []).append((e.rank, e.payload["tokens"]))
        assert lanes and all(len({rank for rank, _ in sent}) == len(sent) == 4 and {n for _, n in sent} == {16}
                             for sent in lanes.values())

    def test_ring_and_route_times_printed_with_an_exponent(self, tmp_path):
        # tiny coefficients: every duration and every start but 0, in
        # microseconds, prints in exponent form
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=4, token_capacity=100,
                              inv_bw_intra=1e-21, inv_bw_inter=1e-20)
        coeffs = CostCoefficients(attn_quadratic=1e-21, linear_per_token=0.0)
        events = self.check_plan(build_plan(SequenceBatch(((0, 512),)), cluster), cluster, coeffs, tmp_path)
        assert {"inter_node.attn", "kv.send", "route.transfer"} <= {e.kind for e in events}
        assert all("e" in repr(e.duration * 1e6) and (e.start == 0 or "e" in repr(e.start * 1e6)) for e in events)


class TestCompare:
    def test_four_strategy_rows(self):
        cluster, coeffs = cluster_a()
        batch = sample_batch(preset("arxiv"), 65536, seed=9)
        reports = simulator.compare(batch, cluster, coeffs,
                                    ["zeppelin", "te_cp", "llama_cp", "hybrid_dp"])
        assert [r.strategy for r in reports] == ["zeppelin", "te_cp", "llama_cp", "hybrid_dp"]
        te = next(r for r in reports if r.strategy == "te_cp")
        assert te.speedup_vs_te_cp == pytest.approx(1.0)
        csv_text = simulator.reports_to_csv(reports)
        assert csv_text.splitlines()[0] == simulator.CSV_HEADER
        assert len(csv_text.splitlines()) == 5

    def test_all_short_batch_zeppelin_has_zero_comm(self):
        cluster, coeffs = cluster_a()
        batch = SequenceBatch(tuple((i, 500) for i in range(32)))
        reports = simulator.compare(batch, cluster, coeffs, ["zeppelin", "te_cp"])
        zep, te = reports
        assert zep.inter_comm_tokens == 0 and zep.intra_comm_tokens == 0
        assert te.inter_comm_tokens > 0
        assert zep.speedup_vs_te_cp == max(r.speedup_vs_te_cp for r in reports)

    def test_uniform_batch_near_equal(self):
        # one equal-length sequence per rank, each filling local capacity
        cluster, coeffs = cluster_a()
        batch = SequenceBatch(tuple((i, 4096) for i in range(16)))
        reports = simulator.compare(batch, cluster, coeffs, ["zeppelin", "hybrid_dp"])
        zep, hybrid = reports
        assert zep.inter_comm_tokens == 0
        assert zep.total_step == pytest.approx(hybrid.total_step, rel=0.10)

    def test_unknown_strategy_rejected(self):
        cluster, coeffs = cluster_a()
        with pytest.raises(ValueError):
            simulator.compare(SequenceBatch(()), cluster, coeffs, ["zeppelin", "dream_dp"])

    @pytest.mark.parametrize("strategies", [[], ["zeppelin", "zeppelin", "te_cp"], ["te_cp", "zeppelin", "te_cp"]])
    def test_empty_or_repeated_strategies_rejected(self, strategies):
        cluster, coeffs = cluster_a()
        batch = SequenceBatch(((0, 100),))
        for run in (simulator.compare, simulator.compare_with_timelines):
            with pytest.raises(ValueError, match="no strategies|repeated strategies"):
                run(batch, cluster, coeffs, strategies)

    def test_infeasible_strategy_becomes_error_row(self):
        cluster = ClusterSpec(num_nodes=1, gpus_per_node=2, token_capacity=50,
                              inv_bw_intra=1.0, inv_bw_inter=1.0)
        coeffs = CostCoefficients(attn_quadratic=1e-9)
        batch = SequenceBatch(tuple((i, 40) for i in range(5)))  # 200 > 100 tokens
        reports = simulator.compare(batch, cluster, coeffs, ["te_cp", "hybrid_dp"])
        te, hybrid = reports
        assert not te.feasible and te.error
        assert hybrid.feasible  # micro-batching absorbs the overflow
        line = simulator.reports_to_csv(reports).splitlines()[1]
        assert line.startswith("te_cp,") and line.endswith(",,")

    def test_one_path_with_or_without_timelines(self, tmp_path):
        # a routed github batch; te_cp is not a row, so compare simulates it
        cluster, coeffs = cluster_a(num_nodes=8)
        batch = sample_batch(preset("github"), 262144, seed=1)
        reports = simulator.compare(batch, cluster, coeffs, ["zeppelin"])
        with_timelines, timelines = simulator.compare_with_timelines(batch, cluster, coeffs, ["zeppelin"])
        assert simulator.reports_to_csv(reports) == simulator.reports_to_csv(with_timelines)
        zep, te = simulator.compare(batch, cluster, coeffs, ["zeppelin", "te_cp"])
        assert reports[0].speedup_vs_te_cp == zep.speedup_vs_te_cp == te.total_step / zep.total_step
        assert list(timelines) == ["zeppelin"]
        timeline, _ = simulator.simulate(plan_with("zeppelin", batch, cluster), cluster, coeffs)
        for name, t in (("compared", timelines["zeppelin"]), ("simulated", timeline)):
            simulator.export_trace(t, str(tmp_path / f"{name}.json"))
        assert (tmp_path / "compared.json").read_bytes() == (tmp_path / "simulated.json").read_bytes()

    def test_reports_hold_python_floats(self):
        # zeppelin's remap pushes tokens across nodes on this batch
        cluster, coeffs = cluster_a(num_nodes=2)
        batch = sample_batch(preset("github"), 65536, seed=1)
        plan = plan_with("zeppelin", batch, cluster)
        result = solve_remap(plan.tokens_per_rank, cost_matrix(cluster))
        node = np.arange(cluster.num_ranks) // cluster.gpus_per_node
        assert (result.matrix[node[:, None] != node] > 0).any()
        assert type(result.objective) is float
        floats = [f.name for f in dataclasses.fields(simulator.StepReport) if f.type.startswith("float")]
        assert "speedup_vs_te_cp" in floats and "total_step" in floats
        for report in simulator.compare(batch, cluster, coeffs, list(STRATEGIES)):
            assert report.feasible
            for name in floats:
                assert type(getattr(report, name)) is float, (report.strategy, name)
            assert all(type(v) is float for row in report.nic_busy_time for v in row), report.strategy


class TestPinnedCompare:
    # sha256 over the compare CSV and every strategy's trace file for
    # cluster_a at 2, 4 and 8 nodes, 32k tokens per node, three presets and
    # seeds 0-2 (routed github batches among them); a change that means to
    # move a simulated step updates it and says so
    DIGEST = "de350375d965e97189e54a4175667ba35fb8bc013f9635af9521461d9c7a1aa2"

    def test_compare_outputs_are_byte_identical(self, tmp_path):
        digest = hashlib.sha256()
        for n in (2, 4, 8):
            cluster, coeffs = cluster_a(num_nodes=n)
            for name in PRESET_NAMES:
                for seed in range(3):
                    batch = sample_batch(preset(name), 32768 * n, seed=seed)
                    reports, timelines = simulator.compare_with_timelines(batch, cluster, coeffs, list(STRATEGIES))
                    digest.update(simulator.reports_to_csv(reports).encode())
                    for strategy, timeline in timelines.items():
                        path = tmp_path / f"{strategy}.trace.json"
                        simulator.export_trace(timeline, str(path))
                        digest.update(path.read_bytes())
        assert digest.hexdigest() == self.DIGEST


def assert_matches_reference(plan, cluster, coeffs):
    """The engine's events are the reference engine's in trace order, and
    its report is the reference's; returns the reference's events."""
    timeline, report = simulator.simulate(plan, cluster, coeffs)
    events, expected = reference_timeline(plan, cluster, coeffs)
    in_trace_order = sorted_events(events)
    assert timeline.events == in_trace_order
    # == takes 3 for 3.0; the trace prints them differently. Payload keys
    # come back sorted, and times always as Python floats
    assert all(type(e.start) is float and type(e.duration) is float for e in timeline.events)
    assert [[(k, type(v)) for k, v in sorted(e.payload.items())] for e in timeline.events] \
        == [[(k, type(v)) for k, v in sorted(e.payload.items())] for e in in_trace_order]
    assert report == expected
    assert check_timeline(plan, cluster, timeline, report) == []
    return events


def assert_trace_matches_reference(plan, cluster, coeffs):
    """`export_trace` writes the bytes of the reference exporter over the
    reference engine's events."""
    timeline, _ = simulator.simulate(plan, cluster, coeffs)
    events, _ = reference_timeline(plan, cluster, coeffs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.json"
        simulator.export_trace(timeline, str(path))
        assert "events" not in timeline.__dict__
        text = path.read_text(encoding="utf-8")
    assert_same_trace(text, reference_trace(events, cluster.gpus_per_node))


def assert_same_trace(text, expected):
    """Byte-for-byte equality of two trace texts. A mismatch reports the
    first differing record and both record counts, not a diff of the whole
    texts, which pytest would rebuild at every shrink step of a property
    test."""
    same = text == expected
    if not same:
        # split at each record's opening but the first's; the head stays on the first piece
        got, want = text.split(',{"args":'), expected.split(',{"args":')
        at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        counts = [t.count('{"args":') for t in (text, expected)]
        assert same, (f"trace differs at record {at} ({counts[0]} records, reference {counts[1]}):\n"
                      f"  got:       {got[at] if at < len(got) else '<none>'}\n"
                      f"  reference: {want[at] if at < len(want) else '<none>'}")


@st.composite
def clusters_and_batches(draw):
    intra = draw(st.floats(1e-9, 1e-6))
    cluster = ClusterSpec(
        num_nodes=draw(st.integers(1, 4)),
        gpus_per_node=draw(st.integers(1, 8)),
        token_capacity=draw(st.integers(64, 4096)),
        inv_bw_intra=intra,
        inv_bw_inter=intra * draw(st.floats(1.0, 32.0)),
        nics_per_node=draw(st.integers(1, 4)),
        backward_multiplier=draw(st.floats(0.0, 3.0)),
    )
    coeffs = CostCoefficients(attn_quadratic=draw(st.floats(1e-12, 1e-8)),
                              linear_per_token=draw(st.sampled_from([0.0, 2e-6])))
    total = max(1, int(cluster.num_ranks * cluster.token_capacity * draw(st.floats(0.05, 1.0))))
    dist = preset(draw(st.sampled_from(PRESET_NAMES)))
    return cluster, coeffs, sample_batch(dist, total, seed=draw(st.integers(0, 2**16)))


@settings(max_examples=100)
@given(clusters_and_batches())
def test_simulate_matches_scalar_reference(case):
    cluster, coeffs, batch = case
    for strategy in STRATEGIES:
        try:
            plan = plan_with(strategy, batch, cluster)
        except InfeasibleBatch:
            continue
        assert_matches_reference(plan, cluster, coeffs)
        text = plan_to_json(plan)
        loaded = plan_from_json(text)
        assert plan_to_json(loaded) == text
        assert np.array_equal(loaded.placement, plan.placement)
        assert loaded.ring_groups == plan.ring_groups
        assert (loaded.s1, loaded.s0_per_node, loaded.sequence_lengths, loaded.meta) \
            == (plan.s1, plan.s0_per_node, plan.sequence_lengths, plan.meta)


@settings(max_examples=100)
@given(clusters_and_batches())
def test_export_trace_matches_reference_trace(case):
    # the draws of test_simulate_matches_scalar_reference: routed rings,
    # llama_cp's float pairs payload and empty timelines
    cluster, coeffs, batch = case
    for strategy in STRATEGIES:
        try:
            plan = plan_with(strategy, batch, cluster)
        except InfeasibleBatch:
            continue
        assert_trace_matches_reference(plan, cluster, coeffs)


@pytest.mark.parametrize("strategy", ["zeppelin", "te_cp"])
def test_events_are_the_trace_read_back(strategy, tmp_path):
    # a routed github batch on 8 nodes: ring computes, direct and routed
    # sends, local kernels, remap and linear phases
    cluster, coeffs = cluster_a(num_nodes=8)
    batch = sample_batch(preset("github"), 262144, seed=1)
    timeline, _ = simulator.simulate(plan_with(strategy, batch, cluster), cluster, coeffs)
    path = tmp_path / "trace.json"
    simulator.export_trace(timeline, str(path))
    records = json.loads(path.read_text())["traceEvents"]
    assert len(timeline.events) == len(records) > 1000
    if strategy == "zeppelin":
        assert {"route.dispatch", "route.transfer", "route.combine"} <= {r["name"] for r in records}
    for event, record in zip(timeline.events, records):
        assert (event.kind, event.start * 1e6, event.duration * 1e6) == (record["name"], record["ts"], record["dur"])
        assert (event.rank // cluster.gpus_per_node, f"{event.rank}.{event.stream}") == (record["pid"], record["tid"])
        assert [(k, v, type(v)) for k, v in event.payload.items()] \
            == [(k, v, type(v)) for k, v in record["args"].items()]


def test_timeline_oracle_on_routed_8_node_batch():
    cluster, coeffs = cluster_a(num_nodes=8)
    batch = sample_batch(preset("github"), 262144, seed=1)
    for strategy in STRATEGIES:
        plan = plan_with(strategy, batch, cluster)
        timeline, report = simulator.simulate(plan, cluster, coeffs)
        assert check_timeline(plan, cluster, timeline, report) == []
        if strategy == "zeppelin":
            assert sum(e.kind == "route.transfer" for e in timeline.events) > 100


@pytest.mark.parametrize("seed", [0, 1])
def test_rank_on_two_routed_rings_matches_scalar_reference(seed):
    # 8 ranks ride both inter-node rings, so the second ring's routes read
    # intra lanes of ranks the first ring's direct sends and routes used
    cluster, coeffs = cluster_a(num_nodes=8)
    plan = plan_with("zeppelin", sample_batch(preset("github"), 262144, seed=seed), cluster)
    inter_rings = build_schedule(plan).inter_rings
    rides = Counter(m for ring_sched in inter_rings for m in ring_sched.ring.members)
    assert len(inter_rings) == 2 and sum(n == 2 for n in rides.values()) == 8
    assert_matches_reference(plan, cluster, coeffs)
    assert_trace_matches_reference(plan, cluster, coeffs)


def hand_built_plan(strategy, cluster, rings, placement):
    """A plan as a stored JSON file may carry it, never validated."""
    lengths = {}
    for _, _, sid, _, end in placement:
        lengths[sid] = max(lengths.get(sid, 0), end)
    return PlacementPlan(
        strategy=strategy, num_nodes=cluster.num_nodes, gpus_per_node=cluster.gpus_per_node, s1=0,
        s0_per_node=[0] * cluster.num_nodes, sequence_lengths=lengths, placement=placement,
        ring_groups=rings, meta={},
    )


def test_late_lane_matches_scalar_reference():
    # ring (0, 2) routes its sends through proxies 1 and 3; ring (1, 3) then
    # starts at 0 while those proxies' inter-node lanes are still busy. Its
    # members sit on two nodes, so its sends are routed too, and each of its
    # transfers waits for the busy lane
    cluster = ClusterSpec(num_nodes=2, gpus_per_node=2, token_capacity=1000,
                          inv_bw_intra=1e-6, inv_bw_inter=1e-4, nics_per_node=2)
    coeffs = CostCoefficients(attn_quadratic=1e-9, linear_per_token=1e-7)
    rings = (
        RingGroup((0, 2), (0,)),
        RingGroup((1, 3), (1,)),
    )
    placement = [
        (0, 0, 0, 0, 100), (0, 0, 0, 300, 400),
        (1, 0, 1, 0, 20),
        (2, 0, 0, 100, 300),
        (3, 0, 1, 20, 40),
    ]
    plan = hand_built_plan("zeppelin", cluster, rings, placement)
    events = assert_matches_reference(plan, cluster, coeffs)
    assert_trace_matches_reference(plan, cluster, coeffs)
    lane = [e for e in events if e.rank == 1 and e.stream == "inter-comm"]
    proxy_tail = max(e.end for e in lane if e.payload["ring"] == 0)
    later_start = min(e.start for e in events if e.payload.get("ring") == 1)
    assert later_start < proxy_tail == min(e.start for e in lane if e.payload["ring"] == 1)


def test_hand_written_two_node_ring_runs_as_a_routed_inter_node_ring():
    # a plan file names only a ring's members; these sit on two nodes, so
    # the ring is an inter-node one, and zeppelin routes its every send
    cluster = ClusterSpec(num_nodes=2, gpus_per_node=2, token_capacity=1000,
                          inv_bw_intra=1e-6, inv_bw_inter=1e-4, nics_per_node=2)
    coeffs = CostCoefficients(attn_quadratic=1e-9)
    text = json.dumps({
        "format": 3, "strategy": "zeppelin", "num_nodes": 2, "gpus_per_node": 2, "s1": 0, "s0_per_node": [0, 0],
        "sequence_lengths": [[0, 40]], "meta": {}, "rings": [{"members": [1, 2], "sequence_ids": [0]}],
        "placement": [[1, 0, 0, 0, 10], [1, 0, 0, 30, 40], [2, 0, 0, 10, 30]],
    })
    plan = plan_from_json(text)
    schedule = build_schedule(plan)
    assert [s.ring.members for s in schedule.inter_rings] == [(1, 2)] and schedule.intra_rings == ()
    events = assert_matches_reference(plan, cluster, coeffs)
    assert_trace_matches_reference(plan, cluster, coeffs)
    assert {e.kind for e in events if e.stream == "compute"} == {"inter_node.attn"}
    assert not any(e.kind == "kv.send" for e in events)
    # two rounds, each with one send per member, of 20 tokens split over 2 proxies
    transfers = [e for e in events if e.kind == "route.transfer"]
    assert len(transfers) == 2 * 2 * 2 and {e.payload["tokens"] for e in transfers} == {10}


def test_shared_nic_busy_time_adds_in_event_order():
    # a stored te_cp ring that alternates nodes: every hop crosses, and both
    # senders of a node share its one NIC, so the per-round sends of the two
    # interleave in the NIC's sum
    cluster = ClusterSpec(num_nodes=2, gpus_per_node=2, token_capacity=1000,
                          inv_bw_intra=0.1, inv_bw_inter=0.3, nics_per_node=1)
    coeffs = CostCoefficients(attn_quadratic=1e-3)
    members = (0, 2, 1, 3)
    ranges = ranges_from_sizes([7, 11, 13, 17, 19, 23, 29, 31])
    ring = RingGroup(members, (0,))
    placement = [(rank, 0, 0, s, e) for rank in range(4) for s, e in ranges[members.index(rank)]]
    plan = hand_built_plan("te_cp", cluster, (ring,), placement)
    events = assert_matches_reference(plan, cluster, coeffs)
    assert_trace_matches_reference(plan, cluster, coeffs)
    assert {e.rank for e in events if e.stream == "inter-comm"} == {0, 1, 2, 3}


@pytest.fixture
def built_events(monkeypatch):
    """Every Event constructed while the test runs."""
    built = []
    init = simulator.Event.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(simulator.Event, "__init__", counting_init)
    return built


def test_compare_builds_no_events(built_events):
    cluster, coeffs = cluster_a(num_nodes=8)
    batch = sample_batch(preset("arxiv"), 262144, seed=3)
    reports = simulator.compare(batch, cluster, coeffs, list(STRATEGIES))
    assert all(r.feasible for r in reports)
    assert built_events == []
    timeline, _ = simulator.simulate(plan_te_cp(batch, cluster), cluster, coeffs)
    assert built_events == []
    events = timeline.events
    assert timeline.events is events
    assert len(built_events) == len(events) > 4096  # one 64-rank ring: 64 x 64 computes alone


def test_export_builds_no_events(built_events, tmp_path):
    cluster, coeffs = cluster_a(num_nodes=8)
    batch = sample_batch(preset("github"), 262144, seed=1)
    _, timelines = simulator.compare_with_timelines(batch, cluster, coeffs, list(STRATEGIES))
    assert sorted(timelines) == sorted(STRATEGIES)
    for name, timeline in timelines.items():
        simulator.export_trace(timeline, str(tmp_path / f"{name}.json"))
    assert built_events == []
    assert all("events" not in timeline.__dict__ for timeline in timelines.values())
    routed = json.loads((tmp_path / "zeppelin.json").read_text())["traceEvents"]
    assert sum(r["name"] == "route.transfer" for r in routed) > 0


def test_plan_path_builds_no_route_steps(monkeypatch):
    built = []
    init = RouteStep.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RouteStep, "__init__", counting_init)
    cluster, coeffs = cluster_a(num_nodes=8)
    plan = build_plan(sample_batch(preset("github"), 262144, seed=1), cluster)
    routes = route_schedule(build_schedule(plan), plan, cluster)
    simulator.simulate(plan, cluster, coeffs)
    assert routes and built == []
    # the steps are a view, built when read: 7 dispatches, 8 transfers, 7 combines
    assert len(next(iter(routes.values())).steps) == len(built) == 22
