"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured evidence (run with `pytest -s` to see them inline).

Full-scale hardware throughput numbers are out of reach on a workstation, so
criterion 1 records that substitution; criteria 2-10 are the cost-model and
property checks standing in for them.
"""

import itertools
import json
import random
import time

import pytest

from oracles import (
    best_unsplit_makespan,
    check_plan,
    lp_remap_oracle,
    ring_pair_totals_bruteforce,
)
from varlenplan import cli, remapping, routing, simulator
from varlenplan.attention_engine import causal_pairs, ranges_from_sizes, split_even
from varlenplan.baselines import plan_te_cp
from varlenplan.partitioner import build_plan
from varlenplan.topology import ClusterSpec, CostCoefficients, cluster_a, direct_transfer_time
from varlenplan.workload import SequenceBatch, preset, sample_batch

PRESETS = ("arxiv", "github", "prolong64k")


def report(n, line):
    print(f"\n[criterion {n:2d}] PASS  {line}")


def test_criterion_01_desk_scale_substitution():
    # measured multi-GPU speedups cannot be reproduced here; the cost-model
    # checks below (2-10) are the agreed substitute
    report(1, "hardware-scale throughput replaced by cost-model checks 2-10")


def test_criterion_02_routing_formula_exactness():
    start = time.time()
    rng = random.Random(2)
    for _ in range(1000):
        bi = rng.uniform(1e-9, 1e-6)
        be = bi * rng.uniform(1.0, 64.0)
        n = rng.randint(0, 10**7)
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=8, token_capacity=10**7,
                              inv_bw_intra=bi, inv_bw_inter=be)
        assert routing.routed_time(cluster, n, 1, 1) == direct_transfer_time(cluster, n, "inter")
    cluster = ClusterSpec(num_nodes=2, gpus_per_node=8, token_capacity=10**7,
                          inv_bw_intra=1.0, inv_bw_inter=10.0)
    assert routing.routed_time(cluster, 1024, 4, 4) == 4096.0
    rng = random.Random(3)
    for _ in range(1000):
        bi = rng.uniform(1e-9, 1e-6)
        be = bi * rng.uniform(1.0, 64.0)
        n = rng.randint(1, 10**7)
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=8, token_capacity=10**7,
                              inv_bw_intra=bi, inv_bw_inter=be)
        best = min(routing.routed_time(cluster, n, x1, x2)
                   for x1 in range(1, 9) for x2 in range(1, 9))
        assert best <= direct_transfer_time(cluster, n, "inter") + 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(2, f"single-proxy identity, 4x4 example = 4096, best<=direct on 1000 configs ({elapsed:.2f}s)")


def test_criterion_03_routing_magnitude_on_reference_scenario():
    start = time.time()
    cluster, _ = cluster_a()
    plan = build_plan(SequenceBatch(((0, 65536),)), cluster)
    ring = plan.ring_groups[0]
    assert ring.group_size == 16
    n = 65536 // 16
    send, recv = routing.select_proxies(cluster, ring, 7, 8)
    x1, x2 = len(send), len(recv)
    ratio = routing.routed_time(cluster, n, x1, x2) / direct_transfer_time(cluster, n, "inter")
    assert 1 / 8 <= ratio <= 1 / 4, ratio
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(3, f"per-round routed/direct = {ratio:.6f} in [1/8, 1/4] with x1=x2={x1} ({elapsed:.2f}s)")


def test_criterion_04_zigzag_balance_against_enumeration():
    start = time.time()
    rng = random.Random(4)
    exact = 0
    bounded = 0
    for _ in range(500):
        g = rng.randint(1, 16)
        if rng.random() < 0.5:
            s = 2 * g * rng.randint(1, max(1, 512 // (2 * g)))
        else:
            s = rng.randint(2 * g, 512)
        totals = ring_pair_totals_bruteforce(s, ranges_from_sizes(split_even(s, 2 * g)))
        assert sum(totals) == causal_pairs(s)
        if s % (2 * g) == 0:
            assert len(set(totals)) == 1, (s, g, totals)
            exact += 1
        else:
            chunk_rows = -(-s // (2 * g))
            assert max(totals) - min(totals) <= chunk_rows * s, (s, g)
            bounded += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(4, f"{exact} divisible cases exactly equal, {bounded} within the chunk-row bound ({elapsed:.2f}s)")


def test_criterion_05_partitioner_soundness_on_preset_batches():
    start = time.time()
    cluster, _ = cluster_a()
    checked = 0
    for name in PRESETS:
        for seed in range(200):
            batch = sample_batch(preset(name), 65536, seed=seed)
            plan = build_plan(batch, cluster)
            problems = check_plan(plan, batch.lengths, cluster)
            assert problems == [], (name, seed, problems)
            s = len(batch)
            assert plan.meta["s1_restarts"] <= s
            assert all(r <= s for r in plan.meta["s0_restarts"])
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(5, f"{checked} preset batches pass the independent checker ({elapsed:.2f}s)")


def test_criterion_06_partitioner_quality_vs_bruteforce():
    start = time.time()
    tiny = ClusterSpec(num_nodes=2, gpus_per_node=2, token_capacity=8,
                       inv_bw_intra=0.5, inv_bw_inter=1.0)
    coeffs = CostCoefficients(attn_quadratic=1.0)
    worst = 0.0
    worst_case = None
    compared = 0
    for k in range(1, 6):
        for lengths in itertools.combinations_with_replacement(range(1, 13), k):
            if sum(lengths) > 32:
                continue
            optimum = best_unsplit_makespan(list(lengths), 4, 8, 1.0)
            if optimum is None:
                continue
            plan = build_plan(SequenceBatch(tuple(enumerate(lengths))), tiny)
            _, rep = simulator.simulate(plan, tiny, coeffs)
            ratio = rep.attention_makespan / optimum
            compared += 1
            if ratio > worst:
                worst, worst_case = ratio, lengths
    assert worst <= 2.0, (worst, worst_case)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(6, f"{compared} exhaustive instances, worst makespan ratio {worst:.3f} "
              f"(lengths {worst_case}) <= 2.0 ({elapsed:.2f}s)")


def test_criterion_07_remapping_matches_lp_oracle():
    start = time.time()
    rng = random.Random(7)
    import numpy as np
    for trial in range(500):
        d = rng.randint(1, 6)
        counts = [rng.randint(0, 40 // d) for _ in range(d)]
        if d % 2 == 0 and rng.random() < 0.5:
            cluster = ClusterSpec(num_nodes=2, gpus_per_node=d // 2, token_capacity=100,
                                  inv_bw_intra=1.0, inv_bw_inter=rng.uniform(1.0, 20.0))
            cost = remapping.cost_matrix(cluster)
        else:
            cost = np.full((d, d), rng.uniform(0.1, 5.0))
            np.fill_diagonal(cost, 0.0)
        result = remapping.solve_remap(counts, cost)
        oracle = lp_remap_oracle(counts, cost)
        assert result.objective == pytest.approx(oracle, rel=1e-6, abs=1e-9), (counts, trial)
        total = sum(counts)
        base, extra = divmod(total, d)
        target = [base + 1 if i < extra else base for i in range(d)]
        assert result.matrix.sum(axis=1).tolist() == [max(c - t, 0) for c, t in zip(counts, target)]
        assert result.matrix.sum(axis=0).tolist() == [max(t - c, 0) for c, t in zip(counts, target)]
    uniform = remapping.solve_remap([7, 7, 7], np.ones((3, 3)) - np.eye(3))
    assert uniform.objective == 0.0 and not uniform.matrix.any()
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(7, f"500 instances within 1e-6 of the LP optimum, constraints exact ({elapsed:.2f}s)")


def test_criterion_08_dominance_and_speedup():
    start = time.time()
    cluster, coeffs = cluster_a()
    wins = 0
    total = 0
    speedups = {name: [] for name in PRESETS}
    for name in PRESETS:
        for seed in range(200):
            batch = sample_batch(preset(name), 65536, seed=seed)
            zep = simulator.simulate(build_plan(batch, cluster), cluster, coeffs)[1]
            te = simulator.simulate(plan_te_cp(batch, cluster), cluster, coeffs)[1]
            assert zep.inter_comm_tokens <= te.inter_comm_tokens, (name, seed)
            total += 1
            if zep.total_step <= te.total_step:
                wins += 1
            speedups[name].append(te.total_step / zep.total_step)
    win_rate = wins / total
    assert win_rate >= 0.95, win_rate
    prolong_avg = sum(speedups["prolong64k"]) / len(speedups["prolong64k"])
    assert prolong_avg > 1.5, prolong_avg
    elapsed = time.time() - start
    assert elapsed < 60.0
    avg_all = {k: sum(v) / len(v) for k, v in speedups.items()}
    report(8, f"inter-volume dominance on {total}/600 batches, makespan wins {win_rate:.1%}, "
              f"avg speedups {avg_all} ({elapsed:.2f}s)")


def test_criterion_09_deterministic_compare(tmp_path):
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.csv"
        traces = tmp_path / f"{tag}-traces"
        rc = cli.main(["compare", "--config", "cluster_a", "--dataset", "github",
                       "--total-len", "65536", "--seed", "11",
                       "--strategies", "zeppelin,te_cp,llama_cp,hybrid_dp",
                       "--out", str(out), "--trace-dir", str(traces)])
        assert rc == 0
        trace_bytes = {p.name: p.read_bytes() for p in sorted(traces.glob("*.trace.json"))}
        outputs.append((out.read_bytes(), trace_bytes))
    assert outputs[0] == outputs[1]
    report(9, "two identical-seed compare runs produced byte-identical CSV and traces")


def test_criterion_10_trace_validity(tmp_path):
    cluster, coeffs = cluster_a()
    batches = [
        SequenceBatch(((0, 131072),)),
        sample_batch(preset("prolong64k"), 65536, seed=42),
    ]
    events_checked = 0
    for i, batch in enumerate(batches):
        for planner in (build_plan, plan_te_cp):
            timeline, _ = simulator.simulate(planner(batch, cluster), cluster, coeffs)
            path = tmp_path / f"trace-{i}-{planner.__name__}.json"
            simulator.export_trace(timeline, str(path))
            payload = json.loads(path.read_text())
            lanes = {}
            routes = {}
            for record in payload["traceEvents"]:
                assert record["ph"] == "X"
                assert record["dur"] >= 0 and record["ts"] >= 0
                lanes.setdefault(record["tid"], []).append(record)
                if record["name"].startswith("route."):
                    key = (record["args"]["ring"], record["args"]["round"], record["args"]["src"])
                    routes.setdefault(key, {}).setdefault(record["name"], []).append(record)
                events_checked += 1
            for lane in lanes.values():
                lane.sort(key=lambda r: r["ts"])
                for a, b in zip(lane, lane[1:]):
                    assert a["ts"] + a["dur"] <= b["ts"] + 1e-3, (a, b)
            for steps in routes.values():
                d_end = max(r["ts"] + r["dur"] for r in steps["route.dispatch"])
                t_start = min(r["ts"] for r in steps["route.transfer"])
                t_end = max(r["ts"] + r["dur"] for r in steps["route.transfer"])
                c_start = min(r["ts"] for r in steps["route.combine"])
                assert t_start >= d_end - 1e-3
                assert c_start >= t_end - 1e-3
    report(10, f"{events_checked} trace events parsed with exclusive lanes and ordered route steps")
