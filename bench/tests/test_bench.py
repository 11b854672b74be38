"""Tests of the benchmark's own code: inputs, statistics, checks, spans."""

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

import harness
import spans

TINY = harness.Workload("tiny", 2, 16384, ("arxiv", "github"), 6, 6, 3, 2, "test workload")


def traced_round(runner):
    for i in range(len(runner.st.cli_set)):
        runner.traced_step(i)


@pytest.fixture
def st(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    return harness.setup(TINY, 7, str(tmp_path))


def test_pool_is_deterministic_for_a_seed():
    lib = harness.import_fresh()
    first = harness.make_pool(lib, TINY, 11)
    assert first == harness.make_pool(lib, TINY, 11)
    assert first != harness.make_pool(lib, TINY, 12)
    assert all(b.total_tokens == TINY.total_tokens for b in first)
    with pytest.raises(ValueError):
        harness.make_pool(lib, TINY, -1)


def test_strata_take_the_middle_of_each_stratum():
    lib = harness.import_fresh()
    pool = harness.make_pool(lib, dataclasses.replace(TINY, pool_size=37), 3)
    ranked = sorted(range(37), key=lambda i: (len(pool[i]), i))
    assert harness.strata(pool, 1) == [ranked[18]]
    assert sorted(harness.strata(pool, 37)) == list(range(37))
    four = harness.strata(pool, 4)
    assert four == [ranked[4], ranked[13], ranked[23], ranked[32]]
    for k in (0, 38):
        with pytest.raises(ValueError):
            harness.strata(pool, k)


def test_each_phase_calls_exactly_its_fixed_batches(st, tmp_path):
    # a run far too short for its budget still calls every batch of each set once
    res = harness.Runner(st, str(tmp_path)).run(1e-6)
    assert res.tally.failed == 0
    assert sorted(res.plan) == sorted(st.plan_set)
    assert sorted(res.sweep) == sorted(st.sweep_set)
    assert sorted(res.cli) == sorted(st.cli_set)
    assert all(len(calls) == 1 for calls in (*res.plan.values(), *res.sweep.values(), *res.cli.values()))


def test_summary_states_its_sample_count():
    s = harness.summarize([float(x) for x in range(1, 101)])
    assert s["n"] == 100
    assert s["p50"] == 50.5
    assert s["beyond_p90"] == 10
    assert s["q1"] < s["p50"] < s["q3"] < s["p90"]
    assert harness.summarize([2.0])["n"] == 1
    assert harness.summarize([])["n"] == 0


def test_corrupted_csv_and_trace_are_rejected(st):
    lib = st.lib
    strategies = list(lib.baselines.STRATEGIES)
    text = lib.simulator.reports_to_csv(lib.simulator.compare(st.pool[0], st.cluster, st.coeffs, strategies))
    header = lib.simulator.CSV_HEADER
    assert harness.check_csv(text, header, strategies) is None
    lines = text.splitlines()
    bad_number = "\n".join([lines[0], lines[1].replace(",", ",x", 1)] + lines[2:]) + "\n"
    assert harness.check_csv(bad_number, header, strategies) is not None
    inter = header.split(",").index("inter_comm_tokens")
    feasible = next(i for i, line in enumerate(lines) if i and line.split(",")[1])
    for bad in ("x", "-1"):
        fields = lines[feasible].split(",")
        fields[inter] = bad
        corrupted = lines[:feasible] + [",".join(fields)] + lines[feasible + 1:]
        assert harness.check_csv("\n".join(corrupted) + "\n", header, strategies) is not None
    assert harness.check_csv("\n".join(lines[:-1]) + "\n", header, strategies) is not None
    assert harness.check_trace(b'{"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "dur": 1, '
                               b'"pid": 0, "tid": "0.compute"}]}') is None
    assert harness.check_trace(b'{"traceEvents": [{"name": "a", "ph": "X", "ts": 0,') is not None
    assert harness.check_trace(b'{"traceEvents": [{"name": "a", "ph": "X", "ts": -1, "dur": 1, '
                               b'"pid": 0, "tid": 0}]}') is not None


def test_changed_output_flips_failures_and_digest(st, tmp_path, monkeypatch):
    runner = harness.Runner(st, str(tmp_path))
    runner.sweep_step(0)
    traced_round(runner)
    assert runner.res.tally.failed == 0
    assert runner.res.tally.attempted == 1 + len(st.cli_set)
    clean = runner.outputs_sha256()
    # repeats of the same batches leave the digest as it was
    runner.sweep_step(0)
    traced_round(runner)
    assert runner.res.tally.failed == 0
    assert runner.outputs_sha256() == clean

    real = st.lib.simulator.reports_to_csv
    monkeypatch.setattr(st.lib.simulator, "reports_to_csv", lambda reports: real(reports).replace("1", "2", 1))
    runner.sweep_step(0)
    assert runner.res.tally.failed == 1
    assert runner.res.tally.failed_share > 0

    # a run whose outputs differ from the start has another digest
    fresh = harness.Runner(st, str(tmp_path))
    fresh.sweep_step(0)
    traced_round(fresh)
    assert fresh.res.tally.failed == 0
    assert fresh.outputs_sha256() != clean


def test_child_spans_nest_inside_their_parent(st, tmp_path):
    original = st.lib.simulator.simulate
    tracer = spans.Tracer()
    tracer.install(st.lib)
    try:
        runner = harness.Runner(st, str(tmp_path), span=tracer.span)
        runner.plan_step(0)
        runner.sweep_step(0)
        traced_round(runner)
    finally:
        tracer.uninstall()
    assert st.lib.simulator.simulate is original
    assert runner.res.tally.failed == 0
    by_id = {s.id: s for s in tracer.spans}
    nested = [s for s in tracer.spans if s.parent is not None]
    assert nested
    for s in nested:
        parent = by_id[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end, (parent.name, s.name)
    parents = {(by_id[s.parent].name, s.name) for s in nested}
    assert ("simulator.compare", "simulator.simulate") in parents
    assert ("simulator.simulate", "attention_engine.build_schedule") in parents
    assert ("bench.plan_path", "remapping.solve_remap") in parents
    metrics = spans.layer_metrics(tracer)
    assert metrics["cli.simulate_calls_per_strategy"][0] == 2.0
    assert metrics["attention_engine.unused_schedules"][0] == 1.0


def test_run_exits_nonzero_without_sources(tmp_path):
    bench = os.path.join(str(tmp_path), "bench")
    shutil.copytree(harness.__file__.rsplit(os.sep, 1)[0], bench,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, os.path.join(bench, "run.py"), "--workload", "sweep-2n",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaling_uses_the_reference_calls_around_each_call():
    ref_s = harness.REFERENCE_MS / 1e3
    # a reference call every 0.25 s; full speed until t=10, then every third
    # call takes four times as long, so the host's mean slowdown there is 2x
    reference = [(k / 4, 4 * ref_s if k >= 40 and k % 3 == 0 else ref_s) for k in range(81)]
    samples = [(2.0, 0.5), (15.0, 1.0)]
    assert harness.scale_to_reference(samples, reference) == pytest.approx([0.5, 0.5])
    # too few reference calls in the window: the nearest ones are used
    sparse = [(float(t), 2 * ref_s) for t in range(0, 24, 3)]
    assert harness.scale_to_reference([(10.0, 1.0)], sparse) == pytest.approx([0.5])
