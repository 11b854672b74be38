"""Before/after planner timings of one change, written as a BENCH_*.json file.

    python3 scripts/bench_record.py --base <rev> --out BENCH_<n>.json

Exports the library at <rev> with `git archive` into a temporary directory
and measures it against this checkout's src/ on the same machine, in ROUNDS
pairs of runs. Each round starts one fresh worker process per side, the side
that goes first alternating from round to round. A worker first runs
bench/harness.py's reference work once and discards it, since a fresh
process runs its first call slow. It then times every cell once to warm up
and then until it has at least CALLS calls and at least MIN_CELL_S seconds
of them, so that a sub-millisecond cell rests on many calls; the median of
those calls is the run's value. Each call is scaled to the reference host
as bench/run.py scales its samples: a worker runs the reference work once
before each cell and once after its last, and `harness.scale_to_reference`
divides each call by the reference calls around it. A cell reports, per
side, the median and quartiles of its ROUNDS run values; the ratio of the
medians; in how many of the ROUNDS pairs (one round's two runs) the change
was faster; and whether the medians lie further apart than the parent's
quartiles do. A gain is resolved when the change wins at least nine in ten
pairs and the gap exceeds that spread.

The file holds:
- the machine, the interpreter and, per side, its git SHA and src_sha256;
  when src/ has uncommitted changes, the change side's git_sha is null and
  its `tree` reads "working tree over <HEAD's SHA>", since HEAD's SHA would
  name code other than what was measured. src/ is hashed before the first
  round and again before the file is written; when the two differ, the
  script exits non-zero, naming both, and writes nothing;
- a stage table on `cluster_a(num_nodes=N)`, N = 2, 4, 8, 16, 32, with one
  github batch (seed 1, 32k tokens per node) per N: sample_batch,
  build_plan, build_schedule, route_schedule, solve_remap, each strategy's
  simulate and export_trace, and the planner columns plan_te_cp followed by
  plan_llama_cp on one batch, plan_hybrid_dp, and plan_to_json and
  plan_from_json of the te_cp plan;
- in-process `cli.main(["compare", ...])` over all four strategies at N = 8
  and 32, without and with --trace-dir;
- a cold start: bench/harness.py's `setup` of the github-8n workload, which
  imports varlenplan afresh, writes the cluster's config file and samples
  its pool of 160 github batches of 262,144 tokens, SETUP_REPEATS times,
  read as bench/run.py reads setup_s: each repeat scaled to the reference
  host by the reference calls around it, in ms;
- the wall-clock of each side's Tier-1 suite, run once per side;
- per side, a sha256 over the compare CSVs and trace files the workers
  wrote, which must be equal.

Every planner call gets a new SequenceBatch object with the batch's
sequences, as a compare of a freshly loaded batch does, so no timed call
reuses a plan kept from an earlier one. Times are milliseconds on the
reference host.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NODES = (2, 4, 8, 16, 32)
COMPARE_NODES = (8, 32)
ROUNDS = 10
CALLS = 3
MIN_CELL_S = 0.05
TOKENS_PER_NODE = 32768
DATASET = "github"
SEED = 1
COLD_START_WORKLOAD = "github-8n"


@functools.cache
def _harness():
    """bench/harness.py, for its reference work and its set-up."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import harness

    return harness


def _timed(reference: list, fn, setup=None) -> list[tuple[float, float]]:
    """(midpoint, seconds) of the timed calls of fn(*setup()), at least
    CALLS of them and at least MIN_CELL_S seconds in all, after one
    reference call into `reference` and one untimed call; setup runs outside
    the timed region."""
    _harness().timed_reference(reference)
    fn(*(setup() if setup else ()))
    samples, total = [], 0.0
    while len(samples) < CALLS or total < MIN_CELL_S:
        args = setup() if setup else ()
        t0 = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - t0
        samples.append((t0 + elapsed / 2, elapsed))
        total += elapsed
    return samples


def _stage_row(lib, nodes: int, workdir: str, reference: list) -> dict:
    attention_engine, baselines, partitioner, remapping, routing, simulator, topology, workload = lib
    cluster, coeffs = topology.cluster_a(num_nodes=nodes)
    tokens = TOKENS_PER_NODE * nodes
    dist = workload.preset(DATASET)
    batch = workload.sample_batch(dist, tokens, SEED)

    def fresh():
        return (workload.SequenceBatch(batch.sequences),)

    ms = {"sample_batch": _timed(reference, lambda: workload.sample_batch(dist, tokens, SEED)),
          "build_plan": _timed(reference, lambda b: partitioner.build_plan(b, cluster), fresh)}
    plan = partitioner.build_plan(*fresh(), cluster)
    schedule = attention_engine.build_schedule(plan)
    ms["build_schedule"] = _timed(reference, lambda: attention_engine.build_schedule(plan))
    ms["route_schedule"] = _timed(reference, lambda: routing.route_schedule(schedule, plan, cluster))
    ms["solve_remap"] = _timed(reference, 
        lambda: remapping.solve_remap(plan.tokens_per_rank, remapping.cost_matrix(cluster)))
    ms["plan_te_cp+plan_llama_cp"] = _timed(reference, 
        lambda b: (baselines.plan_te_cp(b, cluster), baselines.plan_llama_cp(b, cluster)), fresh)
    ms["plan_hybrid_dp"] = _timed(reference, lambda b: baselines.plan_hybrid_dp(b, cluster), fresh)
    te = baselines.plan_te_cp(*fresh(), cluster)
    ms["plan_to_json"] = _timed(reference, lambda: partitioner.plan_to_json(te))
    text = partitioner.plan_to_json(te)
    ms["plan_from_json"] = _timed(reference, lambda: partitioner.plan_from_json(text))
    for strategy in baselines.STRATEGIES:
        try:
            strategy_plan = baselines.plan_with(strategy, *fresh(), cluster)
        except partitioner.InfeasibleBatch:
            continue
        ms[f"simulate.{strategy}"] = _timed(reference, lambda: simulator.simulate(strategy_plan, cluster, coeffs))
        timeline = simulator.simulate(strategy_plan, cluster, coeffs)[0]
        path = os.path.join(workdir, "stage.trace.json")
        ms[f"export_trace.{strategy}"] = _timed(reference, lambda: simulator.export_trace(timeline, path))
        os.remove(path)
    return {"nodes": nodes, "ranks": cluster.num_ranks, "tokens": tokens, "sequences": len(batch), "ms": ms}


def _compare_rows(cli, topology, workload, workdir: str, reference: list) -> tuple[list[dict], str]:
    """Timed `compare` runs, and a sha256 over the CSVs and traces of the
    last run of each."""
    digest = hashlib.sha256()
    rows = []
    for nodes in COMPARE_NODES:
        cluster, coeffs = topology.cluster_a(num_nodes=nodes)
        config, batch_path = os.path.join(workdir, f"{nodes}.cfg"), os.path.join(workdir, f"{nodes}.batch.json")
        topology.save_cluster_config(config, cluster, coeffs)
        workload.save_batch(batch_path, workload.sample_batch(workload.preset(DATASET), TOKENS_PER_NODE * nodes, SEED))
        for traced in (False, True):
            out_dir = os.path.join(workdir, f"{nodes}-{int(traced)}")
            os.makedirs(out_dir)
            csv = os.path.join(out_dir, "compare.csv")
            argv = ["compare", "--config", config, "--batch", batch_path, "--out", csv]
            if traced:
                argv += ["--trace-dir", out_dir]

            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"compare exited non-zero: {argv}")

            rows.append({"nodes": nodes, "traced": traced, "ms": _timed(reference, run)})
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    digest.update(f"{nodes}/{int(traced)}/{name}\0".encode() + fh.read())
            shutil.rmtree(out_dir)
    return rows, digest.hexdigest()


def _cold_start(workdir: str) -> list[float]:
    """Milliseconds of each repeat of the benchmark's own set-up, scaled to
    the reference host as setup_s is; it imports the library from
    PYTHONPATH like everything else here."""
    harness = _harness()
    setup = harness.setup(harness.WORKLOADS[COLD_START_WORKLOAD], SEED, workdir)
    return [seconds * 1e3 for seconds in harness.scale_to_reference(setup.samples, setup.reference)]


def worker(workdir: str) -> dict:
    """One side's measurements in this process; the library comes from
    PYTHONPATH."""
    from varlenplan import (attention_engine, baselines, cli, partitioner, remapping, routing, simulator,
                            topology, workload)

    lib = (attention_engine, baselines, partitioner, remapping, routing, simulator, topology, workload)
    _harness().reference_work()  # a fresh process runs its first call slow
    reference: list[tuple[float, float]] = []
    stages = [_stage_row(lib, n, workdir, reference) for n in NODES]
    compare, digest = _compare_rows(cli, topology, workload, workdir, reference)
    harness = _harness()
    harness.timed_reference(reference)

    def scaled(samples: list[tuple[float, float]]) -> list[float]:
        return [seconds * 1e3 for seconds in harness.scale_to_reference(samples, reference)]

    for row in stages:
        row["ms"] = {key: scaled(samples) for key, samples in row["ms"].items()}
    for row in compare:
        row["ms"] = scaled(row["ms"])
    return {"stages": stages, "compare": compare, "cold_start": _cold_start(workdir), "outputs_sha256": digest}


def src_sha256(root: str) -> str:
    """sha256 over the library's source files, as bench/run.py computes it."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "varlenplan")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _change_side(src: str) -> dict:
    """The checkout's git SHA beside `src`, the src_sha256 it was measured
    at. With uncommitted changes under src/, no SHA names the code
    measured, so git_sha is null and a tree note names the commit the
    working tree sits over."""
    head = _git("rev-parse", "HEAD")
    if _git("status", "--porcelain", "src"):
        return {"git_sha": None, "tree": f"working tree over {head}", "src_sha256": src}
    return {"git_sha": head, "src_sha256": src}


def write_record(path: str, record: dict, src_before: str) -> None:
    """Write the record, unless src/ changed since `src_before` was taken
    before the first round: the workers import the live src/, so the
    rounds may then have measured two versions of the code. In that case
    exit non-zero, naming both hashes, and write nothing."""
    src_now = src_sha256(ROOT)
    if src_now != src_before:
        sys.exit(f"src/ changed during the recording: src_sha256 {src_before} before the first round, "
                 f"{src_now} before writing; {path} not written")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def _summary(samples: list[float]) -> dict:
    q1, p50, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"p50": round(p50, 4), "q1": round(q1, 4), "q3": round(q3, 4), "n": len(samples)}


def _cells(parent: dict[str, list[float]], change: dict[str, list[float]]) -> dict:
    """Per cell, both sides' run values summarized and compared pair by
    pair; round r's two runs are pair r."""
    cells = {}
    for key in parent:
        if key in change:
            before, after = _summary(parent[key]), _summary(change[key])
            cells[key] = {"parent": before, "change": after,
                          "change_over_parent": round(after["p50"] / before["p50"], 4),
                          "change_faster_pairs": sum(c < b for b, c in zip(parent[key], change[key])),
                          "pairs": len(parent[key]),
                          "gap_over_parent_iqr": abs(after["p50"] - before["p50"]) > before["q3"] - before["q1"]}
    return cells


def _merge(runs: list[dict]) -> dict:
    """One side's rounds, each cell a list of its run values in round
    order."""
    first = runs[0]
    stages = [{**row, "ms": {key: [statistics.median(run["stages"][i]["ms"][key]) for run in runs]
                             for key in row["ms"]}}
              for i, row in enumerate(first["stages"])]
    compare = [{**row, "ms": [statistics.median(run["compare"][i]["ms"]) for run in runs]}
               for i, row in enumerate(first["compare"])]
    cold_start = [statistics.median(run["cold_start"]) for run in runs]
    digests = {run["outputs_sha256"] for run in runs}
    if len(digests) != 1:
        raise RuntimeError("one side's outputs differ from round to round")
    return {"stages": stages, "compare": compare, "cold_start": cold_start, "outputs_sha256": digests.pop()}


def _tier1(root: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=root, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    return {"seconds": round(seconds, 2), "exit_code": done.returncode, "summary": lines[-1] if lines else ""}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", help="the parent revision to measure against")
    parser.add_argument("--out", help="the BENCH_*.json file to write")
    parser.add_argument("--workdir", help="where the temporary files go (default: the system's temp directory)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.workdir)))
        return 0
    if not (args.base and args.out):
        parser.error("--base and --out are required")

    base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    src_before = src_sha256(ROOT)
    scratch = tempfile.mkdtemp(prefix="bench-record-", dir=args.workdir)
    try:
        roots = {"parent": os.path.join(scratch, "parent"), "change": ROOT}
        os.makedirs(roots["parent"])
        archive = subprocess.run(["git", "archive", base_sha], cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", roots["parent"]], input=archive, check=True)
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for r in range(ROUNDS):
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                workdir = tempfile.mkdtemp(dir=scratch)
                env = {**os.environ, "PYTHONPATH": os.path.join(roots[side], "src")}
                done = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", "--workdir", workdir],
                                      env=env, capture_output=True, text=True, check=True)
                runs[side].append(json.loads(done.stdout))
                shutil.rmtree(workdir)
                print(f"# round {r + 1}/{ROUNDS}: {side} done", file=sys.stderr)
        tier1 = {side: _tier1(roots[side]) for side in ("parent", "change")}
        sides = {side: _merge(runs[side]) for side in runs}
        record = {
            "command": f"python3 scripts/bench_record.py --base {args.base} --out {os.path.basename(args.out)}",
            "environment": {
                "cpu_model": _cpu_model(),
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "platform": platform.platform(),
            },
            "sides": {
                "parent": {"git_sha": base_sha, "src_sha256": src_sha256(roots["parent"])},
                "change": _change_side(src_before),
            },
            "method": {
                "rounds": ROUNDS, "calls_per_run": CALLS, "min_cell_s": MIN_CELL_S,
                "run": "median of one worker's timed calls of a cell, at least calls_per_run of them and at "
                       "least min_cell_s seconds in all, after one untimed call, each call scaled to the "
                       "reference host by bench/harness.py's reference calls around it (one before each cell, "
                       "one after the worker's last; one more when the worker starts is discarded), ms",
                "cell": "per side, median and quartiles of its runs; pairs the change was faster in; "
                        "whether the medians differ by more than the parent's quartile spread",
                "batch": f"{DATASET}, seed {SEED}, {TOKENS_PER_NODE} tokens per node, cluster_a(num_nodes=N)",
                "cold_start": f"bench/harness.py setup of {COLD_START_WORKLOAD}, seed {SEED}: median of its "
                              "repeats, each scaled to the reference host as setup_s is, ms",
            },
            "stages": [
                {key: row[key] for key in ("nodes", "ranks", "tokens", "sequences")}
                | {"ms": _cells(row["ms"], sides["change"]["stages"][i]["ms"])}
                for i, row in enumerate(sides["parent"]["stages"])
            ],
            "compare": [
                {"nodes": row["nodes"], "traced": row["traced"],
                 "ms": _cells({"main": row["ms"]}, {"main": sides["change"]["compare"][i]["ms"]})["main"]}
                for i, row in enumerate(sides["parent"]["compare"])
            ],
            "cold_start": {"ms": _cells({"main": sides["parent"]["cold_start"]},
                                        {"main": sides["change"]["cold_start"]})["main"]},
            "tier1": tier1,
            "outputs_sha256": {side: sides[side]["outputs_sha256"] for side in sides}
            | {"equal": sides["parent"]["outputs_sha256"] == sides["change"]["outputs_sha256"]},
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    write_record(args.out, record, src_before)
    print(f"wrote {args.out}")
    return 0 if record["outputs_sha256"]["equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
