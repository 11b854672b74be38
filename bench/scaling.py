"""One-pass per-layer scaling report: host time of each planner stage on
`cluster_a(num_nodes=N)` for N = 2, 4, 8, 16, 32, with 32k tokens per node
(64k at N=2, 1M at N=32), on one github batch per N.

    python3 bench/scaling.py

Prints a markdown table (milliseconds, one run per stage), then one JSON
line with the rows and the machine description. This is not a gated
workload: at N=32 one simulate takes seconds per strategy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import harness
import run  # this directory's benchmark entry point: paths and environment record

NODES = (2, 4, 8, 16, 32)
TOKENS_PER_NODE = 32768
DATASET = "github"
SEED = 1
COLUMNS = (
    ("sample_batch", "sample_batch"),
    ("build_plan", "build_plan"),
    ("build_schedule", "build_schedule"),
    ("route_schedule", "route_schedule"),
    ("solve_remap", "solve_remap"),
    ("simulate.zeppelin", "simulate zeppelin"),
    ("simulate.te_cp", "simulate te_cp"),
    ("simulate.llama_cp", "simulate llama_cp"),
    ("simulate.hybrid_dp", "simulate hybrid_dp"),
    ("export_trace.zeppelin", "export_trace zeppelin"),
    ("export_trace.te_cp", "export_trace te_cp"),
)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1e3


def scale_row(lib, nodes: int, workdir: str) -> dict:
    cluster, coeffs = lib.topology.cluster_a(num_nodes=nodes)
    tokens = TOKENS_PER_NODE * nodes
    ms: dict[str, float] = {}
    batch, ms["sample_batch"] = _timed(lib.workload.sample_batch, lib.workload.preset(DATASET), tokens, SEED)
    plan, ms["build_plan"] = _timed(lib.partitioner.build_plan, batch, cluster)
    schedule, ms["build_schedule"] = _timed(lib.attention_engine.build_schedule, plan)
    routes, ms["route_schedule"] = _timed(lib.routing.route_schedule, schedule, plan, cluster)
    _, ms["solve_remap"] = _timed(
        lambda: lib.remapping.solve_remap(plan.tokens_per_rank, lib.remapping.cost_matrix(cluster)))
    planners = {"zeppelin": lib.partitioner.build_plan, "te_cp": lib.baselines.plan_te_cp,
                "llama_cp": lib.baselines.plan_llama_cp, "hybrid_dp": lib.baselines.plan_hybrid_dp}
    events = {}
    for strategy, planner in planners.items():
        try:
            strategy_plan = planner(batch, cluster)
        except lib.partitioner.InfeasibleBatch:
            continue
        (timeline, _), ms[f"simulate.{strategy}"] = _timed(lib.simulator.simulate, strategy_plan, cluster, coeffs)
        events[strategy] = len(timeline.events)
        if strategy in ("zeppelin", "te_cp"):
            path = os.path.join(workdir, f"{nodes}-{strategy}.trace.json")
            _, ms[f"export_trace.{strategy}"] = _timed(lib.simulator.export_trace, timeline, path)
            os.remove(path)
    return {"nodes": nodes, "ranks": cluster.num_ranks, "tokens": tokens, "sequences": len(batch),
            "routes": len(routes), "events": events, "ms": ms}


def markdown(rows: list[dict]) -> str:
    head = ["N nodes / ranks", "tokens", *(label for _, label in COLUMNS), "trace events (z / te)"]
    lines = ["| " + " | ".join(head) + " |", "| " + " | ".join("---" for _ in head) + " |"]
    for row in rows:
        cells = [f"{row['nodes']} / {row['ranks']}", f"{row['tokens'] // 1024}k"]
        cells += [f"{row['ms'][key]:.3g}" if key in row["ms"] else "infeasible" for key, _ in COLUMNS]
        cells.append(f"{row['events'].get('zeppelin', '-')} / {row['events'].get('te_cp', '-')}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    if not os.path.isfile(os.path.join(run.SRC, "varlenplan", "__init__.py")):
        print(f"error: no varlenplan sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    lib = harness.import_fresh()
    workdir = os.path.join(run.OUT_DIR, f"scaling-{os.getpid()}")
    os.makedirs(workdir)
    rows = []
    try:
        for n in NODES:
            rows.append(scale_row(lib, n, workdir))
            print(f"# N={n} done", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# {DATASET} batch, seed {SEED}, {TOKENS_PER_NODE // 1024}k tokens per node, host ms per stage")
    print(markdown(rows))
    env = run.environment({"dataset": DATASET, "seed": SEED})
    print(json.dumps({"environment": env, "rows": rows}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
