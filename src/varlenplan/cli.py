"""Command-line entry point: sample, plan, simulate, compare.

Exit codes: 0 success, 2 usage, config-value or invalid-plan error,
3 infeasible batch, 4 I/O failure (any OSError, as for a missing file) or
an input that is not valid JSON or not UTF-8 text.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import baselines, partitioner, simulator, topology, workload

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(prog="varlenplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="sample a synthetic batch from a dataset length preset")
    p_sample.add_argument("--dataset", required=True, choices=workload.PRESET_NAMES)
    p_sample.add_argument("--total-len", required=True, type=int, help="exact batch token total")
    p_sample.add_argument("--seed", required=True, type=int)
    p_sample.add_argument("--out", required=True, help="output batch JSON path")

    p_plan = sub.add_parser("plan", help="build a placement plan for a batch")
    p_plan.add_argument("--config", required=True, help="cluster config path or 'cluster_a'")
    p_plan.add_argument("--batch", required=True, help="batch JSON path")
    p_plan.add_argument("--strategy", default="zeppelin", choices=baselines.STRATEGIES)
    p_plan.add_argument("--out", required=True, help="output plan JSON path")

    p_sim = sub.add_parser("simulate", help="simulate a stored plan")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--plan", required=True, help="plan JSON path")
    p_sim.add_argument("--trace", help="Chrome trace output path")
    p_sim.add_argument("--report", help="report CSV output path")

    p_cmp = sub.add_parser("compare", help="plan + simulate several strategies on one batch")
    p_cmp.add_argument("--config", required=True)
    src = p_cmp.add_mutually_exclusive_group(required=True)
    src.add_argument("--batch", help="batch JSON path")
    src.add_argument("--dataset", choices=workload.PRESET_NAMES, help="sample a batch instead")
    p_cmp.add_argument("--total-len", type=int, help="token total when sampling")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--strategies", default=",".join(baselines.STRATEGIES),
                       help="comma-separated strategy list")
    p_cmp.add_argument("--out", required=True, help="comparison CSV path")
    p_cmp.add_argument("--trace-dir", help="also export one trace JSON per strategy here")
    return parser


class _UnreadableInput(Exception):
    """An input file that is not UTF-8 text or not valid JSON."""


def _read(load, path: str):
    """`load(path)`, a decode error of the file raised as `_UnreadableInput`
    naming it."""
    try:
        return load(path)
    except json.JSONDecodeError as exc:
        raise _UnreadableInput(f"invalid JSON input in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _UnreadableInput(f"input is not UTF-8 text in {path}: {exc}") from exc


def _load_batch_arg(args: argparse.Namespace) -> workload.SequenceBatch:
    if getattr(args, "batch", None):
        return _read(workload.load_batch, args.batch)
    if args.total_len is None:
        raise topology.ConfigError("--total-len is required when sampling with --dataset")
    dist = workload.preset(args.dataset)
    return workload.sample_batch(dist, args.total_len, args.seed)


def _cmd_sample(args: argparse.Namespace) -> int:
    dist = workload.preset(args.dataset)
    batch = workload.sample_batch(dist, args.total_len, args.seed)
    workload.save_batch(args.out, batch)
    print(f"wrote {len(batch)} sequences ({batch.total_tokens} tokens) to {args.out}")
    return EXIT_OK


def _cmd_plan(args: argparse.Namespace) -> int:
    cluster, _ = _read(topology.resolve_cluster, args.config)
    batch = _read(workload.load_batch, args.batch)
    plan = baselines.plan_with(args.strategy, batch, cluster)
    partitioner.save_plan(args.out, plan)
    print(f"wrote {args.strategy} plan for {len(batch)} sequences to {args.out}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    cluster, coeffs = _read(topology.resolve_cluster, args.config)
    plan = _read(partitioner.load_plan, args.plan)
    batch = partitioner.batch_from_plan(plan)
    simulator.check_topology(plan, cluster)
    partitioner.validate_plan(plan, batch, cluster)
    timeline, report = simulator.simulate(plan, cluster, coeffs)
    simulator.set_speedups([report], batch, cluster, coeffs)
    if args.trace:
        simulator.export_trace(timeline, args.trace)
    if args.report:
        simulator.write_compare_csv([report], args.report)
    print(f"{plan.strategy}: attention {report.attention_makespan:.6g}s, "
          f"total step {report.total_step:.6g}s")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    cluster, coeffs = _read(topology.resolve_cluster, args.config)
    batch = _load_batch_arg(args)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    reports, timelines = simulator.compare_with_timelines(batch, cluster, coeffs, strategies)
    simulator.write_compare_csv(reports, args.out)
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        for name, timeline in timelines.items():
            simulator.export_trace(timeline, os.path.join(args.trace_dir, f"{name}.trace.json"))
    for report in reports:
        if report.feasible:
            speedup = f"{report.speedup_vs_te_cp:.3f}x" if report.speedup_vs_te_cp else "n/a"
            print(f"{report.strategy}: total {report.total_step:.6g}s, speedup vs te_cp {speedup}")
        else:
            print(f"{report.strategy}: infeasible ({report.error})", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "sample": _cmd_sample,
        "plan": _cmd_plan,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except partitioner.InfeasibleBatch as exc:
        print(f"error: infeasible batch: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: cannot access {getattr(exc, 'filename', None) or exc}", file=sys.stderr)
        return EXIT_IO
    except _UnreadableInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except partitioner.PlanValidationError as exc:
        print(f"error: invalid plan: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (topology.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
