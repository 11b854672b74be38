"""Planner wall-clock benchmark for varlenplan.

    python3 bench/run.py --workload github-8n --seed 1000 --seconds 40 --trace 0

Runs one workload in this process, on one thread, as a closed loop (each
call starts after the previous one returned). With --trace 0 it prints the
end-to-end metrics; with --trace 1 it wraps the library's public functions
in spans and prints the per-layer metrics instead, and writes the spans as
Chrome Trace Event JSON under .bench_out/. The last line of standard output
is the result JSON: {"correct", "attempted", "failed", "metrics"}. See
bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

OVERHEAD_BATCHES = 4
OVERHEAD_REPEATS = 3


def parse_args(argv: list[str] | None, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=36.0, help="time budget of the measured phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from spans instead of end-to-end metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def git_sha(root: str) -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git work tree."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(root, ".git", ref))
    if sha is not None:
        return sha.strip()
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def src_sha256() -> str:
    """sha256 over the library's source files, to tell builds apart where
    no git metadata exists."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "varlenplan")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(fields: dict) -> dict:
    """The machine, interpreter and code a result was measured on, plus the
    run's own settings given in `fields`."""
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor() or platform.machine())
    return {
        **fields,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "src_sha256": src_sha256(),
    }


def _spread(summary: dict) -> dict:
    """Sample count, quartiles and their distance as a share of the median."""
    p50 = summary["p50"]
    iqr = (summary["q3"] - summary["q1"]) / p50 if p50 else math.nan
    return {"n": summary["n"], "q1": summary["q1"], "q3": summary["q3"], "iqr_share": iqr}


def timings(harness, setup: list[float], plan: dict[int, list[float]], sweep: dict[int, list[float]],
            cli: dict[int, list[float]]) -> tuple[dict, dict]:
    """The timed end-to-end metrics from durations in seconds. Plan, sweep
    and CLI calls are keyed by batch; each batch counts once, with the
    median of its calls, however often the run repeated it. The spreads
    give the sample count and quartiles of what each metric summarizes."""
    def medians(calls: dict[int, list[float]]) -> list[float]:
        return [statistics.median(times) for times in calls.values()]

    def count(calls: dict[int, list[float]]) -> int:
        return sum(map(len, calls.values()))

    plan_ms = harness.summarize([x * 1e3 for x in medians(plan)])
    setup_s = harness.summarize(setup)
    sweep_batch, cli_batch = medians(sweep), medians(cli)
    metrics = {
        "setup_s": (setup_s["p50"], "s"),
        "plan_ms.p50": (plan_ms["p50"], "ms"),
        "plan_ms.p90": (plan_ms["p90"], "ms"),
        "sweep_batches_per_s": (len(sweep_batch) / sum(sweep_batch) if sweep_batch else math.nan, "1/s"),
        "traced_compare_s": (statistics.fmean(cli_batch) if cli_batch else math.nan, "s"),
    }
    plan_spread = {**_spread(plan_ms), "beyond_p90": plan_ms["beyond_p90"], "calls": count(plan),
                   "of": "median plan-path time per batch"}
    spreads = {
        "setup_s": _spread(setup_s),
        "plan_ms.p50": plan_spread,
        "plan_ms.p90": plan_spread,
        "sweep_batches_per_s": {**_spread(harness.summarize(sweep_batch)), "calls": count(sweep),
                                "of": "median seconds per batch"},
        "traced_compare_s": {**_spread(harness.summarize(cli_batch)), "calls": count(cli),
                             "of": "median call time per batch"},
    }
    return metrics, spreads


def end_to_end(harness, st, res) -> tuple[dict, dict, dict]:
    """Metrics scaled to the reference host (gated), their spreads, and the
    same metrics as raw wall-clock times."""
    def both(samples, reference=res.reference):
        return harness.scale_to_reference(samples, reference), [d for _, d in samples]

    setup = both(st.samples, st.reference)
    plan, sweep, cli = ({idx: both(samples) for idx, samples in calls.items()}
                        for calls in (res.plan, res.sweep, res.cli))
    metrics, spreads = timings(harness, setup[0], *({i: v[0] for i, v in calls.items()}
                                                    for calls in (plan, sweep, cli)))
    raw, _ = timings(harness, setup[1], *({i: v[1] for i, v in calls.items()}
                                          for calls in (plan, sweep, cli)))
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = rss
    return metrics, spreads, raw


def tracing_overhead(harness, spans, st, workdir: str) -> float:
    """Relative cost of the spans on the plan path: the same batches planned
    untraced and traced, alternately, best of each."""
    best = {False: math.inf, True: math.inf}
    for _ in range(OVERHEAD_REPEATS):
        for traced in (False, True):
            tracer = spans.Tracer()
            runner = harness.Runner(st, workdir, span=tracer.span if traced else None)
            if traced:
                tracer.install(st.lib)
            try:
                for i in range(OVERHEAD_BATCHES):
                    runner.plan_step(i)
            finally:
                tracer.uninstall()
            best[traced] = min(best[traced], sum(d for calls in runner.res.plan.values() for _, d in calls))
    return best[True] / best[False] - 1.0


def traced_run(harness, spans, wl, st, args, workdir: str):
    overhead = tracing_overhead(harness, spans, st, workdir)
    tracer = spans.Tracer()
    tracer.install(st.lib)
    try:
        with tracer.span("bench.setup"):
            harness.make_pool(st.lib, wl, args.seed)
        runner = harness.Runner(st, workdir, span=tracer.span)
        res = runner.run(args.seconds)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    metrics["bench.tracing_overhead_share"] = (overhead, "share")
    path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.json")
    tracer.write_chrome(path, f"bench {wl.name} seed {args.seed}")
    return runner, res, metrics, {"spans": len(tracer.spans), "spans_file": os.path.relpath(path, ROOT)}


def main(argv: list[str] | None = None) -> int:
    import harness
    import spans

    args = parse_args(argv, harness.WORKLOADS)
    if not os.path.isfile(os.path.join(SRC, "varlenplan", "__init__.py")):
        print(f"error: no varlenplan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (loaded before set-up so setup_s leaves numpy's import out)

    wl = harness.WORKLOADS[args.workload]
    started = time.perf_counter()
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        st = harness.setup(wl, args.seed, workdir)
        if not os.path.abspath(st.lib.cli.__file__).startswith(SRC + os.sep):
            print(f"error: varlenplan was imported from {st.lib.cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.trace:
            runner, res, metrics, extra = traced_run(harness, spans, wl, st, args, workdir)
            spreads, raw = {}, {}
        else:
            runner = harness.Runner(st, workdir)
            res = runner.run(args.seconds)
            metrics, spreads, raw = end_to_end(harness, st, res)
            extra = {"raw_metrics": {name: value for name, (value, _) in raw.items()}}
        digest = runner.outputs_sha256()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = res.tally
    correct = tally.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    report = {
        "environment": environment({"workload": args.workload, "seed": args.seed,
                                    "seconds": args.seconds, "trace": args.trace}),
        "outputs_sha256": digest,
        "failed_ops_share": tally.failed_share,
        "samples": {"plan_paths": sum(map(len, res.plan.values())), "plan_batches": len(res.plan),
                    "sweeps": sum(map(len, res.sweep.values())), "sweep_batches": len(res.sweep),
                    "cli_calls": sum(map(len, res.cli.values())), "cli_batches": len(res.cli),
                    "setup_repeats": len(st.samples), "reference_calls": len(res.reference),
                    "pool_batches": len(st.pool)},
        "reference_ms": {"scaled_to": harness.REFERENCE_MS,
                         **harness.summarize([d * 1e3 for _, d in res.reference])},
        "spreads": spreads,
        "wall_s": time.perf_counter() - started,
        **extra,
    }
    print(f"# workload {wl.name}: {wl.why}")
    print(f"# seed {args.seed}, trace {args.trace}, {report['environment']['cpu_model']}, "
          f"{report['environment']['nproc']} cpus, python {report['environment']['python']}, "
          f"numpy {report['environment']['numpy']}")
    for name, (value, unit) in metrics.items():
        s = spreads.get(name)
        note = f"n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g} iqr/median={s['iqr_share']:.3f}" if s else ""
        if s and "calls" in s:
            note += f" calls={s['calls']}"
        if name in raw:
            note = f"raw {raw[name][0]:<10.6g} {note}"
        print(f"{name:<44} {value:>14.6g} {unit:<6} {note}")
    print(f"{'failed_ops_share':<44} {tally.failed_share:>14.6g} {'share':<6} "
          f"failed={tally.failed} attempted={tally.attempted}")
    print(f"{'outputs_sha256':<44} {digest}")
    for error in tally.errors:
        print(f"failure: {error}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
