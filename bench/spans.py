"""In-memory spans around calls into varlenplan's public functions.

The tracer wraps module attributes, so it sees every call that looks a
public name up in a module's namespace: the benchmark's own calls and the
cross-module ones (``simulator.compare`` finds ``partitioner.build_plan``
and ``simulator.simulate`` finds its own ``build_schedule`` global). The
wrappers are removed again by ``uninstall``; the library's source is not
changed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import defaultdict


def _plan_attrs(args, result):
    return {
        "s1_restarts": result.meta.get("s1_restarts", 0),
        "reconcile_attempts": result.meta.get("reconcile_attempts", 0),
        "ring_groups": len(result.ring_groups),
    }


def _schedule_attrs(args, result):
    return {"strategy": args[0].strategy, "ring_rounds": sum(r.num_rounds for r in result.rings())}


def _routes_attrs(args, result):
    return {"routes": len(result), "route_steps": sum(len(r.steps) for r in result.values())}


def _remap_attrs(args, result):
    return {"surplus_ranks": int((result.matrix.sum(axis=1) > 0).sum()), "moved_tokens": int(result.matrix.sum())}


def _simulate_attrs(args, result):
    return {"strategy": args[0].strategy, "events": len(result[0].events)}


def _export_attrs(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _sample_attrs(args, result):
    return {"sequences": len(result)}


# (module, attribute) pairs to wrap, and what each span records about its
# call. A function that a module imported by name is wrapped in that
# module's namespace too, under the span name of its home module.
TRACED = {
    "workload": {"sample_batch": _sample_attrs, "load_batch": None},
    "topology": {"resolve_cluster": None},
    "partitioner": {"build_plan": _plan_attrs, "validate_plan": None, "plan_to_json": None, "plan_from_json": None},
    "baselines": {"plan_te_cp": None, "plan_llama_cp": None, "plan_hybrid_dp": None, "validate_plan": None},
    "attention_engine": {"build_schedule": _schedule_attrs},
    "routing": {"route_schedule": _routes_attrs},
    "remapping": {"solve_remap": _remap_attrs, "cost_matrix": None},
    "simulator": {
        "build_schedule": _schedule_attrs,
        "route_schedule": _routes_attrs,
        "solve_remap": _remap_attrs,
        "cost_matrix": None,
        "simulate": _simulate_attrs,
        "compare": None,
        "simulate_timelines": None,
        "export_trace": _export_attrs,
        "reports_to_csv": None,
        "write_compare_csv": None,
    },
    "cli": {"main": None},
}


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, id: int, name: str, parent: int | None, start: int):
        self.id = id
        self.name = name
        self.parent = parent
        self.start = start  # perf_counter_ns
        self.end = start
        self.attrs: dict = {}

    @property
    def dur_ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Records a span (name, start, end, parent) for every wrapped call and
    every ``span()`` block; spans stay in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, attrs):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span)
                span.attrs["error"] = type(exc).__name__
                raise
            self._close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result

        return wrapper

    def install(self, lib) -> None:
        for module_name, names in TRACED.items():
            module = getattr(lib, module_name)
            for attr, attrs in names.items():
                fn = getattr(module, attr)
                self._patches.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, attrs))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                kids[s.parent].append(s)
        return kids

    def self_ns(self) -> dict[int, int]:
        """Each span's duration minus the part its children cover (children
        of one span run one after another in this single-threaded run)."""
        kids = self.children()
        return {s.id: s.dur_ns - sum(c.dur_ns for c in kids.get(s.id, ())) for s in self.spans}

    def write_chrome(self, path: str, process_name: str) -> None:
        """Write the spans as Chrome Trace Event JSON (Perfetto opens it)."""
        t0 = min((s.start for s in self.spans), default=0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": process_name}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "benchmark"}},
        ]
        for s in self.spans:
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - t0) / 1e3,
                "dur": s.dur_ns / 1e3,
                "pid": 0,
                "tid": 0,
                "args": {"id": s.id, "parent": s.parent, **s.attrs},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"displayTimeUnit": "ms", "traceEvents": events}, fh, separators=(",", ":"))
            fh.write("\n")


STRATEGIES = ("zeppelin", "te_cp", "llama_cp", "hybrid_dp")
# topology only parses the cluster config (counted in setup_s), so it gets
# no metric of its own
LAYERS = ("workload", "partitioner", "baselines", "attention_engine",
          "routing", "remapping", "simulator", "cli", "bench")


def _median_ms(spans: list[Span]) -> float:
    return statistics.median(s.dur_ns for s in spans) / 1e6 if spans else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as name -> (value, unit)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    spans = tracer.spans
    self_ns = tracer.self_ns()

    def strategy_spans(name, strategy):
        return [s for s in by_name[name] if s.attrs.get("strategy") == strategy]

    def under(span: Span, ancestor_name: str) -> Span | None:
        p = span.parent
        while p is not None:
            if spans[p].name == ancestor_name:
                return spans[p]
            p = spans[p].parent
        return None

    m: dict[str, tuple[float, str]] = {}
    m["workload.sample_batch_ms"] = (_median_ms(by_name["workload.sample_batch"]), "ms")
    m["workload.sequences_per_batch"] = (_mean(s.attrs["sequences"] for s in by_name["workload.sample_batch"]), "count")

    plans = by_name["partitioner.build_plan"]
    m["partitioner.build_plan_ms"] = (_median_ms(plans), "ms")
    m["partitioner.validate_plan_ms"] = (_median_ms(by_name["partitioner.validate_plan"]), "ms")
    m["partitioner.plan_json_ms"] = (
        _median_ms(by_name["partitioner.plan_to_json"]) + _median_ms(by_name["partitioner.plan_from_json"]), "ms")
    for key in ("s1_restarts", "reconcile_attempts", "ring_groups"):
        m[f"partitioner.{key}"] = (_mean(s.attrs[key] for s in plans if key in s.attrs), "count")
    for strategy in ("te_cp", "llama_cp", "hybrid_dp"):
        m[f"baselines.plan_{strategy}_ms"] = (_median_ms(by_name[f"baselines.plan_{strategy}"]), "ms")

    schedules = by_name["attention_engine.build_schedule"]
    for strategy in STRATEGIES:
        picked = strategy_spans("attention_engine.build_schedule", strategy)
        m[f"attention_engine.build_schedule_ms.{strategy}"] = (_median_ms(picked), "ms")
        m[f"attention_engine.ring_rounds.{strategy}"] = (_mean(s.attrs["ring_rounds"] for s in picked), "count")
    # simulate builds a schedule for llama_cp plans that its all-gather path never reads
    unused = sum(1 for s in schedules if s.attrs.get("strategy") == "llama_cp" and under(s, "simulator.simulate"))
    passes = len(by_name["simulator.compare"]) + len(by_name["simulator.simulate_timelines"])
    m["attention_engine.unused_schedules"] = (unused / passes if passes else 0.0, "count")

    routes = [s for s in by_name["routing.route_schedule"] if "routes" in s.attrs]
    m["routing.route_schedule_ms"] = (_median_ms(by_name["routing.route_schedule"]), "ms")
    m["routing.routes"] = (_mean(s.attrs["routes"] for s in routes), "count")
    m["routing.route_steps"] = (_mean(s.attrs["route_steps"] for s in routes), "count")
    m["routing.batches_with_routes_share"] = (_mean(1.0 if s.attrs["routes"] else 0.0 for s in routes), "share")

    remaps = [s for s in by_name["remapping.solve_remap"] if "moved_tokens" in s.attrs]
    m["remapping.solve_remap_ms"] = (_median_ms(by_name["remapping.solve_remap"]), "ms")
    m["remapping.surplus_ranks"] = (_mean(s.attrs["surplus_ranks"] for s in remaps), "count")
    m["remapping.moved_tokens"] = (_mean(s.attrs["moved_tokens"] for s in remaps), "count")

    for strategy in STRATEGIES:
        picked = strategy_spans("simulator.simulate", strategy)
        m[f"simulator.simulate_ms.{strategy}"] = (_median_ms(picked), "ms")
        engine = [self_ns[s.id] / 1e6 for s in picked]
        m[f"simulator.engine_self_ms.{strategy}"] = (statistics.median(engine) if engine else 0.0, "ms")
        m[f"simulator.events.{strategy}"] = (_mean(s.attrs["events"] for s in picked if "events" in s.attrs), "count")
    m["simulator.compare_ms"] = (_median_ms(by_name["simulator.compare"]), "ms")
    m["simulator.simulate_timelines_ms"] = (_median_ms(by_name["simulator.simulate_timelines"]), "ms")
    m["simulator.export_trace_ms"] = (_median_ms(by_name["simulator.export_trace"]), "ms")
    m["simulator.trace_bytes"] = (_mean(s.attrs["bytes"] for s in by_name["simulator.export_trace"] if "bytes" in s.attrs), "B")

    cli_calls = by_name["cli.main"]
    m["cli.compare_traced_ms"] = (_median_ms(cli_calls), "ms")
    cli_self = [self_ns[s.id] / 1e6 for s in cli_calls]
    m["cli.self_ms"] = (statistics.median(cli_self) if cli_self else 0.0, "ms")
    per_call: dict[int, list[str]] = defaultdict(list)
    for s in by_name["simulator.simulate"]:
        owner = under(s, "cli.main")
        if owner is not None:
            per_call[owner.id].append(s.attrs.get("strategy", "?"))
    ratios = [len(v) / len(set(v)) for v in per_call.values()]
    m["cli.simulate_calls_per_strategy"] = (_mean(ratios), "count")

    # self time of each layer as a share of the time inside the benchmark's
    # own root spans (set-up and the timed operations); a parent span opens
    # before its children, so one pass in id order finds every span's root
    root: dict[int, int] = {}
    for s in spans:
        root[s.id] = s.id if s.parent is None else root[s.parent]
    timed = {s.id for s in spans if s.parent is None and s.name.startswith("bench.")}
    root_ns = sum(spans[i].dur_ns for i in timed)
    layer_ns: dict[str, int] = defaultdict(int)
    for s in spans:
        if root[s.id] in timed:
            layer_ns[s.name.split(".", 1)[0]] += self_ns[s.id]
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (layer_ns[layer] / root_ns if root_ns else 0.0, "share")
    return m
