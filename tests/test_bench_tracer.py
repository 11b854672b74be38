"""The benchmark's span tracer wraps library functions by name; these checks
keep those names, and the route fields and timeline events it reads, in
place. `bench/spans.py` is loaded from its path and left as it is."""

import importlib
import importlib.util
import json
from pathlib import Path

from varlenplan import build_plan, build_schedule, cluster_a, export_trace, route_schedule, simulate
from varlenplan.workload import SequenceBatch

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    missing = [f"{module}.{attr}"
               for module, attrs in load_spans().TRACED.items()
               for attr in attrs
               if not callable(getattr(importlib.import_module(f"varlenplan.{module}"), attr, None))]
    assert missing == []


def test_route_span_attributes_read_the_routes():
    cluster, _ = cluster_a()
    plan = build_plan(SequenceBatch(((0, 65536),)), cluster)
    routes = route_schedule(build_schedule(plan), plan, cluster)
    # two boundary senders x 16 rounds, each over 7 dispatches, 8 transfers and 7 combines
    assert load_spans()._routes_attrs(None, routes) == {"routes": 32, "route_steps": 32 * 22}


def test_simulate_span_attributes_count_the_trace_records(tmp_path):
    # the span reads `Timeline.events`, which must hold one Event per trace record
    cluster, coeffs = cluster_a()
    plan = build_plan(SequenceBatch(((0, 65536), (1, 3000), (2, 500))), cluster)
    result = simulate(plan, cluster, coeffs)
    path = tmp_path / "trace.json"
    export_trace(result[0], str(path))
    records = json.loads(path.read_text())["traceEvents"]
    assert any(r["name"] == "route.transfer" for r in records)
    assert load_spans()._simulate_attrs((plan, cluster, coeffs), result) == {
        "strategy": "zeppelin", "events": sum(r["ph"] == "X" for r in records)}
