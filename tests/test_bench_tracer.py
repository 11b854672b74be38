"""The benchmark's span tracer wraps library functions by name; these checks
keep those names and the route fields it reads in place. `bench/spans.py`
is loaded from its path and left as it is."""

import importlib
import importlib.util
from pathlib import Path

from varlenplan import build_plan, build_schedule, cluster_a, route_schedule
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
