"""Workloads, set-up, output checks and the three timed phases of the
planner benchmark.

Every call into varlenplan goes through a module attribute of the `lib`
namespace (``lib.partitioner.build_plan(...)``), never through a name bound
at import time, so that the tracer in ``spans.py`` can wrap those attributes
for a traced run without touching the library's source.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

MODULES = (
    "workload",
    "topology",
    "partitioner",
    "baselines",
    "attention_engine",
    "routing",
    "remapping",
    "simulator",
    "cli",
)

# Share of --seconds given to each interleaved phase. Each phase also calls
# every batch of its fixed set once, however long that takes; time left
# over buys repeats of the same batches, never other ones.
PLAN_SHARE = 0.30
SWEEP_SHARE = 0.15
TRACED_SHARE = 0.50  # the CLI call is the noisiest per call, so it gets the most repeats
REFERENCE_SHARE = 0.05
REFERENCE_MIN_CALLS = 20
SETUP_REPEATS = 9
POOL_STRIDE = 1 << 16  # batch i of seed s is sampled with seed s * POOL_STRIDE + i
# Timings are scaled to a host on which one reference_work() call takes
# REFERENCE_MS, using the reference calls made within REFERENCE_WINDOW_S of
# a timed call, or at least the REFERENCE_NEIGHBOURS nearest to it.
REFERENCE_MS = 10.0
REFERENCE_WINDOW_S = 2.0
REFERENCE_NEIGHBOURS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    total_tokens: int
    presets: tuple[str, ...]
    pool_size: int
    # how many pool batches the plan, sweep and traced-compare phases use;
    # p90 of the plan path needs plan_batches >= 100
    plan_batches: int
    sweep_batches: int
    cli_batches: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-2n", 2, 65536, ("arxiv", "github", "prolong64k"), 384, 384, 128, 128,
            "2 nodes, 64k-token batches of all three presets: tiny calls where "
            "per-call Python overhead dominates and routing is nearly bypassed",
        ),
        Workload(
            "github-8n", 8, 262144, ("github",), 160, 100, 8, 6,
            "8 nodes, 256k-token github batches: sequences beyond one node force "
            "inter-node rings, multi-NIC routing and large timelines",
        ),
        Workload(
            "arxiv-8n", 8, 262144, ("arxiv",), 160, 100, 6, 6,
            "8 nodes, 256k-token arxiv batches: no sequence exceeds a node, so "
            "routing is bypassed and the remap solve dominates the plan path",
        ),
    )
}


def import_fresh() -> SimpleNamespace:
    """Import varlenplan from scratch (dropping any loaded copy) and return
    its modules as one namespace."""
    for name in [n for n in sys.modules if n == "varlenplan" or n.startswith("varlenplan.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"varlenplan.{m}") for m in MODULES})


_REFERENCE_MATRIX = np.arange(64 * 64, dtype=float).reshape(64, 64)


def reference_work() -> float:
    """Fixed work of the two kinds the library does, interpreter-bound
    (integer arithmetic, dict updates, a sort) and small numpy operations.
    Its time tracks how fast the host runs right now."""
    state, acc, table = 12345, 0, {}
    for i in range(20000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state % 4096
        table[key] = table.get(key, 0) + i
        acc ^= key
    total = float(acc + len(sorted(table.items(), key=lambda kv: (kv[1], kv[0]))))
    for i in range(150):
        scaled = _REFERENCE_MATRIX * (i + 1)
        total += float(scaled.sum(axis=1).max()) + float((scaled > 100.0).sum())
    return total


def timed_reference(out: list) -> None:
    """Run reference_work once and append its (midpoint, seconds) to `out`."""
    t0 = time.perf_counter()
    reference_work()
    elapsed = time.perf_counter() - t0
    out.append((t0 + elapsed / 2, elapsed))


def scale_to_reference(samples: list[tuple[float, float]], reference: list[tuple[float, float]]) -> list[float]:
    """Durations of (midpoint, seconds) samples scaled to the reference host:
    each is multiplied by REFERENCE_MS over the mean time of the reference
    calls made from REFERENCE_WINDOW_S before the sample's start to
    REFERENCE_WINDOW_S after its end, or of the REFERENCE_NEIGHBOURS
    reference calls nearest to it when the window holds fewer.

    A shared host can run the same code at very different speeds from one
    minute to the next; the reference calls interleaved with the timed ones
    measure that speed where each sample was taken. The host also flips
    between a fast and a slow state within seconds, so the mean over a few
    seconds, the share of time spent in each state, says more about a call
    than the nearest few reference calls do."""
    times = [t for t, _ in reference]
    k = REFERENCE_NEIGHBOURS
    scaled = []
    for t, duration in samples:
        reach = duration / 2 + REFERENCE_WINDOW_S
        near = reference[bisect.bisect_left(times, t - reach):bisect.bisect_right(times, t + reach)]
        if len(near) < k:
            i = bisect.bisect_left(times, t)
            near = sorted(reference[max(0, i - k):i + k], key=lambda r: abs(r[0] - t))[:k]
        scaled.append(duration * REFERENCE_MS / 1e3 / statistics.fmean(d for _, d in near))
    return scaled


def make_pool(lib: SimpleNamespace, wl: Workload, seed: int) -> list:
    """The run's batches: pool_size draws cycling through the workload's
    presets, each seeded from the run seed and its index."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    dists = [lib.workload.preset(name) for name in wl.presets]
    return [
        lib.workload.sample_batch(dists[i % len(dists)], wl.total_tokens, seed * POOL_STRIDE + i)
        for i in range(wl.pool_size)
    ]


def strata(pool: list, k: int) -> list[int]:
    """k pool indices: the pool ranked by sequence count is cut into k
    equal strata and the batch in the middle of each is taken. Host time
    per batch follows its sequence count, so this stratified sample varies
    less from seed to seed than k random batches would."""
    n = len(pool)
    if not 1 <= k <= n:
        raise ValueError(f"cannot take {k} strata of a pool of {n}")
    ranked = sorted(range(n), key=lambda i: (len(pool[i]), i))
    return [ranked[(2 * j + 1) * n // (2 * k)] for j in range(k)]


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and p90 of the samples, with the sample count and
    how many samples lie beyond p90."""
    n = len(samples)
    if n == 0:
        return {"n": 0, "p50": math.nan, "p90": math.nan, "q1": math.nan, "q3": math.nan, "beyond_p90": 0}
    if n == 1:
        x = samples[0]
        return {"n": 1, "p50": x, "p90": x, "q1": x, "q3": x, "beyond_p90": 0}
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    p90 = cuts[89]
    return {
        "n": n,
        "p50": statistics.median(samples),
        "p90": p90,
        "q1": cuts[24],
        "q3": cuts[74],
        "beyond_p90": sum(1 for x in samples if x > p90),
    }


# ---------------------------------------------------------------- checks


def check_csv(text: str, header: str, strategies: list[str]) -> str | None:
    """None when `text` is a compare CSV with one well-formed row per
    strategy (numbers in feasible rows, empty fields in infeasible ones)."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        return f"csv does not parse: {exc}"
    if not rows or ",".join(rows[0]) != header:
        return "csv header mismatch"
    width = len(rows[0])
    if [r[0] if r else "" for r in rows[1:]] != strategies:
        return "csv rows do not match the strategies"
    for row in rows[1:]:
        if len(row) != width:
            return f"csv row {row[0]} has {len(row)} fields, expected {width}"
        values = row[1:]
        if all(v == "" for v in values):
            continue
        for v in values[:4] + values[5:]:  # speedup_vs_te_cp may be empty
            try:
                x = float(v)
            except ValueError:
                return f"csv row {row[0]}: {v!r} is not a number"
            if not math.isfinite(x) or x < 0:
                return f"csv row {row[0]}: {v!r} is not a finite non-negative number"
    return None


def feasible_strategies(text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [r[0] for r in rows if any(v != "" for v in r[1:])]


def check_trace(data: bytes) -> str | None:
    """None when `data` is Chrome Trace Event JSON holding at least one
    complete ('X') event and every complete event has a name, a pid, a tid
    and a non-negative ts and dur."""
    try:
        payload = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return f"trace does not parse: {exc}"
    events = payload.get("traceEvents") if isinstance(payload, dict) else None
    if not isinstance(events, list):
        return "trace has no traceEvents list"
    complete = 0
    for ev in events:
        if not isinstance(ev, dict) or not isinstance(ev.get("ph"), str):
            return "trace event without a phase"
        if ev["ph"] != "X":
            continue
        complete += 1
        ts, dur = ev.get("ts"), ev.get("dur")
        if not isinstance(ts, (int, float)) or not isinstance(dur, (int, float)) or ts < 0 or dur < 0:
            return "trace event has a bad ts or dur"
        if "name" not in ev or "pid" not in ev or "tid" not in ev:
            return "trace event lacks name, pid or tid"
    return None if complete else "trace has no complete events"


def check_plan_path(lib, batch, cluster, plan, routes, remap) -> str | None:
    """Independent checks of one plan-path result: the plan validates, the
    remap matrix moves exactly each rank's surplus to the deficits, every
    route carries its tokens, and the plan JSON round-trips."""
    try:
        lib.partitioner.validate_plan(plan, batch, cluster)
    except lib.partitioner.PlanValidationError as exc:
        return f"plan rejected by validate_plan: {exc}"
    counts = plan.tokens_per_rank
    base, extra = divmod(sum(counts), len(counts))
    target = [base + 1 if i < extra else base for i in range(len(counts))]
    surplus = [max(a - b, 0) for a, b in zip(counts, target)]
    deficit = [max(b - a, 0) for a, b in zip(counts, target)]
    if (remap.matrix < 0).any() or list(remap.matrix.sum(axis=1)) != surplus \
            or list(remap.matrix.sum(axis=0)) != deficit:
        return "remap matrix does not move the surplus onto the deficits"
    for route in routes.values():
        moved = sum(s.tokens for s in route.steps if s.kind == "inter_transfer")
        if moved != route.tokens:
            return f"route {route.source_rank}->{route.dest_rank} moves {moved} of {route.tokens} tokens"
    text = lib.partitioner.plan_to_json(plan)
    if lib.partitioner.plan_to_json(lib.partitioner.plan_from_json(text)) != text:
        return "plan JSON does not round-trip"
    return None


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(error)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Outputs:
    """sha256 of every output by key; a repeat with different bytes is an error.

    Keys are ("plan", batch), ("csv", batch) and ("trace", batch, file
    name): the sweep's CSV and the CLI's CSV for one batch share a key, so
    the two paths must agree byte for byte.
    """

    def __init__(self) -> None:
        self.seen: dict[tuple, str] = {}

    def add(self, key: tuple, data: bytes) -> str | None:
        digest = hashlib.sha256(data).hexdigest()
        first = self.seen.setdefault(key, digest)
        return None if first == digest else f"{key}: output bytes differ from an earlier run of the same batch"

    def digest(self) -> str:
        """One sha256 over every output seen."""
        h = hashlib.sha256()
        for key in sorted(self.seen, key=repr):
            h.update(f"{key}:{self.seen[key]}\n".encode())
        return h.hexdigest()


# ---------------------------------------------------------------- the run


@dataclass
class Setup:
    lib: SimpleNamespace
    cluster: object
    coeffs: object
    config_path: str
    pool: list
    plan_set: list[int]  # pool indices each phase cycles through
    sweep_set: list[int]
    cli_set: list[int]
    samples: list[tuple[float, float]]  # (midpoint, seconds) per set-up repeat
    reference: list[tuple[float, float]]  # reference calls around the repeats


def setup(wl: Workload, seed: int, workdir: str) -> Setup:
    """Import varlenplan, build the cluster, write its config file, sample
    the pool and pick each phase's batches; timed SETUP_REPEATS times,
    with a reference call before each repeat and after the last."""
    samples: list[tuple[float, float]] = []
    reference: list[tuple[float, float]] = []
    for _ in range(SETUP_REPEATS):
        timed_reference(reference)
        t0 = time.perf_counter()
        lib = import_fresh()
        cluster, coeffs = lib.topology.cluster_a(num_nodes=wl.nodes)
        config_path = os.path.join(workdir, "cluster.cfg")
        lib.topology.save_cluster_config(config_path, cluster, coeffs)
        pool = make_pool(lib, wl, seed)
        sets = [strata(pool, k) for k in (wl.plan_batches, wl.sweep_batches, wl.cli_batches)]
        elapsed = time.perf_counter() - t0
        samples.append((t0 + elapsed / 2, elapsed))
    timed_reference(reference)
    return Setup(lib, cluster, coeffs, config_path, pool, *sets, samples, reference)


@dataclass
class Results:
    # timed calls as (midpoint, seconds) per pool batch, in the order they ran
    plan: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    sweep: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    cli: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    reference: list[tuple[float, float]] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    outputs: Outputs = field(default_factory=Outputs)


def interleave(seconds: float, phases: list[tuple]) -> None:
    """Run the (step, share, minimum) phases interleaved: always step the
    phase that has used the least of its share of `seconds`. A phase stops
    once it has made `minimum` calls and one more call of its average
    length would overrun its share. Interleaving spreads every phase over
    the whole run, so a slow spell of a shared host hits them alike."""
    used = [0.0] * len(phases)
    calls = [0] * len(phases)

    def wants_more(k: int) -> bool:
        _, share, minimum = phases[k]
        return calls[k] < minimum or used[k] + used[k] / max(calls[k], 1) <= share * seconds

    while True:
        live = [k for k in range(len(phases)) if wants_more(k)]
        if not live:
            return
        k = min(live, key=lambda j: used[j] / phases[j][1])
        t0 = time.perf_counter()
        phases[k][0](calls[k])
        used[k] += time.perf_counter() - t0
        calls[k] += 1


class Runner:
    """Runs the plan, sweep and traced-compare phases over one set-up.

    `span` wraps each operation in a root span when tracing; untraced runs
    pass a no-op context factory.
    """

    def __init__(self, st: Setup, workdir: str, span=None):
        self.st = st
        self.lib = st.lib
        self.workdir = workdir
        self.span = span or (lambda name: contextlib.nullcontext())
        self.res = Results()
        self.strategies = list(self.lib.baselines.STRATEGIES)

    def plan_step(self, i: int) -> None:
        st, lib = self.st, self.lib
        idx = st.plan_set[i % len(st.plan_set)]
        batch = st.pool[idx]
        with self.span("bench.plan_path"):
            t0 = time.perf_counter()
            try:
                plan = lib.partitioner.build_plan(batch, st.cluster)
                schedule = lib.attention_engine.build_schedule(plan)
                routes = lib.routing.route_schedule(schedule, plan, st.cluster)
                remap = lib.remapping.solve_remap(plan.tokens_per_rank, lib.remapping.cost_matrix(st.cluster))
            except lib.partitioner.InfeasibleBatch:
                plan = None
            except Exception as exc:  # counted as a failed operation; the run goes on
                self.res.tally.record(f"plan path, batch {idx}: {type(exc).__name__}: {exc}")
                return
            elapsed = time.perf_counter() - t0
        self.res.plan.setdefault(idx, []).append((t0 + elapsed / 2, elapsed))
        if plan is None:
            self.res.tally.record(self.res.outputs.add(("plan", idx), b"infeasible"))
            return
        # a repeat only has to match the first visit's bytes, which passed the full check
        error = None if ("plan", idx) in self.res.outputs.seen \
            else check_plan_path(lib, batch, st.cluster, plan, routes, remap)
        if error is None:
            summary = lib.partitioner.plan_to_json(plan).encode() + remap.matrix.tobytes() \
                + repr(sorted(routes)).encode()
            error = self.res.outputs.add(("plan", idx), summary)
        self.res.tally.record(error and f"plan path, batch {idx}: {error}")

    def sweep_step(self, i: int) -> None:
        st, lib = self.st, self.lib
        idx = st.sweep_set[i % len(st.sweep_set)]
        with self.span("bench.sweep_batch"):
            t0 = time.perf_counter()
            try:
                reports = lib.simulator.compare(st.pool[idx], st.cluster, st.coeffs, self.strategies)
                text = lib.simulator.reports_to_csv(reports)
            except Exception as exc:  # InfeasibleBatch included: compare turns it into a row
                self.res.tally.record(f"sweep, batch {idx}: {type(exc).__name__}: {exc}")
                return
            elapsed = time.perf_counter() - t0
        self.res.sweep.setdefault(idx, []).append((t0 + elapsed / 2, elapsed))
        error = check_csv(text, lib.simulator.CSV_HEADER, self.strategies) \
            or self.res.outputs.add(("csv", idx), text.encode())
        self.res.tally.record(error and f"sweep, batch {idx}: {error}")

    def cli_call(self, idx: int) -> tuple[float, float] | None:
        """One `varlenplan compare --trace-dir` call on a pool batch stored as JSON;
        returns its (midpoint, seconds), or None when it failed."""
        st, lib = self.st, self.lib
        out_dir = os.path.join(self.workdir, f"cli-{idx}")
        shutil.rmtree(out_dir, ignore_errors=True)
        trace_dir = os.path.join(out_dir, "traces")
        csv_path = os.path.join(out_dir, "compare.csv")
        batch_path = os.path.join(out_dir, "batch.json")
        os.makedirs(out_dir)
        lib.workload.save_batch(batch_path, st.pool[idx])
        argv = ["compare", "--config", st.config_path, "--batch", batch_path,
                "--out", csv_path, "--trace-dir", trace_dir]
        sink = io.StringIO()
        with self.span("bench.traced_compare"):
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = lib.cli.main(argv)
            except Exception as exc:  # counted as a failed operation; the run goes on
                self.res.tally.record(f"cli compare, batch {idx}: {type(exc).__name__}: {exc}")
                return None
            elapsed = time.perf_counter() - t0
        if code != 0:
            self.res.tally.record(f"cli compare, batch {idx}: exit code {code}: {sink.getvalue().strip()}")
            return None
        self.res.tally.record(self._check_cli_outputs(idx, csv_path, trace_dir))
        return t0 + elapsed / 2, elapsed

    def _check_cli_outputs(self, idx: int, csv_path: str, trace_dir: str) -> str | None:
        with open(csv_path, "rb") as fh:
            data = fh.read()
        text = data.decode()
        error = check_csv(text, self.lib.simulator.CSV_HEADER, self.strategies) \
            or self.res.outputs.add(("csv", idx), data)
        if error:
            return f"cli compare, batch {idx}: {error}"
        names = sorted(os.listdir(trace_dir))
        expected = sorted(f"{s}.trace.json" for s in feasible_strategies(text))
        if names != expected:
            return f"cli compare, batch {idx}: traces {names}, expected {expected}"
        for name in names:
            with open(os.path.join(trace_dir, name), "rb") as fh:
                trace = fh.read()
            error = check_trace(trace) or self.res.outputs.add(("trace", idx, name), trace)
            if error:
                return f"cli compare, batch {idx}, {name}: {error}"
        return None

    def traced_step(self, i: int) -> None:
        idx = self.st.cli_set[i % len(self.st.cli_set)]
        sample = self.cli_call(idx)
        if sample is not None:
            self.res.cli.setdefault(idx, []).append(sample)

    def reference_step(self, i: int) -> None:
        timed_reference(self.res.reference)

    def run(self, seconds: float) -> Results:
        st = self.st
        interleave(seconds, [
            (self.plan_step, PLAN_SHARE, len(st.plan_set)),
            (self.sweep_step, SWEEP_SHARE, len(st.sweep_set)),
            (self.traced_step, TRACED_SHARE, len(st.cli_set)),
            (self.reference_step, REFERENCE_SHARE, REFERENCE_MIN_CALLS),
        ])
        return self.res

    def outputs_sha256(self) -> str:
        """Digest of the outputs of every batch in the three sets, which
        every run reaches whatever its speed."""
        return self.res.outputs.digest()
