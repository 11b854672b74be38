"""Discrete-event evaluation of placement plans.

Each rank exposes three streams (compute, intra-comm, inter-comm). Rings
execute round by round: within a round, every member computes against the KV
set it currently holds while sending that set onward, and the round closes
when the slowest leg finishes. Cross-node sends of the hierarchical strategy
are expanded into dispatch/transfer/combine step events over proxy ranks;
dispatch overlaps the round's compute and the transfer overlaps intra-node
traffic, but the three steps of one payload stay causally ordered.

After the attention phase the remapping, linear-module, and inverse-remapping
phases run barrier-synchronized; backward is modeled as a scalar multiplier
on the whole forward step, so the exported timeline covers forward only.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import baselines
from .attention_engine import AttentionSchedule, build_schedule, causal_pairs
from .partitioner import InfeasibleBatch, PlacementPlan
from .remapping import cost_matrix, solve_remap, target_distribution
from .routing import route_schedule
from .topology import ClusterSpec, CostCoefficients
from .workload import SequenceBatch

COMPUTE = "compute"
INTRA_COMM = "intra-comm"
INTER_COMM = "inter-comm"
_STREAM_ORDER = {COMPUTE: 0, INTRA_COMM: 1, INTER_COMM: 2}


@dataclass(frozen=True)
class Event:
    rank: int
    stream: str
    start: float
    duration: float
    kind: str
    payload: dict

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class Timeline:
    num_nodes: int
    gpus_per_node: int
    events: list[Event]
    attention_makespan: float
    forward_makespan: float
    phase_bounds: dict[str, float]

    def sorted_events(self) -> list[Event]:
        return sorted(
            self.events,
            key=lambda e: (e.start, e.rank, _STREAM_ORDER.get(e.stream, 9), e.kind, e.duration),
        )


@dataclass
class StepReport:
    strategy: str
    feasible: bool = True
    error: str = ""
    attention_makespan: float = 0.0
    remap_forward: float = 0.0
    linear_time: float = 0.0
    remap_inverse: float = 0.0
    total_step: float = 0.0
    speedup_vs_te_cp: float | None = None
    inter_comm_tokens: int = 0
    intra_comm_tokens: int = 0
    inter_tokens_per_rank: list[int] = field(default_factory=list)
    intra_tokens_per_rank: list[int] = field(default_factory=list)
    nic_busy_time: list[list[float]] = field(default_factory=list)
    peak_kv_tokens: int = 0
    max_micro_batches: int = 1

    @property
    def remap_total(self) -> float:
        return self.remap_forward + self.remap_inverse


class _Engine:
    """Accumulates events with per-(rank, stream) exclusivity."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster
        self.events: list[Event] = []
        self.tails: dict[tuple[int, str], float] = {}
        self.inter_tokens = [0] * cluster.num_ranks
        self.intra_tokens = [0] * cluster.num_ranks
        self.nic_busy = [[0.0] * cluster.nics_per_node for _ in range(cluster.num_nodes)]
        self._nic_cursor = [0] * cluster.num_nodes

    def emit(self, rank: int, stream: str, earliest: float, duration: float, kind: str, payload: dict) -> float:
        start = max(earliest, self.tails.get((rank, stream), 0.0))
        self.tails[(rank, stream)] = start + duration
        self.events.append(Event(rank, stream, start, duration, kind, payload))
        return start + duration

    def count(self, rank: int, scope: str, tokens: int) -> None:
        if scope == "inter":
            self.inter_tokens[rank] += tokens
        else:
            self.intra_tokens[rank] += tokens

    def charge_nic(self, node: int, duration: float, rank: int | None = None) -> None:
        """Direct sends bill the sender's affine NIC; routed transfers (no
        rank given) spread round-robin over the node's NICs."""
        if rank is not None:
            local = rank - node * self.cluster.gpus_per_node
            nic = local * self.cluster.nics_per_node // self.cluster.gpus_per_node
        else:
            nic = self._nic_cursor[node] % self.cluster.nics_per_node
            self._nic_cursor[node] += 1
        self.nic_busy[node][nic] += duration


def _run_rings(
    engine: _Engine,
    schedule: AttentionSchedule,
    plan: PlacementPlan,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
    routed: bool,
) -> list[float]:
    """Execute ring queues (inter-node first, then intra-node) and the local
    kernels; returns per-rank completion times of the attention phase."""
    ready = [0.0] * cluster.num_ranks
    routes = route_schedule(schedule, plan, cluster) if routed else {}
    for ring_idx, ring_sched in enumerate(schedule.rings()):
        ring = ring_sched.ring
        g = ring.group_size
        t = max(ready[m] for m in ring.members)
        for r in range(g):
            round_end = t
            for pos, member in enumerate(ring.members):
                rr = ring_sched.rounds[pos][r]
                if rr.compute_pairs > 0:
                    dur = coeffs.attn_quadratic * rr.compute_pairs
                    end = engine.emit(member, COMPUTE, t, dur, f"{ring.kind}.attn",
                                      {"ring": ring_idx, "round": r, "pairs": rr.compute_pairs})
                    round_end = max(round_end, end)
            # plain sends first: their data is resident at round start, while
            # routed step chains deliver into other ranks' intra streams later
            routed_legs = []
            for pos, member in enumerate(ring.members):
                rr = ring_sched.rounds[pos][r]
                n = rr.comm_tokens
                if n == 0:
                    continue
                dst = ring.members[(pos + 1) % g]
                crossing = cluster.node_of(member) != cluster.node_of(dst)
                route = routes.get((ring_idx, r, member)) if crossing else None
                if route is not None:
                    routed_legs.append(route)
                elif crossing:
                    dur = cluster.inv_bw_inter * n
                    end = engine.emit(member, INTER_COMM, t, dur, "kv.send",
                                      {"ring": ring_idx, "round": r, "tokens": n, "dst": dst})
                    engine.count(member, "inter", n)
                    engine.charge_nic(cluster.node_of(member), dur, rank=member)
                    round_end = max(round_end, end)
                else:
                    dur = cluster.inv_bw_intra * n
                    end = engine.emit(member, INTRA_COMM, t, dur, "kv.send",
                                      {"ring": ring_idx, "round": r, "tokens": n, "dst": dst})
                    engine.count(member, "intra", n)
                    round_end = max(round_end, end)
            for route in routed_legs:
                end = _emit_route(engine, cluster, route, t, ring_idx, r)
                round_end = max(round_end, end)
            t = round_end
        for m in ring.members:
            ready[m] = t
    for task in schedule.local_tasks:
        if task.compute_pairs <= 0:
            continue
        dur = coeffs.attn_quadratic * task.compute_pairs
        end = engine.emit(task.rank, COMPUTE, ready[task.rank], dur, "local.attn",
                          {"seq": task.sequence_id, "pairs": task.compute_pairs})
        ready[task.rank] = end
    return ready


def _emit_route(engine: _Engine, cluster: ClusterSpec, route, t: float, ring_idx: int, r: int) -> float:
    """Place one routed transfer's step events: dispatch scatter serialized on
    the source's intra stream, per-proxy transfers in parallel once dispatch
    completes, gather serialized on the destination's intra stream."""
    meta = {"ring": ring_idx, "round": r, "src": route.source_rank, "dst": route.dest_rank}
    dispatch_end = t
    for step in route.steps:
        if step.kind != "dispatch":
            continue
        dur = cluster.inv_bw_intra * step.tokens
        end = engine.emit(step.source_rank, INTRA_COMM, t, dur, "route.dispatch",
                          {**meta, "proxy": step.dest_rank, "tokens": step.tokens})
        engine.count(step.source_rank, "intra", step.tokens)
        dispatch_end = max(dispatch_end, end)
    transfer_end = dispatch_end
    for step in route.steps:
        if step.kind != "inter_transfer":
            continue
        dur = cluster.inv_bw_inter * step.tokens
        end = engine.emit(step.source_rank, INTER_COMM, dispatch_end, dur, "route.transfer",
                          {**meta, "proxy": step.dest_rank, "tokens": step.tokens})
        engine.charge_nic(cluster.node_of(step.source_rank), dur)
        transfer_end = max(transfer_end, end)
    engine.count(route.source_rank, "inter", route.tokens)
    combine_end = transfer_end
    for step in route.steps:
        if step.kind != "combine":
            continue
        dur = cluster.inv_bw_intra * step.tokens
        end = engine.emit(route.dest_rank, INTRA_COMM, transfer_end, dur, "route.combine",
                          {**meta, "proxy": step.source_rank, "tokens": step.tokens})
        engine.count(step.source_rank, "intra", step.tokens)
        combine_end = max(combine_end, end)
    return combine_end


def _run_allgather(
    engine: _Engine,
    plan: PlacementPlan,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
) -> list[float]:
    """Non-overlapped ring all-gather followed by fully parallel attention
    compute; the gather runs at the slowest link class the group spans."""
    g = cluster.num_ranks
    total = plan.total_tokens()
    ready = [0.0] * g
    if g > 1 and total > 0:
        crossing = cluster.num_nodes > 1
        bw = cluster.inv_bw_inter if crossing else cluster.inv_bw_intra
        ag_time = bw * total * (g - 1) / g
        sent = round(total * (g - 1) / g)
        for rank in range(g):
            node = cluster.node_of(rank)
            is_boundary = crossing and rank == max(cluster.ranks_of_node(node))
            stream = INTER_COMM if is_boundary else INTRA_COMM
            engine.emit(rank, stream, 0.0, ag_time, "kv.allgather", {"tokens": sent})
            engine.count(rank, "inter" if is_boundary else "intra", sent)
            if is_boundary:
                engine.charge_nic(node, ag_time, rank=rank)
        start = ag_time
    else:
        start = 0.0
    total_pairs = sum(causal_pairs(ln) for ln in plan.sequence_lengths.values())
    if total_pairs > 0:
        dur = coeffs.attn_quadratic * total_pairs / g
        for rank in range(g):
            engine.emit(rank, COMPUTE, start, dur, "attn.parallel", {"pairs": total_pairs / g})
        ready = [start + dur] * g
    else:
        ready = [start] * g
    return ready


def simulate(
    plan: PlacementPlan,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
) -> tuple[Timeline, StepReport]:
    """Evaluate one plan: attention phase, remapping and linear phases, and a
    report with the backward-inclusive step time."""
    if plan.num_nodes != cluster.num_nodes or plan.gpus_per_node != cluster.gpus_per_node:
        raise ValueError("plan topology does not match this cluster")
    engine = _Engine(cluster)
    if plan.strategy == "llama_cp":
        ready = _run_allgather(engine, plan, cluster, coeffs)
    else:
        schedule = build_schedule(plan)
        ready = _run_rings(engine, schedule, plan, cluster, coeffs, routed=plan.strategy == "zeppelin")
    attention_end = max([0.0] + [e.end for e in engine.events] + ready)

    remap_fwd = remap_inv = 0.0
    if plan.strategy == "zeppelin" and plan.total_tokens() > 0:
        result = solve_remap(plan.tokens_per_rank, cost_matrix(cluster))
        worst_row = float(result.row_costs.max()) if result.row_costs.size else 0.0
        remap_fwd = remap_inv = max(result.objective, worst_row)
        linear_tokens = target_distribution(plan.tokens_per_rank)
        _emit_remap(engine, cluster, result, attention_end, "remap.forward")
    else:
        linear_tokens = list(plan.tokens_per_rank)
    linear_start = attention_end + remap_fwd
    linear_time = 0.0
    if coeffs.linear_per_token > 0:
        for rank, tokens in enumerate(linear_tokens):
            if tokens > 0:
                dur = coeffs.linear_per_token * tokens
                engine.emit(rank, COMPUTE, linear_start, dur, "linear", {"tokens": tokens})
                linear_time = max(linear_time, dur)
    linear_end = linear_start + linear_time
    if remap_inv > 0:
        _emit_remap(engine, cluster, result, linear_end, "remap.inverse")
    forward_makespan = linear_end + remap_inv

    total_step = forward_makespan * (1.0 + cluster.backward_multiplier)
    timeline = Timeline(
        num_nodes=cluster.num_nodes,
        gpus_per_node=cluster.gpus_per_node,
        events=engine.events,
        attention_makespan=attention_end,
        forward_makespan=forward_makespan,
        phase_bounds={
            "attention_end": attention_end,
            "remap_forward_end": linear_start,
            "linear_end": linear_end,
            "remap_inverse_end": forward_makespan,
        },
    )
    report = StepReport(
        strategy=plan.strategy,
        attention_makespan=attention_end,
        remap_forward=remap_fwd,
        linear_time=linear_time,
        remap_inverse=remap_inv,
        total_step=total_step,
        inter_comm_tokens=sum(engine.inter_tokens),
        intra_comm_tokens=sum(engine.intra_tokens),
        inter_tokens_per_rank=list(engine.inter_tokens),
        intra_tokens_per_rank=list(engine.intra_tokens),
        nic_busy_time=[list(row) for row in engine.nic_busy],
        peak_kv_tokens=_peak_kv(plan),
        max_micro_batches=max(plan.micro_batch_counts, default=1),
    )
    return timeline, report


def _emit_remap(engine: _Engine, cluster: ClusterSpec, result, start: float, kind: str) -> None:
    matrix = result.matrix
    for rank in range(cluster.num_ranks):
        cost = float(result.row_costs[rank])
        if cost <= 0:
            continue
        crosses = any(
            matrix[rank][j] > 0 and cluster.node_of(j) != cluster.node_of(rank)
            for j in range(cluster.num_ranks)
        )
        stream = INTER_COMM if crosses else INTRA_COMM
        engine.emit(rank, stream, start, cost, kind, {"tokens": int(matrix[rank].sum())})


def _peak_kv(plan: PlacementPlan) -> int:
    """Diagnostic upper estimate of concurrently resident KV tokens per rank."""
    if plan.strategy == "llama_cp":
        return plan.total_tokens()
    extra = [0] * plan.num_ranks
    for ring in plan.ring_groups:
        held = max((ring.kv_tokens(p) for p in range(ring.group_size)), default=0)
        for m in ring.members:
            extra[m] = max(extra[m], held)
    return max(
        (plan.tokens_per_rank[r] + extra[r] for r in range(plan.num_ranks)),
        default=0,
    )


def export_trace(timeline: Timeline, path: str) -> None:
    """Write the timeline as Chrome Trace Event JSON: complete ('X') events
    with microsecond timestamps, process id = node, thread id = rank.stream."""
    records = []
    for event in timeline.sorted_events():
        records.append({
            "name": event.kind,
            "ph": "X",
            "ts": event.start * 1e6,
            "dur": event.duration * 1e6,
            "pid": event.rank // timeline.gpus_per_node,
            "tid": f"{event.rank}.{event.stream}",
            "args": {k: v for k, v in sorted(event.payload.items())},
        })
    payload = {"displayTimeUnit": "ms", "traceEvents": records}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


CSV_HEADER = (
    "strategy,attention_makespan_s,remap_s,linear_s,total_step_s,"
    "speedup_vs_te_cp,inter_comm_tokens,intra_comm_tokens"
)


def _simulate_each(
    batch: SequenceBatch,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
    strategies: list[str],
) -> Iterator[tuple[StepReport, Timeline | None]]:
    """Plan and simulate each strategy in turn. A strategy that cannot place
    the batch yields an infeasible report and no timeline."""
    unknown = [s for s in strategies if s not in baselines.PLANNERS]
    if unknown:
        raise ValueError(f"unknown strategies: {', '.join(unknown)}")
    for strategy in strategies:
        try:
            timeline, report = simulate(baselines.plan_with(strategy, batch, cluster), cluster, coeffs)
        except InfeasibleBatch as exc:
            timeline, report = None, StepReport(strategy=strategy, feasible=False, error=str(exc))
        yield report, timeline


def set_speedups(
    reports: list[StepReport],
    batch: SequenceBatch,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
) -> None:
    """Speedups relative to te_cp, simulated here when it is not a row."""
    te = next((r for r in reports if r.strategy == "te_cp"), None)
    if te is None:
        te, _ = next(_simulate_each(batch, cluster, coeffs, ["te_cp"]))
    te_total = te.total_step if te.feasible else None
    for report in reports:
        if report.feasible and te_total and report.total_step > 0:
            report.speedup_vs_te_cp = te_total / report.total_step


def compare(
    batch: SequenceBatch,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
    strategies: list[str],
) -> list[StepReport]:
    """Plan and simulate every requested strategy; speedups are relative to
    te_cp (computed internally when it is not among the requested rows).
    A strategy that cannot place the batch yields an infeasible row instead
    of failing the whole comparison.
    """
    reports = [report for report, _ in _simulate_each(batch, cluster, coeffs, strategies)]
    set_speedups(reports, batch, cluster, coeffs)
    return reports


def compare_with_timelines(
    batch: SequenceBatch,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
    strategies: list[str],
) -> tuple[list[StepReport], dict[str, Timeline]]:
    """`compare` plus the timeline of every feasible strategy, from the same
    single simulation of each."""
    runs = list(_simulate_each(batch, cluster, coeffs, strategies))
    reports = [report for report, _ in runs]
    set_speedups(reports, batch, cluster, coeffs)
    return reports, {report.strategy: timeline for report, timeline in runs if timeline is not None}


def simulate_timelines(
    batch: SequenceBatch,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
    strategies: list[str],
) -> dict[str, Timeline]:
    """Timelines per strategy for the feasible ones, without the reports."""
    return {r.strategy: t for r, t in _simulate_each(batch, cluster, coeffs, strategies) if t is not None}


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.9g}"


def reports_to_csv(reports: list[StepReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        if not r.feasible:
            lines.append(f"{r.strategy},,,,,,,")
            continue
        lines.append(
            ",".join([
                r.strategy,
                _fmt(r.attention_makespan),
                _fmt(r.remap_total),
                _fmt(r.linear_time),
                _fmt(r.total_step),
                _fmt(r.speedup_vs_te_cp),
                str(r.inter_comm_tokens),
                str(r.intra_comm_tokens),
            ])
        )
    return "\n".join(lines) + "\n"


def write_compare_csv(reports: list[StepReport], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(reports_to_csv(reports))
