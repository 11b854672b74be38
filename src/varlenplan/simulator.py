"""Discrete-event evaluation of placement plans.

Each rank exposes three streams (compute, intra-comm, inter-comm). Rings
execute round by round: within a round, every member computes against the KV
set it currently holds while sending that set onward, and the round closes
when the slowest leg finishes. Cross-node sends of the hierarchical strategy
are expanded into dispatch/transfer/combine step events over proxy ranks;
dispatch overlaps the round's compute and the transfer overlaps intra-node
traffic, but the three steps of one payload stay causally ordered.

Ring round ends are evaluated in closed form over (position, round) arrays,
routed sends by per-route chains, and events are kept in compact records.
One expansion turns them into blocks of columns, one block per run of one
kind, payload fields kept as integers, and small tables of each distinct
piece of text the block's lines are made of. One sort orders them:
`export_trace` gathers each event's row of pieces in that order and joins
them, and `Timeline.events` builds Event objects from the same columns, so
neither a comparison nor a trace builds any Event, and no payload is
printed per event or parsed back.

After the attention phase the remapping, linear-module, and inverse-remapping
phases run barrier-synchronized; backward is modeled as a scalar multiplier
on the whole forward step, so the exported timeline covers forward only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, repeat

import numpy as np

from . import baselines
from .attention_engine import (
    INTER_NODE,
    INTRA_NODE,
    AttentionSchedule,
    RingGroup,
    RingSchedule,
    build_schedule,
    causal_pairs,
)
from .partitioner import InfeasibleBatch, PlacementPlan
from .remapping import cost_matrix, solve_remap, target_distribution
from .routing import RoutePlan, route_schedule
from .topology import ClusterSpec, CostCoefficients
from .workload import SequenceBatch

COMPUTE = "compute"
INTRA_COMM = "intra-comm"
INTER_COMM = "inter-comm"
_STREAMS = (COMPUTE, INTRA_COMM, INTER_COMM)
_STREAM_ORDER = {stream: s for s, stream in enumerate(_STREAMS)}


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


@dataclass(eq=False)
class Timeline:
    """One simulated forward step's events; its times are in the step's
    `StepReport`. `records` holds the events in compact form, in emission
    order: an Event's fields as a tuple, or a ring's `_RingRecord`.
    `events`, built on first read from the columns `export_trace` prints,
    holds what the trace holds: events in trace order (start, rank, stream,
    kind, duration, emission order on full ties), each payload with its
    keys sorted and its values as emitted."""

    gpus_per_node: int
    records: list = field(default_factory=list, repr=False)

    @cached_property
    def events(self) -> list[Event]:
        return _TraceColumns(self.records).events()


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
    """The lane tails routed steps read, token and NIC tallies, and the
    step's event records. Lane 3 * rank + s is stream s of a rank. An
    `emit`ted event starts at its caller's time, as none of its lane's
    earlier events ends later (README "Model notes")."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster
        self.records: list = []
        self.tails = [0.0] * (3 * cluster.num_ranks)
        self.inter_tokens = [0] * cluster.num_ranks
        self.intra_tokens = [0] * cluster.num_ranks
        self.nic_busy = [[0.0] * cluster.nics_per_node for _ in range(cluster.num_nodes)]
        self._nic_cursor = [0] * cluster.num_nodes

    def emit(self, rank: int, stream: str, start: float, duration: float, kind: str, payload: dict) -> float:
        self.records.append((rank, stream, start, duration, kind, payload))
        return start + duration

    def affine_nic(self, rank: int) -> int:
        """Direct sends bill the sender's affine NIC."""
        local = rank % self.cluster.gpus_per_node
        return local * self.cluster.nics_per_node // self.cluster.gpus_per_node

    def bill_nic(self, node: int, nic: int, durations: list[float]) -> None:
        """A NIC's busy time adds its transfers one by one, in event order."""
        total = self.nic_busy[node][nic]
        for dur in durations:
            total += dur
        self.nic_busy[node][nic] = total

    def bill_transfers(self, node: int, durations: list[float]) -> None:
        """Routed transfers spread round-robin over the node's NICs: the
        j-th from here goes to NIC (cursor + j) mod nics."""
        nics = self.cluster.nics_per_node
        cursor = self._nic_cursor[node]
        for k in range(min(nics, len(durations))):
            self.bill_nic(node, (cursor + k) % nics, durations[k::nics])
        self._nic_cursor[node] = cursor + len(durations)


def _run_rings(
    engine: _Engine,
    schedule: AttentionSchedule,
    plan: PlacementPlan,
    coeffs: CostCoefficients,
    routed: bool,
) -> list[float]:
    """Execute ring queues (inter-node first, then intra-node) and the local
    kernels; returns per-rank completion times of the attention phase."""
    ready = [0.0] * engine.cluster.num_ranks
    routes = route_schedule(schedule, plan, engine.cluster) if routed else None
    for ring_idx, ring_sched in enumerate(schedule.rings()):
        members = ring_sched.ring.members
        t = _run_ring(engine, ring_idx, ring_sched, max(ready[m] for m in members), coeffs, routes)
        for m in members:
            ready[m] = t
    for task in schedule.local_tasks:
        if task.compute_pairs <= 0:
            continue
        dur = coeffs.attn_quadratic * task.compute_pairs
        ready[task.rank] = engine.emit(task.rank, COMPUTE, ready[task.rank], dur, "local.attn",
                                       {"seq": task.sequence_id, "pairs": task.compute_pairs})
    return ready


def _run_ring(
    engine: _Engine,
    ring_idx: int,
    ring_sched: RingSchedule,
    t0: float,
    coeffs: CostCoefficients,
    routes: dict[tuple[int, int, int], RoutePlan] | None,
) -> float:
    """Run one ring from t0 and return the end of its last round.

    Every direct leg of round r starts at the round's start t_r. A ring
    starts once its members' earlier rings have ended, and only a member's
    own rings use its compute and intra-node lanes; an inter-node lane that
    an earlier route left busy carries no direct send, since every crossing
    hop of a routed ring is routed and unrouted strategies leave no route.
    Float addition rounds monotonically, so a round ends at t_r + (its
    longest direct leg), or at its last routed send's end when that is
    later. With `routes`, crossing sends are routed, each timed by
    `_run_route`, and the rest go direct. Only routed steps read tails:
    their endpoints' intra lanes, idle once a later ring of theirs starts,
    and their proxies' inter lanes, which only routes write; so a direct
    send sets its tail only for a routed step of its own round.
    """
    ring = ring_sched.ring
    g = ring.group_size
    members = ring.members
    tails = engine.tails
    pos = np.arange(g)
    held = (pos[:, None] - pos) % g  # [i, r]: position whose KV i holds in round r
    pairs = ring_sched.pairs[pos[:, None], held]
    tokens = np.array(ring_sched.kv_sizes, dtype=np.int64)[held]
    cluster = engine.cluster
    p = cluster.gpus_per_node
    crossing = [m // p != members[(i + 1) % g] // p for i, m in enumerate(members)]
    via_route = crossing if routes is not None else [False] * g
    compute = coeffs.attn_quadratic * pairs
    send = np.array([cluster.inv_bw_inter if c else cluster.inv_bw_intra for c in crossing])[:, None] * tokens
    direct = ~np.array(via_route)[:, None] & (tokens > 0)
    longest = np.maximum(compute, np.where(direct, send, 0.0)).max(axis=0).tolist()

    send_lanes = [3 * m + (2 if c else 1) for m, c in zip(members, crossing)]

    # the routed sends of each round, and each distinct route's lanes
    round_routes: list[list[RoutePlan]] = [[] for _ in range(g)]
    lanes: dict[RoutePlan, tuple[int, ...]] = {}
    if any(via_route):
        token_rows = tokens.tolist()
        routed = [i for i in range(g) if via_route[i]]
        for r in range(g):
            for i in routed:
                if token_rows[i][r] > 0:
                    route = routes[(ring_idx, r, members[i])]
                    if route not in lanes:
                        lanes[route] = _route_lanes(route)
                    round_routes[r].append(route)
    route_lanes = {lane for used in lanes.values() for lane in used}
    # direct sends on lanes that routed steps use too
    shared = [j for j in range(g) if not via_route[j] and send_lanes[j] in route_lanes]
    sends: list[tuple] = []

    starts = []
    t = t0
    for r in range(g):
        starts.append(t)
        end = t + longest[r]
        if round_routes[r]:
            # routed steps move the lane tails as they go: a lane's tail is
            # then its latest end, and ends of earlier rounds lie before t
            for j in shared:
                if direct[j, r]:
                    tails[send_lanes[j]] = t + float(send[j, r])
            for route in round_routes[r]:
                *starts_of_send, route_end = _run_route(route, lanes[route], tails, t)
                end = max(end, route_end)
                sends.append((r, route, *starts_of_send))
        t = end
    _tally_sends(engine, sends)

    kv_total = sum(ring_sched.kv_sizes)
    node_nics: dict[tuple[int, int], list[int]] = {}
    for i, m in enumerate(members):
        if via_route[i]:
            continue
        (engine.inter_tokens if crossing[i] else engine.intra_tokens)[m] += kv_total
        if crossing[i]:
            node_nics.setdefault((m // p, engine.affine_nic(m)), []).append(i)
    for (node, nic), rows in node_nics.items():
        # in event order: round by round, then position
        engine.bill_nic(node, nic, send[rows].T.ravel().tolist())

    kind = INTER_NODE if any(crossing) else INTRA_NODE
    engine.records.append(_RingRecord(ring_idx, ring, kind, send_lanes, pairs, tokens, compute, send, direct,
                                      np.array(starts), sends))
    return t


def _route_lanes(route: RoutePlan) -> tuple[int, ...]:
    """A route's lanes: the source's intra lane, the destination's intra
    lane, then each send proxy's inter lane, one per transfer."""
    return 3 * route.source_rank + 1, 3 * route.dest_rank + 1, *[3 * s + 2 for s in route.send_proxies]


def _run_route(route: RoutePlan, lanes: tuple[int, ...], tails: list[float],
               t: float) -> tuple[float, list[float], float, float]:
    """Time one routed send from round start t on its `_route_lanes`,
    whose latest ends are `tails`, and move those ends: the dispatch scatter
    is one chain on the source's intra lane, the transfers run in parallel
    on the send proxies' inter lanes once it ends, and the gather is one
    chain on the destination's intra lane after them. Returns the dispatch
    chain's start, each transfer's start, the gather chain's start and the
    send's end. Each chain's ends are sequential sums from its start."""
    source_lane, dest_lane = lanes[0], lanes[1]
    dispatch_start = end = max(t, tails[source_lane])
    if route.dispatch_times:
        for dur in route.dispatch_times:
            end += dur
        tails[source_lane] = end
    else:
        end = t
    transfer_starts = []
    transfer_end = end
    for lane, dur in zip(lanes[2:], route.transfer_times):
        start = tails[lane]
        if start < end:
            start = end
        transfer_starts.append(start)
        tails[lane] = done = start + dur
        if done > transfer_end:
            transfer_end = done
    combine_start = end = max(transfer_end, tails[dest_lane])
    if route.dispatch_times:
        for dur in route.dispatch_times:  # the gather bills the dispatch times
            end += dur
        tails[dest_lane] = end
    else:
        end = transfer_end
    return dispatch_start, transfer_starts, combine_start, end


def _tally_sends(engine: _Engine, sends: list[tuple]) -> None:
    """A ring's routed token counts, per route, and the NIC busy time of its
    transfers in event order."""
    transfers: dict[int, list[float]] = {}
    p = engine.cluster.gpus_per_node
    for _, route, *_ in sends:
        transfers.setdefault(route.source_rank // p, []).extend(route.transfer_times)
    for route, n in Counter(route for _, route, *_ in sends).items():
        engine.inter_tokens[route.source_rank] += n * route.tokens
        engine.intra_tokens[route.source_rank] += n * sum(route.shares[1:])
        for proxy, share in zip(route.recv_proxies[1:], route.shares[1:]):
            engine.intra_tokens[proxy] += n * share
    for node, durations in transfers.items():
        engine.bill_transfers(node, durations)


@dataclass(eq=False)
class _RingRecord:
    """One ring's events in compact form: each position's send lane,
    [position, round] matrices of its computes and direct sends, each
    round's start, at which all of that round's computes and direct sends
    start, and its routed sends in emission order as (round, route,
    dispatch start, transfer starts, gather start)."""

    ring_idx: int
    ring: RingGroup
    kind: str
    send_lanes: list[int]
    pairs: np.ndarray
    tokens: np.ndarray
    compute: np.ndarray
    send: np.ndarray
    direct: np.ndarray
    round_start: np.ndarray
    sends: list[tuple]


def _run_allgather(engine: _Engine, plan: PlacementPlan, coeffs: CostCoefficients) -> list[float]:
    """Non-overlapped ring all-gather followed by fully parallel attention
    compute; the gather runs at the slowest link class the group spans."""
    cluster = engine.cluster
    g, p = cluster.num_ranks, cluster.gpus_per_node
    total = plan.total_tokens()
    end = 0.0
    if g > 1 and total > 0:
        crossing = cluster.num_nodes > 1
        bw = cluster.inv_bw_inter if crossing else cluster.inv_bw_intra
        end = ag_time = bw * total * (g - 1) / g
        sent = round(total * (g - 1) / g)
        for rank in range(g):
            # each node's last rank carries the ring across to the next node
            is_boundary = crossing and rank % p == p - 1
            stream = INTER_COMM if is_boundary else INTRA_COMM
            engine.emit(rank, stream, 0.0, ag_time, "kv.allgather", {"tokens": sent})
            (engine.inter_tokens if is_boundary else engine.intra_tokens)[rank] += sent
            if is_boundary:
                engine.bill_nic(rank // p, engine.affine_nic(rank), [ag_time])
    total_pairs = sum(causal_pairs(ln) for ln in plan.sequence_lengths.values())
    if total_pairs > 0:
        dur = coeffs.attn_quadratic * total_pairs / g
        for rank in range(g):
            engine.emit(rank, COMPUTE, end, dur, "attn.parallel", {"pairs": total_pairs / g})
        end += dur
    return [end] * g


def check_topology(plan: PlacementPlan, cluster: ClusterSpec) -> None:
    if plan.num_nodes != cluster.num_nodes or plan.gpus_per_node != cluster.gpus_per_node:
        raise ValueError("plan topology does not match this cluster")


def simulate(
    plan: PlacementPlan,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
) -> tuple[Timeline, StepReport]:
    """Evaluate one plan: attention phase, remapping and linear phases, and a
    report with the backward-inclusive step time."""
    if plan.strategy not in baselines.STRATEGIES:
        raise ValueError(f"unknown strategy {plan.strategy!r}")
    check_topology(plan, cluster)
    engine = _Engine(cluster)
    if plan.strategy == "llama_cp":
        schedule = None
        ready = _run_allgather(engine, plan, coeffs)
    else:
        schedule = build_schedule(plan)
        ready = _run_rings(engine, schedule, plan, coeffs, routed=plan.strategy == "zeppelin")
    # every attention leg ends by its ring's last round or its rank's last
    # kernel, and `ready` holds both
    attention_end = max([0.0] + ready)

    remap_fwd = remap_inv = 0.0
    if plan.strategy == "zeppelin" and plan.total_tokens() > 0:
        result = solve_remap(plan.tokens_per_rank, cost_matrix(cluster))
        remap_fwd = remap_inv = max(result.objective, float(result.row_costs.max()))
        linear_tokens = target_distribution(plan.tokens_per_rank)
        _emit_remap(engine, result, attention_end, "remap.forward")
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
        _emit_remap(engine, result, linear_end, "remap.inverse")
    total_step = (linear_end + remap_inv) * (1.0 + cluster.backward_multiplier)
    timeline = Timeline(gpus_per_node=cluster.gpus_per_node, records=engine.records)
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
        peak_kv_tokens=_peak_kv(plan, schedule),
        max_micro_batches=int(plan.placement[:, 1].max(initial=1)),
    )
    return timeline, report


def _emit_remap(engine: _Engine, result, start: float, kind: str) -> None:
    matrix = result.matrix
    node = np.arange(engine.cluster.num_ranks) // engine.cluster.gpus_per_node
    crosses = ((matrix > 0) & (node[:, None] != node)).any(axis=1).tolist()
    sent = matrix.sum(axis=1).tolist()
    for rank, cost in enumerate(result.row_costs.tolist()):
        if cost <= 0:
            continue
        stream = INTER_COMM if crosses[rank] else INTRA_COMM
        engine.emit(rank, stream, start, cost, kind, {"tokens": int(sent[rank])})


def _peak_kv(plan: PlacementPlan, schedule: AttentionSchedule | None) -> int:
    """Diagnostic upper estimate of concurrently resident KV tokens per rank.
    Without a ring schedule (llama_cp) every rank gathers all the KV."""
    if schedule is None:
        return plan.total_tokens()
    extra = [0] * plan.num_ranks
    for ring_sched in schedule.rings():
        held = max(ring_sched.kv_sizes)
        for m in ring_sched.ring.members:
            extra[m] = max(extra[m], held)
    return max(
        (plan.tokens_per_rank[r] + extra[r] for r in range(plan.num_ranks)),
        default=0,
    )


def _us(seconds: np.ndarray) -> list[float]:
    """Times in seconds as microseconds, which json prints by `repr`."""
    return (seconds * 1e6).tolist()


def _distinct(key: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each event's distinct key, then each column's value at each distinct
    key, for columns that the key fixes."""
    distinct, index = np.unique(key, return_inverse=True)
    values = [np.empty(len(distinct), column.dtype) for column in columns]
    for value, column in zip(values, columns):
        value[index] = column
    return index, *values


@dataclass(eq=False)
class _Block:
    """A run of events of one kind in emission order: start, duration and
    lane columns, the payload as `fields`, each key (in sorted order)
    mapped to a column (an int64 array, or a list of the records' own
    values) or to the one value all the run's events share, and each
    line's text up to its pid as three pieces: `rows` holds each event's
    three indices into `texts`, a table of each distinct piece once."""

    kind: str
    start: np.ndarray
    duration: np.ndarray
    lane: np.ndarray
    fields: dict
    texts: list[str]
    rows: np.ndarray

    def payloads(self) -> list[dict]:
        keys = list(self.fields)
        columns = [v.tolist() if isinstance(v, np.ndarray) else v if isinstance(v, list) else repeat(v)
                   for v in self.fields.values()]
        return [dict(zip(keys, row)) for row in zip(*columns)]


class _TraceColumns:
    """A timeline's events as `_Block`s of columns in emission order. A ring
    record gives a block of computes (pairs, round), one of direct sends
    (dst, round, tokens) and three of routed steps (dst, proxy, src and
    tokens from each distinct route's proxies and shares); a run of tuple
    records of one kind gives a block of the records' own values. Payload
    integers stay int64 or Python int, never float. Each block's text
    pieces are keyed on what fixes them: a compute's on its pairs, a direct
    send's on its position and on its link class and tokens, a routed
    step's on its route and proxy index, and every ring event's round on
    the round; a tuple record keeps one piece of its own. The one expansion
    of the records: `text` prints the trace from them and `events` reads
    them back, both in the order of one stable sort."""

    def __init__(self, records: list) -> None:
        self.blocks: list[_Block] = []
        for key, run in groupby(records, _run_key):
            if key is None:
                for record in run:
                    self.add_ring(record)
            else:
                self.add_run(list(run))

    def _add(self, kind: str, start, duration, lane, fields: dict, *pieces: tuple[list[str], np.ndarray]) -> None:
        """A block whose events' three pieces are (table, each event's index into it)."""
        if len(start):
            texts, rows, at = [], [], 0
            for table, index in pieces:
                texts += table
                rows.append(at + index)
                at += len(table)
            self.blocks.append(_Block(kind, np.asarray(start, dtype=float), np.asarray(duration, dtype=float),
                                      np.asarray(lane, dtype=np.int64), fields, texts, np.array(rows).T))

    def add_run(self, run: list[tuple]) -> None:
        """Tuple records of one kind and one payload key set, each line's
        text up to its pid one piece: %s prints an int as json does, and a
        float by its repr, as json does too."""
        rank, stream, start, duration, kinds, payloads = zip(*run)
        lane = [3 * r + _STREAM_ORDER[s] for r, s in zip(rank, stream)]
        fields = {k: [p[k] for p in payloads] for k in sorted(payloads[0])}
        head = '{"args":{' + ",".join(f'"{k}":%s' for k in fields) + f'}},"dur":%r,"name":"{kinds[0]}","ph":"X",'
        index = np.arange(len(run))
        blank = ([""], np.zeros_like(index))
        self._add(kinds[0], start, duration, lane, fields,
                  ([head % row for row in zip(*fields.values(), _us(np.array(duration)))], index),
                  blank, blank)

    def add_ring(self, rec: _RingRecord) -> None:
        """A ring's computes, direct sends and routed steps. Each block
        keeps emission order within its kinds, which is all the stable
        sort needs: events of different kinds never tie."""
        members = np.array(rec.ring.members, dtype=np.int64)
        rounds = list(map(str, range(len(members))))
        # the transposed masks enumerate (round, position) in emission order
        r, i = np.nonzero(rec.pairs.T > 0)
        pairs, compute = rec.pairs[i, r], rec.compute[i, r]
        key, distinct_pairs, dur = _distinct(pairs, pairs, compute)
        self._add(f"{rec.kind}.attn", rec.round_start[r], compute, 3 * members[i],
                  {"pairs": pairs, "ring": rec.ring_idx, "round": r},
                  ([f'{{"args":{{"pairs":{p},"ring":{rec.ring_idx},"round":' for p in distinct_pairs.tolist()], key),
                  (rounds, r),
                  ([f'}},"dur":{d!r},"name":"{rec.kind}.attn","ph":"X",' for d in _us(dur)], key))
        r, i = np.nonzero(rec.direct.T)
        lane, tokens, send = np.array(rec.send_lanes, dtype=np.int64)[i], rec.tokens[i, r], rec.send[i, r]
        dst = np.roll(members, -1)
        key, distinct_tokens, dur = _distinct(2 * tokens + (lane % 3 == 2), tokens, send)  # (tokens, link class)
        self._add("kv.send", rec.round_start[r], send, lane,
                  {"dst": dst[i], "ring": rec.ring_idx, "round": r, "tokens": tokens},
                  ([f'{{"args":{{"dst":{a},"ring":{rec.ring_idx},"round":' for a in dst.tolist()], i),
                  (rounds, r),
                  ([f',"tokens":{n}}},"dur":{d!r},"name":"kv.send","ph":"X",'
                    for n, d in zip(distinct_tokens.tolist(), _us(dur))], key))
        if rec.sends:
            self._add_sends(rec, rounds)

    def _add_sends(self, rec: _RingRecord, round_texts: list[str]) -> None:
        """A ring's routed steps, kind by kind in emission order, their
        fields and texts taken from each distinct route's proxies and
        shares. A chain's starts are the sequential sums of its durations
        from its start, as a cumulative sum along each row gives them."""
        rounds, routes, dispatch_start, transfer_starts, combine_start = zip(*rec.sends)
        distinct = {route: u for u, route in enumerate(dict.fromkeys(routes))}
        u = np.array([distinct[route] for route in routes], dtype=np.int64)
        rounds = np.array(rounds, dtype=np.int64)

        def table(name: str, dtype=np.int64) -> np.ndarray:
            """Each distinct route's field, a row of it per route."""
            return np.array([getattr(route, name) for route in distinct], dtype=dtype)

        src, dst, shares = table("source_rank"), table("dest_rank"), table("shares")
        lanes = np.array([_route_lanes(route) for route in distinct], dtype=np.int64)

        def add(kind: str, start: np.ndarray, duration: np.ndarray, lane: np.ndarray, proxy: np.ndarray,
                tokens: np.ndarray) -> None:
            """Steps starting at `start`, a row per send; the other
            arguments have a row per distinct route."""
            k = proxy.shape[1]
            cell = (u[:, None] * k + np.arange(k)).ravel()  # each step's (route, proxy index)
            dsts, srcs, r = np.repeat(dst, k), np.repeat(src, k), np.repeat(rounds, k)
            proxy, tokens, duration = proxy.ravel(), tokens.ravel(), duration.ravel()
            self._add(kind, start.ravel(), duration[cell], lane.ravel()[cell],
                      {"dst": dsts[cell], "proxy": proxy[cell], "ring": rec.ring_idx,
                       "round": r, "src": srcs[cell], "tokens": tokens[cell]},
                      ([f'{{"args":{{"dst":{a},"proxy":{x},"ring":{rec.ring_idx},"round":'
                        for a, x in zip(dsts.tolist(), proxy.tolist())], cell),
                      (round_texts, r),
                      ([f',"src":{s},"tokens":{n}}},"dur":{d!r},"name":"{kind}","ph":"X",'
                        for s, n, d in zip(srcs.tolist(), tokens.tolist(), _us(duration))], cell))

        def chain(starts: tuple, durations: np.ndarray) -> np.ndarray:
            return np.cumsum(np.column_stack((starts, durations[u])), axis=1)[:, :-1]

        # the gather bills the dispatch times
        duration = table("dispatch_times", float)
        add("route.dispatch", chain(dispatch_start, duration), duration, np.repeat(lanes[:, 0], duration.shape[1]),
            table("send_proxies")[:, 1:], shares[:, 1:])
        recv_proxies = table("recv_proxies")
        add("route.transfer", np.array(transfer_starts, dtype=float), table("transfer_times", float), lanes[:, 2:],
            recv_proxies, shares)
        add("route.combine", chain(combine_start, duration), duration, np.repeat(lanes[:, 1], duration.shape[1]),
            recv_proxies[:, 1:], shares[:, 1:])

    def in_trace_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The start, duration and lane columns of all blocks, and the
        permutation that sorts them by (start, rank, stream order, kind,
        duration); the stable sort keeps emission order on full ties."""
        kinds = sorted({block.kind for block in self.blocks})
        code = np.repeat([kinds.index(block.kind) for block in self.blocks],
                         [len(block.start) for block in self.blocks])
        start = np.concatenate([block.start for block in self.blocks])
        duration = np.concatenate([block.duration for block in self.blocks])
        lane = np.concatenate([block.lane for block in self.blocks])
        # (rank, stream order) sorts as the lane does
        return start, duration, lane, np.lexsort((duration, code, lane, start))

    def text(self, gpus_per_node: int) -> str:
        """The 'X' records of all events in trace order, keys in sorted
        order, numbers as json writes them and a comma between records.
        A record is five pieces: its block's three, its lane's pid and tid,
        and its start's ts; each text is formatted once, a row of indices
        per event is gathered in trace order and the pieces are joined."""
        if not self.blocks:
            return ""
        start, _, lane, order = self.in_trace_order()
        start, lane = start[order], lane[order]
        new = np.concatenate(([True], start[1:] != start[:-1]))  # the first event of each start, in sorted order
        texts = [piece for block in self.blocks for piece in block.texts]
        at = np.cumsum([0] + [len(block.texts) for block in self.blocks])
        rows = np.concatenate([block.rows + a for block, a in zip(self.blocks, at)])[order]
        texts += [f'"pid":{n // 3 // gpus_per_node},"tid":"{n // 3}.{_STREAMS[n % 3]}",'
                  for n in range(int(lane.max()) + 1)]
        pieces = np.array(texts + [f'"ts":{t!r}}},' for t in _us(start[new])], dtype=object)[
            np.column_stack((rows, at[-1] + lane, len(texts) - 1 + np.cumsum(new)))]
        pieces[-1, -1] = pieces[-1, -1][:-1]  # no comma after the last record
        return "".join(pieces.ravel().tolist())

    def events(self) -> list[Event]:
        if not self.blocks:
            return []
        start, duration, lane, order = self.in_trace_order()
        kinds = [block.kind for block in self.blocks for _ in range(len(block.start))]
        payloads = [payload for block in self.blocks for payload in block.payloads()]
        streams = np.array(_STREAMS, dtype=object)[lane % 3]
        return list(map(Event, (lane[order] // 3).tolist(), streams[order].tolist(), start[order].tolist(),
                        duration[order].tolist(), np.array(kinds, dtype=object)[order].tolist(),
                        np.array(payloads, dtype=object)[order].tolist()))


def _run_key(record) -> tuple | None:
    """Tuple records group into runs by kind and payload keys; a ring
    record stands alone."""
    return (record[4], *record[5]) if isinstance(record, tuple) else None


def export_trace(timeline: Timeline, path: str) -> None:
    """Write the timeline as Chrome Trace Event JSON: complete ('X') events
    with microsecond timestamps, process id = node, thread id = rank.stream.
    Each distinct piece of text is formatted once from the compact records'
    columns, with no Event built, and the pieces are joined in trace order
    into the bytes `json.dumps(..., sort_keys=True)` gives."""
    # the columns and the pieces are freed once joined, before the write
    text = _TraceColumns(timeline.records).text(timeline.gpus_per_node)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"displayTimeUnit":"ms","traceEvents":[')
        fh.write(text)
        fh.write("]}\n")


CSV_HEADER = (
    "strategy,attention_makespan_s,remap_s,linear_s,total_step_s,"
    "speedup_vs_te_cp,inter_comm_tokens,intra_comm_tokens"
)


def set_speedups(
    reports: list[StepReport],
    batch: SequenceBatch,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
) -> None:
    """Speedups relative to te_cp, simulated here when it is not a row."""
    te = next((r for r in reports if r.strategy == "te_cp"), None)
    if te is None:
        te = compare(batch, cluster, coeffs, ["te_cp"])[0]
    te_total = te.total_step if te.feasible else None
    for report in reports:
        if report.feasible and te_total and report.total_step > 0:
            report.speedup_vs_te_cp = te_total / report.total_step


def compare_with_timelines(
    batch: SequenceBatch,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
    strategies: list[str],
) -> tuple[list[StepReport], dict[str, Timeline]]:
    """Plan and simulate every requested strategy once; returns the reports
    and the timeline of every feasible strategy. Speedups are relative to
    te_cp (computed internally when it is not among the requested rows).
    A strategy that cannot place the batch yields an infeasible row instead
    of failing the whole comparison.
    """
    if not strategies:
        raise ValueError("no strategies given")
    unknown = [s for s in strategies if s not in baselines.PLANNERS]
    if unknown:
        raise ValueError(f"unknown strategies: {', '.join(unknown)}")
    repeated = list(dict.fromkeys(s for s in strategies if strategies.count(s) > 1))
    if repeated:
        raise ValueError(f"repeated strategies: {', '.join(repeated)}")
    reports, timelines = [], {}
    for strategy in strategies:
        try:
            timelines[strategy], report = simulate(baselines.plan_with(strategy, batch, cluster), cluster, coeffs)
        except InfeasibleBatch as exc:
            report = StepReport(strategy=strategy, feasible=False, error=str(exc))
        reports.append(report)
    set_speedups(reports, batch, cluster, coeffs)
    return reports, timelines


def compare(
    batch: SequenceBatch,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
    strategies: list[str],
) -> list[StepReport]:
    """The reports of `compare_with_timelines`."""
    return compare_with_timelines(batch, cluster, coeffs, strategies)[0]


def simulate_timelines(
    batch: SequenceBatch,
    cluster: ClusterSpec,
    coeffs: CostCoefficients,
    strategies: list[str],
) -> dict[str, Timeline]:
    """The timelines of `compare_with_timelines`."""
    return compare_with_timelines(batch, cluster, coeffs, strategies)[1]


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
