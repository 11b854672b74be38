"""Zigzag chunking and the round structure of ring attention.

Splitting a sequence into 2G chunks and giving ring position i chunks i and
2G-1-i equalizes causal-mask work: every position ends up with the same
visible (query, key) pair count once all KV sets have rotated past. The
schedule runs each ring for G rounds, KV moving one position per round.
"""

from varlenplan import build_plan, build_schedule, causal_pairs, cluster_a, split_even
from varlenplan.attention_engine import ranges_from_sizes, ring_kind
from varlenplan.workload import SequenceBatch

print("zigzag layout of a 16-token sequence on a 4-rank ring:")
for pos, (a, b) in enumerate(ranges_from_sizes(split_even(16, 8))):
    print(f"  position {pos}: chunks {a} and {b}")

cluster, _ = cluster_a()
batch = SequenceBatch(((0, 65536),))
plan = build_plan(batch, cluster)
schedule = build_schedule(plan)
ring = schedule.inter_rings[0]
g = ring.ring.group_size

print(f"\nsingle 64k sequence -> one {ring_kind(ring.ring.members, cluster.gpus_per_node)} ring of {g} ranks, {g} rounds")
# in round r, position i computes against and sends on the KV of position (i - r) mod g
print(f"KV tokens sent per rank per round: {ring.kv_sizes[0]}")

totals = ring.pairs.sum(axis=1).tolist()
print(f"per-rank visible-pair totals: {sorted(set(totals))} "
      f"({'exactly equal' if len(set(totals)) == 1 else 'spread'})")
print(f"sum over ranks = {sum(totals)} = n(n+1)/2 = {causal_pairs(65536)}")

print("\nround-by-round pairs for ring position 0 (varying: different KV sets):")
for r in range(0, g, 4):
    src = -r % g
    print(f"  round {r:>2}: {ring.pairs[0, src]:>11} pairs, send {ring.kv_sizes[src]} KV tokens")

# a mixed batch exercises all three queues
mixed = SequenceBatch(((0, 70000), (1, 9000), (2, 9000), (3, 600), (4, 500)))
mixed_plan = build_plan(mixed, cluster)
mixed_sched = build_schedule(mixed_plan)
print(f"\nmixed batch queues: {len(mixed_sched.inter_rings)} inter-node ring(s), "
      f"{len(mixed_sched.intra_rings)} intra-node ring(s), "
      f"{len(mixed_sched.local_tasks)} local kernel(s)")
print("execution order per rank: inter-node rounds, intra-node rounds, local kernels")
