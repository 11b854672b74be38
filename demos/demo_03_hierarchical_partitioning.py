"""Two-level partitioning of one variable-length batch.

Level one buckets sequences per node (chunking anything above the running
threshold s1), level two spreads each bucket over the node's devices
(splitting medium sequences to balance quadratic work). The resulting plan
labels every sequence local / intra-node / inter-node based on where its
fragments actually landed, read off the plan's placement table.
"""

from varlenplan import build_plan, cluster_a, preset, sample_batch
from varlenplan.attention_engine import ring_kind

cluster, _ = cluster_a()
batch = sample_batch(preset("prolong64k"), 65536, seed=3)

print("batch:")
for sid, length in sorted(batch.sequences, key=lambda t: -t[1]):
    print(f"  seq {sid}: {length:>6} tokens")

plan = build_plan(batch, cluster)

print(f"\nfinal thresholds: s1 = {plan.s1} tokens, s0 per node = {plan.s0_per_node}")
print(f"threshold restarts: inter {plan.meta['s1_restarts']}, intra {plan.meta['s0_restarts']}")

print("\nzones:")
for sid, zone in sorted(plan.zone_of.items()):
    print(f"  seq {sid}: {zone}")

# a node's bucket: the tokens of each sequence its ranks hold, read off the placement table
buckets = [{} for _ in range(plan.num_nodes)]
for rank, _, sid, start, end in plan.placement.tolist():
    bucket = buckets[rank // plan.gpus_per_node]
    bucket[sid] = bucket.get(sid, 0) + end - start
print("\nnode buckets (sequence, resident tokens):")
for node, bucket in enumerate(buckets):
    print(f"  node {node}: {sorted(bucket.items())}  -> {sum(bucket.values())} tokens")

print("\nper-rank token loads:")
print(" ", plan.tokens_per_rank)
print(f"  spread: min {min(plan.tokens_per_rank)}, max {max(plan.tokens_per_rank)}, "
      f"capacity {cluster.token_capacity}")

print("\nring groups:")
for ring in plan.ring_groups:
    print(f"  {ring_kind(ring.members, cluster.gpus_per_node):<10} over ranks {ring.members}: sequences {list(ring.sequence_ids)}")

# the plan keeps one (rank, micro_batch, sequence_id, start, end) row per fragment
print("\nfragments on rank 0:")
for rank, _, sid, start, end in plan.placement.tolist():
    if rank == 0:
        print(f"  seq {sid} tokens [{start}, {end})")
