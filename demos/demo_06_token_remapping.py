"""Rebalancing tokens for the linear modules.

An attention-optimal placement can leave rank token counts skewed, which is
exactly wrong for token-wise linear modules. The remapping layer computes a
transfer matrix to the even layout that minimizes the worst per-sender cost,
applies it before the linear modules, and reverses it afterwards for the
same price.

With one cost inside a node and a higher one across nodes, the optimum is a
per-node water-fill: each node first covers its own deficits, then pushes
its excess off-node, spread over its senders so that the most loaded one
pays as little as possible.
"""

import numpy as np

from varlenplan import build_plan, cluster_a, preset, sample_batch
from varlenplan.remapping import cost_matrix, solve_remap, target_distribution

cluster, _ = cluster_a()
batch = sample_batch(preset("prolong64k"), 65536, seed=3)
plan = build_plan(batch, cluster)

counts = plan.tokens_per_rank
print("attention-phase token counts per rank:")
print(" ", counts)
target = target_distribution(counts)
print("even target for the linear modules:")
print(" ", target)

result = solve_remap(counts, cost_matrix(cluster))
moved = int(result.matrix.sum())
print(f"\noptimal transfer: {moved} tokens moved, "
      f"worst per-sender cost {result.objective * 1e6:.2f} us")
senders = np.nonzero(result.matrix.sum(axis=1))[0]
for i in senders:
    targets = {int(j): int(result.matrix[i][j]) for j in np.nonzero(result.matrix[i])[0]}
    print(f"  rank {i} sends {targets}")

print("\nreceiver-side row costs (diagnostic, not part of the objective):")
col_costs = (cost_matrix(cluster) * result.matrix).sum(axis=0)
print(" ", [f"{c * 1e6:.1f}us" for c in col_costs if c > 0] or ["none"])

print("\ntransfer matrix:")
print(result.matrix)

# a deliberately skewed example on a 2-node, 2-GPU toy cluster: the solver
# fills the node's own deficit over the cheap intra-node arc and sends the
# node's excess across the expensive one
from varlenplan.topology import ClusterSpec

toy = ClusterSpec(num_nodes=2, gpus_per_node=2, token_capacity=1000,
                  inv_bw_intra=1.0, inv_bw_inter=10.0)
skewed = [300, 0, 0, 0]
res = solve_remap(skewed, cost_matrix(toy))
print(f"\nskewed 4-rank example {skewed} -> {target_distribution(skewed)}:")
print(res.matrix)
