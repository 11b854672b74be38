"""Timeline case study: one 64k context on 16 GPUs, two ways.

Case A is a single 64k sequence: both strategies need the full 16-rank ring,
so all of the gain comes from routing the cross-node sends over every NIC.
Case B is the same token budget in node-sized pieces: the partitioner keeps
each piece inside a node and the inter-node queue disappears entirely,
leaving 8-round intra-node rings.

Exported traces open in any Chrome-trace viewer (chrome://tracing, Perfetto).
"""

import os

from varlenplan import build_plan, cluster_a, export_trace, simulate
from varlenplan.attention_engine import ring_kind
from varlenplan.baselines import plan_te_cp
from varlenplan.workload import SequenceBatch

cluster, coeffs = cluster_a()
here = os.path.dirname(__file__)
os.makedirs(os.path.join(here, "traces"), exist_ok=True)


def show(tag, batch):
    print(f"\n=== {tag}: {[ln for _, ln in batch.sequences]} ===")
    for planner, name in ((plan_te_cp, "te_cp"), (build_plan, "zeppelin")):
        plan = planner(batch, cluster)
        timeline, report = simulate(plan, cluster, coeffs)
        rings = [(ring_kind(r.members, cluster.gpus_per_node), len(r.members)) for r in plan.ring_groups]
        # printed relative to the demo's directory, wherever the checkout sits
        path = os.path.join("traces", f"{tag}-{name}.trace.json")
        export_trace(timeline, os.path.join(here, path))
        print(f"{name:<9} rings {rings or '[]'}")
        print(f"          attention {report.attention_makespan * 1e3:7.2f} ms, "
              f"step {report.total_step * 1e3:7.2f} ms, "
              f"inter {report.inter_comm_tokens} tok, intra {report.intra_comm_tokens} tok")
        busiest = max(max(nics) for nics in report.nic_busy_time)
        idle = sum(1 for nics in report.nic_busy_time for t in nics if t == 0)
        print(f"          busiest NIC {busiest * 1e3:.2f} ms, idle NICs {idle}/8  -> {path}")


show("single-sequence", SequenceBatch(((0, 65536),)))
show("multi-sequence", SequenceBatch(((0, 32768), (1, 32768))))

print("\nthe single-sequence case keeps a 16-round inter-node ring but splits")
print("each cross-node send over all eight proxies; the multi-sequence case")
print("avoids inter-node traffic altogether and runs 8-round rings per node.")
