"""Three-step routing: dispatch, multi-NIC transfer, combine.

A ring send that crosses nodes normally rides the sender's single NIC path.
Scattering the payload over x proxy ranks first (cheap intra-node hops), then
transferring the pieces in parallel and gathering at the destination, trades
a little intra-node traffic for an x-fold shorter cross-node leg.
"""

from varlenplan import build_plan, build_schedule, cluster_a, direct_transfer_time, routed_time
from varlenplan.routing import build_route, route_schedule, select_proxies
from varlenplan.workload import SequenceBatch

cluster, _ = cluster_a()
n = 4096

print(f"moving {n} KV tokens across nodes (direct: "
      f"{direct_transfer_time(cluster, n, 'inter') * 1e3:.3f} ms):")
print(f"{'proxies':>8} | {'routed time':>12} | {'vs direct':>9}")
direct = direct_transfer_time(cluster, n, "inter")
for x in (1, 2, 4, 8):
    t = routed_time(cluster, n, x, x)
    print(f"{x:>8} | {t * 1e3:>9.3f} ms | {t / direct:>8.3f}x")

plan = build_plan(SequenceBatch(((0, 65536),)), cluster)
ring = plan.ring_groups[0]
send, recv = select_proxies(cluster, ring, 7, 8)
print(f"\nproxy selection for the ring crossing 7 -> 8: {len(send)} send, {len(recv)} receive proxies")
print(f"  send proxies {send}")
print(f"  recv proxies {recv}")

# the simulator bills each step its integer share of the tokens, within
# one token per leg of the formula (exactly it when the proxies divide n)
for tokens in (n, n + 5):
    route = build_route(cluster, ring, 7, 8, tokens)
    # the gather moves the dispatched shares back, so it bills the dispatch times
    dispatch, transfer = sum(route.dispatch_times), max(route.transfer_times)
    combine = dispatch
    print(f"\nbilled steps for one {tokens}-token round: dispatch {dispatch * 1e3:.4f} ms, "
          f"transfer {transfer * 1e3:.4f} ms, combine {combine * 1e3:.4f} ms")
    print(f"  total {(dispatch + transfer + combine) * 1e3:.4f} ms, formula "
          f"{routed_time(cluster, tokens, len(send), len(recv)) * 1e3:.4f} ms")
print(f"  some steps of the {route.tokens}-token send:")
transfers = [step for step in route.steps if step.kind == "inter_transfer"]
for step in (route.steps[0], transfers[0], transfers[-1], route.steps[-1]):
    print(f"    {step.kind:<14} {step.source_rank:>2} -> {step.dest_rank:>2}  {step.tokens} tokens")
print(f"    ... {len(route.steps)} steps total")

routes = route_schedule(build_schedule(plan), plan, cluster)
print(f"\nthe full schedule routes {len(routes)} cross-node sends "
      f"({len({k[2] for k in routes})} boundary senders x {ring.group_size} rounds)")
