"""Majority reputation evicts a peer that silently sabotages verification.

The mole keeps every connection alive but never relays its inbound peers'
markers, so every monitor stops confirming those edges.  Each victim tallies
confirmations per monitor, waits out the safe period, and once a strict
majority of monitors agrees the mole is gone: disconnected, banned for good,
and the freed outbound slot is refilled with a fresh peer.
"""
from topomon.adversary import SingleBehavior
from topomon.simulation import ExperimentConfig, World

cfg = ExperimentConfig(
    nodes=10,
    monitors=3,
    variability_s=0.0,
    duration_ms=12_000,
    probe_every_ms=12_000,
    scheduling_mode="fixed",
    f_init=1,
    adaptive=False,
    seed=6,
)
events = []  # (time_ms, kind, from, to, closed edge) of each enforcement step


def enforcement(now, kind, frm, to, data):
    if kind in ("disconnect", "refill"):
        events.append((now, kind, frm, to, data))


world = World(cfg, observer=enforcement)

mole = max(world.nodes, key=lambda n: len(world.topo.inb[n]))
victims = sorted(world.topo.inb[mole])
print(f"mole: node {mole}, silently dropping relays for all {cfg.monitors} monitors")
print(f"victims pointing at it: {victims}\n")
world.convert_to_malicious(mole, SingleBehavior(6, drop_for=frozenset(range(3))))

world.run()

for t, kind, frm, to, edge in events:
    detail = f"edge={edge[0]}>{edge[1]}" if edge else ""
    print(f"  t={t / 1000:5.2f}s  {kind:10}  {frm} -> {to}  {detail}")
print(f"\n{len(events)} enforcement events; mole edges now: "
      f"{sorted(e for e in world.topo.peer_edges() if mole in e)}")

for v in victims:
    print(f"node {v}: banned={sorted(world.topo.banned.get(v, ()))}, "
          f"outbound refilled to {sorted(world.topo.out[v])}")

snap = world.global_snapshot()
print(f"\nagreed global view matches ground truth afterwards: "
      f"{snap.edges == world.topo.peer_edges()}")
