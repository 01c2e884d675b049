"""What a colluding clique does to inference accuracy.

Colluders hide their real edges from monitors (misses) and answer probes on
behalf of each other to fabricate edges that do not exist (false alarms).
Honest peers' markers leak through the clique too, so fabrications outnumber
the hidden edges: recall degrades more gracefully than precision.
"""
from topomon.metrics import classify_edges
from topomon.simulation import ExperimentConfig, World

cfg = ExperimentConfig(
    variability_s=10.0,
    malicious_pct=0.30,
    duration_ms=300_000,
    probe_every_ms=60_000,
    seed=1,
)
world = World(cfg)
print(f"50 nodes, 4 monitors, churn ~10s, {cfg.malicious_pct:.0%} colluding\n")
print("  time    tp   fp   fn   precision  recall")
for p in world.run():
    c = classify_edges(world.global_snapshot().edges, world.topo.peer_edges())
    prec = 100 * p.tp / (p.tp + p.fp)
    rec = 100 * p.tp / (p.tp + p.fn)
    print(f"  {p.time_ms // 1000:3}s   {p.tp:3}  {p.fp:3}  {p.fn:3}     "
          f"{prec:5.1f}%   {rec:5.1f}%")

colluders = set(world.topo.malicious_alive())
truth = world.topo.peer_edges()
inferred = world.global_snapshot().edges
fakes = inferred - truth
hidden = truth - inferred

def involving(edges, group):
    return sum(1 for a, b in edges if a in group or b in group)

print(f"\nfinal snapshot: {len(fakes)} fabricated edges, "
      f"{involving(fakes, colluders)} of them touching a colluder")
print(f"{len(hidden)} hidden/missed edges, "
      f"{involving(hidden, colluders)} of them touching a colluder")
print("every fabrication terminates at a colluder; honest-to-honest edges "
      "are never faked")
