"""Accuracy across the (churn x malicious share) grid, desk-scale edition.

Reproduces the shape of the headline result tables: precision and recall per
cell, pooled over a couple of seeds.  Expect exactness with no adversaries,
graceful recall decay under collusion, and precision falling faster than
recall once the clique is large.  Budget roughly half a minute.
"""
from topomon.experiment import run_sweep
from topomon.metrics import precision, recall
from topomon.simulation import ExperimentConfig

VARS = [10.0, 5.0, 1.0]
PCTS = [0.0, 10.0, 30.0, 50.0]

base = ExperimentConfig(duration_ms=300_000, probe_every_ms=30_000, seed=0)
report = run_sweep(VARS, PCTS, repeats=2, base=base,
                   progress=lambda msg: print("  running", msg))

cells = {(c.variability_s, c.malicious_pct): c for c in report.cells}
header = "".join(f"{f'{int(p)}%':>16}" for p in PCTS)
print(f"\nprecision / recall, pooled over 2 seeds\n\nvar{header}")
for var in VARS:
    row = []
    for pct in PCTS:
        c = cells[(var, pct)].totals
        row.append(f"{100 * precision(c):5.1f} /{100 * recall(c):5.1f}")
    print(f"{int(var):3}" + "".join(f"{cell:>16}" for cell in row))
print("\n(one-decimal percentages; full protocol runs 5 seeds per cell via "
      "`topomon sweep`)")
