"""The benchmark's span tracer still fits the program it wraps.

`bench/tracer.py` patches `NodeState.handle_marker`/`handle_verified` and
`Adversary.handle_marker` by name, and reads `.state.id` of an adversary and
`.sender` of each record it returns, and replaces `experiment.run_experiment`
with a closure, which a sweep's worker processes cannot be sent. A traced run
or sweep must produce the same bytes as an untraced one.
"""
from __future__ import annotations

import io
import sys
from pathlib import Path

from topomon.experiment import TextArtifacts, run_sweep
from topomon.simulation import ExperimentConfig, World

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracer import Tracer  # noqa: E402  (bench/ is not a package)


def trace_of(cfg: ExperimentConfig) -> str:
    sink = io.StringIO()
    World(cfg, observer=TextArtifacts(trace=sink)).run()
    return sink.getvalue()


def test_traced_churn_collusion_run_matches_untraced():
    cfg = ExperimentConfig(
        nodes=30,
        variability_s=1.0,
        malicious_pct=0.3,
        duration_ms=30_000,
        probe_every_ms=10_000,
        seed=3,
    )
    plain = trace_of(cfg)
    tracer = Tracer()
    with tracer.install():
        traced = trace_of(cfg)
    assert traced == plain
    assert tracer.counts["adversary.fabricated_relays"] > 0


def sweep_csvs(base: ExperimentConfig):
    raw, summary = io.StringIO(), io.StringIO()
    report = run_sweep((1.0,), (0.0, 30.0), 1, base=base, raw=raw, summary=summary)
    return report, raw.getvalue(), summary.getvalue()


def test_traced_sweep_matches_untraced():
    # the tracer wraps `run_experiment` in a closure, which cannot be pickled;
    # the sweep's worker processes must still run it and write the same bytes
    base = ExperimentConfig(nodes=20, duration_ms=20_000, probe_every_ms=10_000, seed=4)
    _, raw, summary = sweep_csvs(base)
    with Tracer().install():
        report, traced_raw, traced_summary = sweep_csvs(base)
    assert report.ok
    assert (traced_raw, traced_summary) == (raw, summary)
