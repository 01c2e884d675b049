"""The benchmark's span tracer still fits the program it wraps.

`bench/tracer.py` patches `NodeState.handle_marker`/`handle_verified` and
`Adversary.handle_marker` by name, and reads `.state.id` of an adversary and
`.sender` of each record it returns. A traced run must produce the same
bytes as an untraced one.
"""
from __future__ import annotations

import io
import sys
from pathlib import Path

from topomon.simulation import ExperimentConfig, World

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracer import Tracer  # noqa: E402  (bench/ is not a package)


def trace_of(cfg: ExperimentConfig) -> str:
    sink = io.StringIO()
    World(cfg, trace_sink=sink).run()
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
