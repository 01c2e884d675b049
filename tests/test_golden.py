"""Golden outputs: sha256 of the artifacts of a few fixed configs.

Criterion 8 proves that a run reproduces within one process; these hashes
prove that a change to the code left every byte of the trace, snapshot dump
and CSVs as it was. A hash here changes only with an intended behaviour
change, and then it is re-pinned in the same change that explains why.
"""
from __future__ import annotations

import hashlib
import io

import pytest

from topomon.experiment import run_experiment, run_sweep
from topomon.simulation import ExperimentConfig


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


RUNS = {
    "static": (
        ExperimentConfig(
            nodes=40, variability_s=0.0, duration_ms=60_000, probe_every_ms=10_000, seed=3
        ),
        {
            "trace": "f85d811885d6ce28941f55d8d64b76c7aaf0039a55ff714250fbda88ccaa2785",
            "snapshots": "24eb159d681be703be2413540f2961778725e1f67c27089bc2cff9974c309f5b",
            "raw": "5894715caa08726a622f996715a9902b750dc350d28d25d769bb5a47c1d34b36",
        },
    ),
    # churn every second and 30% colluders: joins, leaves with repair scans,
    # fabricated relays, reputation disconnects and refills all appear
    "churn_collusion": (
        ExperimentConfig(
            nodes=40,
            variability_s=1.0,
            malicious_pct=0.3,
            duration_ms=60_000,
            probe_every_ms=10_000,
            seed=5,
        ),
        {
            "trace": "39e5264c93b188827d26c14d497f0dbbfb693322d005452f3e5d37daf2a5d596",
            "snapshots": "3b6a50745a3a09d3bb4e551ec7129b1a23c5ce7471316409db34ee8106270a0d",
            "raw": "6905118752f65862ea9b9e9e654c9145e7e510a3cf6fee278efab9cf550cce07",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_artifacts_match_golden_hashes(name):
    cfg, want = RUNS[name]
    sinks = {k: io.StringIO() for k in want}
    run_experiment(cfg, **sinks)
    assert {k: sha256(s.getvalue()) for k, s in sinks.items()} == want


def test_sweep_csvs_match_golden_hashes():
    raw, summary = io.StringIO(), io.StringIO()
    base = ExperimentConfig(nodes=30, duration_ms=60_000, probe_every_ms=10_000, seed=11)
    report = run_sweep((2.0,), (0.0, 30.0), 1, base=base, raw=raw, summary=summary)
    assert report.ok
    assert sha256(raw.getvalue()) == (
        "4210dccda026d69418c9e12dfc4beb512b64e91dc6e9bff1d78376a707f7b10c"
    )
    assert sha256(summary.getvalue()) == (
        "4ea30723c0917193ab468c421cd9825dbcb38d744e8fad8c570c66669930418a"
    )
