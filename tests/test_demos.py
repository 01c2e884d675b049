"""Every quick demo runs to completion against the current API."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# 05 is left out: it runs a full sweep (about 25 s) and only calls run_sweep,
# which the experiment tests cover.
DEMOS = [
    "01_single_round_walkthrough.py",
    "02_adaptive_scanning.py",
    "03_reputation_eviction.py",
    "04_colluding_adversaries.py",
    "06_error_window.py",
]


def run_demo(demo: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr


def test_walkthrough_round_takes_the_scan_period_from_5_to_3_s():
    # node 1's row goes from empty to {2, 3}: two changes, so f drops by two
    lines = run_demo("01_single_round_walkthrough.py").stdout.splitlines()
    assert "scan frequency for node 1: 5 s -> 3 s, next round in 3000 ms" in lines
