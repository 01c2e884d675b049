"""The paired A/B tool: its summary, its peak-RSS report, its mismatch check,
and its refusal to time a `topomon` imported from another tree."""
from __future__ import annotations

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "paired_bench.py"

_spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def result(setup: float, cpu: float, wall: float, events: int = 10, probes=((5, 1, 0, 0),),
           maxrss_kb: int = 20480):
    return {"setup_cpu_s": setup, "run_cpu_s": cpu, "run_wall_s": wall,
            "maxrss_kb": maxrss_kb, "events": events, "probes": [list(p) for p in probes]}


def test_summary_is_the_geomean_of_b_over_a_and_counts_faster_pairs():
    pairs = [
        (0, 0, result(1.0, 2.0, 2.0), result(1.0, 1.0, 4.0)),
        (0, 1, result(0.0, 1.0, 1.0), result(1.0, 2.0, 0.5)),
    ]
    s = paired_bench.summarize(pairs)
    assert math.isclose(s["run_cpu_s"]["geomean_ratio"], 1.0)
    assert s["run_cpu_s"]["faster_on_b"] == 1 and s["run_cpu_s"]["pairs"] == 2
    assert math.isclose(s["run_wall_s"]["geomean_ratio"], 1.0)
    # a zero time has no ratio: it is left out, not counted as faster
    assert s["setup_cpu_s"] == {"geomean_ratio": 1.0, "faster_on_b": 0, "pairs": 1}
    assert paired_bench.mismatches(pairs) == []


def test_peak_rss_is_each_sides_largest_reading_in_mb():
    pairs = [
        (0, 0, result(1, 1, 1, maxrss_kb=30720), result(1, 1, 1, maxrss_kb=25600)),
        (0, 1, result(1, 1, 1, maxrss_kb=20480), result(1, 1, 1, maxrss_kb=28672)),
    ]
    assert paired_bench.peak_rss(pairs) == {"a": 30.0, "b": 28.0, "ratio": 28.0 / 30.0}


def test_servers_report_their_peak_rss_with_every_world():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--a", str(ROOT), "--b", str(ROOT),
         "--workload", "scale_static", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    *lines, last = out.stdout.splitlines()
    rss = json.loads(last)["peak_rss_mb"]
    assert rss["a"] > 0 and rss["b"] > 0 and rss["ratio"] == rss["b"] / rss["a"]
    assert f"peak RSS     a {rss['a']:.2f} MB  b {rss['b']:.2f} MB  b/a {rss['ratio']:.3f}" in lines


def test_differing_events_or_probes_are_mismatches():
    a = result(1.0, 1.0, 1.0)
    pairs = [
        (0, 0, a, result(1.0, 1.0, 1.0, events=11)),
        (0, 1, a, result(1.0, 1.0, 1.0, probes=((5, 0, 1, 0),))),
        (1, 0, a, result(2.0, 2.0, 2.0)),
    ]
    assert paired_bench.mismatches(pairs) == [
        "round 0 world 0: events 10 vs 11",
        "round 0 world 1: events 10 vs 10, probe samples differ",
    ]


def test_a_topomon_from_another_tree_is_refused(tmp_path):
    # a checkout without src/: importing its bench/run.py would silently
    # time whichever topomon was already imported
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("traces"))
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import topomon; "
        f"sys.argv = ['paired_bench', '--serve', {str(tmp_path)!r}, '--workload', 'scale_static']; "
        f"import runpy; runpy.run_path({str(TOOL)!r}, run_name='__main__')"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, input="")
    assert out.returncode == 1
    assert f"not inside {tmp_path.resolve()}" in out.stderr
    assert out.stdout == ""
