"""CSV artifact shapes, seed derivation, and reproducibility."""
from __future__ import annotations

import io
import multiprocessing
import os
import subprocess
import sys

import pytest

from topomon import experiment
from topomon.experiment import (
    CSV_HEADER,
    SUMMARY_HEADER,
    EmptySweep,
    pooled,
    run_experiment,
    run_sweep,
)
from topomon.metrics import ConfusionCounts, precision, recall
from topomon.simulation import ConfigInvalid, ExperimentConfig


def tiny(**kw) -> ExperimentConfig:
    base = dict(
        nodes=10,
        monitors=2,
        variability_s=0.0,
        duration_ms=9_000,
        probe_every_ms=3_000,
        scheduling_mode="fixed",
        f_init=3,
        adaptive=False,
        seed=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_writes_header_and_one_row_per_probe():
    raw = io.StringIO()
    report = run_experiment(tiny(), raw=raw)
    lines = raw.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(report.samples) == 4
    first = lines[1].split(",")
    assert first[:4] == ["0", "0", "1", "3000"]
    assert first[7] == "1.000000"  # honest world: exact
    assert first[8] == "1.000000"


def test_pooled_counts_sum_probes():
    report = run_experiment(tiny())
    want = ConfusionCounts(0, 0, 0)
    for s in report.samples:
        want = want + ConfusionCounts(s.tp, s.fp, s.fn)
    assert report.totals == want == pooled(report.samples)
    assert precision(report.totals) == 1.0 and recall(report.totals) == 1.0


def test_sweep_shape_and_seed_derivation():
    raw, summary = io.StringIO(), io.StringIO()
    report = run_sweep(
        [10.0, 0.0], [0, 20], 2, base=tiny(seed=100), raw=raw, summary=summary
    )
    raw_lines = raw.getvalue().splitlines()
    assert raw_lines[0] == CSV_HEADER
    assert len(raw_lines) == 1 + 2 * 2 * 2  # vars x pcts x repeats, one row per run
    seeds = [int(ln.split(",")[2]) for ln in raw_lines[1:]]
    assert seeds == [100, 101] * 4
    assert [ln.split(",")[0] for ln in raw_lines[1:]] == ["10"] * 4 + ["0"] * 4
    sm = summary.getvalue().splitlines()
    assert sm[0] == SUMMARY_HEADER
    assert len(sm) == 1 + 4
    assert len(report.cells) == 4 and len(report.runs) == 8
    assert report.ok


def test_summary_reports_one_decimal_percentages():
    summary = io.StringIO()
    run_sweep([0.0], [0], 1, base=tiny(), summary=summary)
    row = summary.getvalue().splitlines()[1].split(",")
    assert row == ["0", "0", "100.0", "100.0"]


def test_sweep_is_byte_identical_across_invocations():
    def go():
        raw, summary = io.StringIO(), io.StringIO()
        run_sweep([0.0, 10.0], [0, 30], 2, base=tiny(), raw=raw, summary=summary)
        return raw.getvalue(), summary.getvalue()

    assert go() == go()


@pytest.mark.parametrize(
    "vars_,pcts,repeats",
    [([], [0], 1), ([1.0], [], 1), ([1.0], [0], 0)],
)
def test_degenerate_grids_are_rejected(vars_, pcts, repeats):
    with pytest.raises(EmptySweep):
        run_sweep(vars_, pcts, repeats)


def test_failed_runs_are_collected_not_raised():
    bad = tiny(probe_every_ms=10_000_000)  # fails validation inside World
    raw, summary = io.StringIO(), io.StringIO()
    report = run_sweep([0.0], [0], 2, base=bad, raw=raw, summary=summary)
    assert not report.ok
    assert len(report.failures) == 2 and report.runs == []
    assert report.cells[0].runs == 0
    assert len(raw.getvalue().splitlines()) == 1  # header only
    assert summary.getvalue().splitlines()[1] == "0,0,,"  # undefined ratios stay blank


def test_sweep_reports_in_grid_order_and_leaves_no_worker():
    seen = []
    report = run_sweep([10.0, 0.0], [0, 20], 2, base=tiny(seed=100), progress=seen.append)
    grid = [(v, p, s) for v in (10, 0) for p in (0, 20) for s in (100, 101)]
    assert seen == [f"var={v} mal={p}% seed={s}" for v, p, s in grid]
    assert [
        (r.config.variability_s, r.config.malicious_pct, r.config.seed) for r in report.runs
    ] == [(v, p / 100.0, s) for v, p, s in grid]
    assert report.runs[5].totals == run_experiment(report.runs[5].config).totals
    assert multiprocessing.active_children() == []


def test_sweep_runs_without_sched_getaffinity(monkeypatch):
    # macOS and Windows have no `os.sched_getaffinity`; the pool then sizes
    # itself from `os.cpu_count()`
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    report = run_sweep([0.0], [0], 2, base=tiny())
    assert report.ok and len(report.runs) == 2
    assert multiprocessing.active_children() == []


def test_failed_run_keeps_a_readable_exception_and_leaves_no_worker():
    bad = tiny(probe_every_ms=10_000_000)
    report = run_sweep([0.0], [0, 10], 1, base=bad)
    assert [cfg.seed for cfg, _ in report.failures] == [1, 1]
    want = ConfigInvalid(bad.validate())
    for _, exc in report.failures:
        assert type(exc) is ConfigInvalid
        assert repr(exc) == repr(want) and exc.problems == want.problems
        worker_traceback = str(exc.__cause__)  # where in the worker it was raised
        assert worker_traceback.startswith("Traceback (most recent call last):")
        assert "in _run_one" in worker_traceback and "raise ConfigInvalid(" in worker_traceback
    assert multiprocessing.active_children() == []


def _square(x: int) -> int:
    return x * x


def test_pool_returns_results_in_item_order_with_several_items_per_chunk():
    # more than 64 items per worker, so each chunk carries several items
    items = list(range(3 * 64 * (os.cpu_count() or 1) + 7))
    with experiment.process_pool(_square, items) as results:
        assert list(results) == [x * x for x in items]
    assert multiprocessing.active_children() == []


def _fails_on_7(x: int) -> int:
    if x == 7:
        raise KeyError(x)
    return x


def test_pool_call_that_raises_reaches_the_caller_and_leaves_no_worker():
    with pytest.raises(KeyError) as info:
        with experiment.process_pool(_fails_on_7, list(range(500))) as results:
            list(results)
    assert "in _fails_on_7" in str(info.value.__cause__)  # the worker's traceback
    assert multiprocessing.active_children() == []


def test_raising_progress_callback_reaches_caller_and_leaves_no_worker():
    seen = []

    def progress(msg: str) -> None:
        seen.append(msg)
        if len(seen) == 2:
            raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        run_sweep([0.0, 10.0], [0, 20], 3, base=tiny(), progress=progress)
    assert len(seen) == 2
    assert multiprocessing.active_children() == []


def _worker_dies(cfg):
    os._exit(3)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patch reaches only forked workers"
)
def test_dead_worker_breaks_the_sweep_and_leaves_no_worker(monkeypatch):
    # the workers fork after the patch, so each one exits on its first run;
    # that is a broken pool, not a failed run, and it reaches the caller
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setattr(experiment, "run_experiment", _worker_dies)
    with pytest.raises(BrokenProcessPool):
        run_sweep([0.0], [0, 20], 2, base=tiny())
    assert multiprocessing.active_children() == []


def test_importing_the_harness_loads_no_pool_machinery():
    # every run would pay the pool modules' resident memory; only
    # `process_pool` may import them, and only when it is called
    code = (
        "import sys, topomon.cli, topomon.experiment; "
        "print([m for m in sys.modules if m.startswith('concurrent')])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
