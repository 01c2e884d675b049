"""Run/sweep harness, and the one module that knows a run's artifact formats.

`TextArtifacts` writes the trace and snapshot dump from `World`'s observer
calls. Two CSV artifact kinds share one row format (`CSV_HEADER`):

* per-run detail written by `run_experiment`: one row per accuracy probe;
* sweep raw file written by `run_sweep`: one row per run, carrying the
  pooled counts over that run's probes and the time of the last probe.

The sweep summary file aggregates each (variability, malicious%) cell over
its repeats and reports precision/recall as percentages with one decimal.
Every value in every file is a pure function of (config, seed), so repeated
invocations produce byte-identical output.
"""
from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import IO, Callable, Iterable, Iterator, Sequence

from .metrics import ConfusionCounts, precision, recall
from .simulation import ExperimentConfig, ProbeSample, World

CSV_HEADER = "var_s,malicious_pct,seed,probe_time_ms,tp,fp,fn,precision,recall"
SUMMARY_HEADER = "var_s,malicious_pct,precision_pct,recall_pct"


class EmptySweep(ValueError):
    """Sweep grid or repeat count resolves to zero runs."""


def _num(x: float) -> str:
    # 10.0 -> "10", 2.5 -> "2.5", nan -> "nan"; keeps rows stable and greppable
    return str(int(x)) if math.isfinite(x) and x == int(x) else repr(float(x))


def _pct_num(fraction: float) -> str:
    # 0.07 -> "7": rounded first, since 100 * 0.07 is 7.000000000000001
    return _num(round(100 * fraction, 9))


def _ratio(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def _pct(x: float | None) -> str:
    return "" if x is None else f"{100.0 * x:.1f}"


def pooled(samples: Iterable[ProbeSample]) -> ConfusionCounts:
    return sum(samples, ConfusionCounts(0, 0, 0))


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    samples: tuple[ProbeSample, ...]
    totals: ConfusionCounts


def _row(cfg: ExperimentConfig, time_ms: int, c: ConfusionCounts) -> str:
    cols = (_num(cfg.variability_s), _pct_num(cfg.malicious_pct), str(cfg.seed),
            str(time_ms), str(c.tp), str(c.fp), str(c.fn),
            _ratio(precision(c)), _ratio(recall(c)))
    return ",".join(cols)


class TextArtifacts:
    """A `World` observer that writes whichever of its two text sinks it has.

    `World` calls it as `observer(now, kind, frm, to, data)`. A trace line is
    `time_ms  kind  from  to  detail`, tab-separated. Per kind, the `data`
    passed and the line's detail field:

    * join, leave: the `NodeAdded` or `NodeRemoved` event (`to` None,
      written `-`); its role's value;
    * edge_open, edge_close, refill: None; empty;
    * disconnect: the closed `(a, b)` edge; `edge=a>b`;
    * marker_from_monitor, marker_forwarded: the `Marker`; `target:value`;
    * marker_to_monitor: `(Marker, accepted)`; `target:value:accepted`, 1 or 0;
    * verified: the `VerifiedMsg`; its peer ids, ascending, comma-separated;
    * probe (`frm`, `to` None): `(monitors by id, GlobalSnapshot)`; no trace
      line, but snapshot lines `time_ms  m<id>  edges` per monitor in id
      order, then `time_ms  global  edges`, each edge an `a>b`, sorted.
    """

    def __init__(self, trace: IO[str] | None = None, snapshots: IO[str] | None = None) -> None:
        self.trace, self.snapshots = trace, snapshots

    def __call__(self, now: int, kind: str, frm, to, data) -> None:
        if kind == "probe":
            if self.snapshots is not None:
                views = [(f"m{mid}", mon.edges) for mid, mon in data[0].items()]
                for tag, edges in views + [("global", data[1].edges)]:
                    pairs = ",".join(f"{a}>{b}" for a, b in sorted(edges))
                    self.snapshots.write(f"{now}\t{tag}\t{pairs}\n")
        elif self.trace is not None:
            if kind == "marker_to_monitor":
                detail = f"{data[0].target}:{data[0].value}:{int(data[1])}"
            elif kind == "verified":
                detail = ",".join(map(str, data.verified_peers))
            elif kind == "disconnect":
                detail = f"edge={data[0]}>{data[1]}"
            elif kind in ("marker_from_monitor", "marker_forwarded"):
                detail = f"{data.target}:{data.value}"
            else:  # a join or leave carries its event; the rest carry None
                detail = "" if data is None else data.role.value
            self.trace.write(f"{now}\t{kind}\t{frm}\t{'-' if to is None else to}\t{detail}\n")


def run_experiment(
    cfg: ExperimentConfig,
    *,
    raw: IO[str] | None = None,
    trace: IO[str] | None = None,
    snapshots: IO[str] | None = None,
) -> RunReport:
    """Simulate one configuration and optionally stream its artifacts."""
    text = trace is not None or snapshots is not None
    samples = World(cfg, TextArtifacts(trace, snapshots) if text else None).run()
    if raw is not None:
        raw.write(CSV_HEADER + "\n")
        for s in samples:
            raw.write(_row(cfg, s.time_ms, s) + "\n")
    return RunReport(cfg, tuple(samples), pooled(samples))


@dataclass(frozen=True)
class CellSummary:
    variability_s: float
    malicious_pct: float
    totals: ConfusionCounts
    runs: int


@dataclass
class SweepReport:
    cells: list[CellSummary] = field(default_factory=list)
    runs: list[RunReport] = field(default_factory=list)
    failures: list[tuple[ExperimentConfig, Exception]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@contextmanager
def process_pool(fn: Callable, items: Sequence) -> Iterator[Iterator]:
    """Yield `Executor.map(fn, items)`, in item order, from a fresh pool with
    one worker per available core; `items` must not be empty. A call that
    raises reaches the reader with the worker's traceback as `__cause__`.
    Chunks hold ceil(len(items) / (64 * workers)) items, so many short calls
    share the pool's per-call cost. If the block raises, the chunks not yet
    started are dropped. No worker process outlives the block."""
    import concurrent.futures  # imported here: ~2 MB that only pools need

    affinity = getattr(os, "sched_getaffinity", None)  # missing on macOS and Windows
    workers = min(len(affinity(0)) if affinity else os.cpu_count() or 1, len(items))
    with concurrent.futures.ProcessPoolExecutor(workers) as pool:
        try:
            yield pool.map(fn, items, chunksize=-(-len(items) // (64 * workers)))
        except BaseException:
            pool.shutdown(cancel_futures=True)  # `with` then joins the calls in flight
            raise


def _run_one(cfg: ExperimentConfig) -> tuple[RunReport, None] | tuple[Exception, str]:
    # The sweep's pool entry point, module-level so it pickles by name:
    # `(report, None)`, or what the run raised and its traceback text, so a
    # failed run loses no other run of its chunk. It reads `run_experiment`
    # at call time, so a wrapper set before the fork (bench/tracer.py) runs.
    try:
        return run_experiment(cfg), None
    except Exception as exc:  # the run's failure, not the pool's
        import traceback  # imported here: only a failed run needs it

        return exc, "".join(traceback.format_exception(exc))


def sweep_grid(
    variabilities: Sequence[float],
    percentages: Sequence[float],
    repeats: int,
    base: ExperimentConfig | None = None,
) -> list[tuple[tuple[float, float], list[ExperimentConfig]]]:
    """Each `(variability, malicious%)` cell of the sweep in grid order, with
    its `repeats` configs, seeded `base.seed + run_index`. Raises `EmptySweep`
    when that makes no runs."""
    if repeats < 1 or not variabilities or not percentages:
        raise EmptySweep(
            f"{len(variabilities)} variabilities x {len(percentages)} "
            f"percentages x {repeats} repeats"
        )
    base = base or ExperimentConfig()
    return [
        ((var, pct), [replace(base, variability_s=var, malicious_pct=pct / 100.0,
                              seed=base.seed + i) for i in range(repeats)])
        for var in variabilities
        for pct in percentages
    ]


def run_sweep(
    variabilities: Sequence[float],
    percentages: Sequence[float],
    repeats: int,
    *,
    base: ExperimentConfig | None = None,
    raw: IO[str] | None = None,
    summary: IO[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> SweepReport:
    """Full grid of (variability x malicious%) cells, `repeats` runs each.

    Seeds are `base.seed + run_index` within each cell so any single run can
    be reproduced from the sweep invocation alone.  A run that raises is
    recorded under `failures`, with its worker's traceback text as the
    exception's `__cause__`, and the sweep moves on; only a broken pool
    raises out of the sweep.

    The runs are independent, so they are all submitted at once through
    `process_pool`; results are read back in grid order, so every report
    field, file byte and `progress` message is the same as one core would
    give. When this call returns or raises, no worker process is left.
    """
    grid = sweep_grid(variabilities, percentages, repeats, base)
    configs = [cfg for _, cell_configs in grid for cfg in cell_configs]
    report = SweepReport()
    if raw is not None:
        raw.write(CSV_HEADER + "\n")
    with process_pool(_run_one, configs) as results:
        for (var, pct), cell_configs in grid:
            cell = ConfusionCounts(0, 0, 0)
            first = len(report.runs)
            for cfg in cell_configs:
                if progress is not None:
                    progress(f"var={_num(var)} mal={_num(pct)}% seed={cfg.seed}")
                run, worker_traceback = next(results)
                if worker_traceback is not None:  # `run` is what it raised
                    run.__cause__ = Exception(worker_traceback)  # as a pool shows it
                    report.failures.append((cfg, run))  # keep sweeping, report at the end
                    continue
                report.runs.append(run)
                cell = cell + run.totals
                if raw is not None:
                    last = run.samples[-1].time_ms if run.samples else 0
                    raw.write(_row(cfg, last, run.totals) + "\n")
            report.cells.append(CellSummary(var, pct, cell, len(report.runs) - first))
    if summary is not None:
        summary.write(SUMMARY_HEADER + "\n")
        for c in report.cells:
            cols = (_num(c.variability_s), _num(c.malicious_pct),
                    _pct(precision(c.totals)), _pct(recall(c.totals)))
            summary.write(",".join(cols) + "\n")
    return report
