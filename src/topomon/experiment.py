"""Run/sweep harness producing the CSV artifacts.

Two artifact kinds share one row format (`CSV_HEADER`):

* per-run detail written by `run_experiment`: one row per accuracy probe;
* sweep raw file written by `run_sweep`: one row per run, carrying the
  pooled counts over that run's probes and the time of the last probe.

The sweep summary file aggregates each (variability, malicious%) cell over
its repeats and reports precision/recall as percentages with one decimal.
Every value in every file is a pure function of (config, seed), so repeated
invocations produce byte-identical output.
"""
from __future__ import annotations

import itertools
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
    # 10.0 -> "10", 2.5 -> "2.5"; keeps rows stable and greppable
    return str(int(x)) if float(x) == int(x) else repr(float(x))


def _ratio(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def _pct(x: float | None) -> str:
    return "" if x is None else f"{100.0 * x:.1f}"


def pooled(samples: Iterable[ProbeSample]) -> ConfusionCounts:
    total = ConfusionCounts(0, 0, 0)
    for s in samples:
        total = total + ConfusionCounts(s.tp, s.fp, s.fn)
    return total


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    samples: tuple[ProbeSample, ...]
    totals: ConfusionCounts

    @property
    def precision(self) -> float | None:
        return precision(self.totals)

    @property
    def recall(self) -> float | None:
        return recall(self.totals)


def _row(cfg: ExperimentConfig, time_ms: int, c: ConfusionCounts) -> str:
    return ",".join(
        (
            _num(cfg.variability_s),
            _num(100.0 * cfg.malicious_pct),
            str(cfg.seed),
            str(time_ms),
            str(c.tp),
            str(c.fp),
            str(c.fn),
            _ratio(precision(c)),
            _ratio(recall(c)),
        )
    )


def run_experiment(
    cfg: ExperimentConfig,
    *,
    raw: IO[str] | None = None,
    trace: IO[str] | None = None,
    snapshots: IO[str] | None = None,
) -> RunReport:
    """Simulate one configuration and optionally stream its artifacts."""
    world = World(cfg, trace_sink=trace, snapshot_sink=snapshots)
    samples = world.run()
    if raw is not None:
        raw.write(CSV_HEADER + "\n")
        for s in samples:
            raw.write(_row(cfg, s.time_ms, ConfusionCounts(s.tp, s.fp, s.fn)) + "\n")
    return RunReport(cfg, tuple(samples), pooled(samples))


@dataclass(frozen=True)
class CellSummary:
    variability_s: float
    malicious_pct: float
    totals: ConfusionCounts
    runs: int

    @property
    def precision(self) -> float | None:
        return precision(self.totals)

    @property
    def recall(self) -> float | None:
        return recall(self.totals)


@dataclass
class SweepReport:
    cells: list[CellSummary] = field(default_factory=list)
    runs: list[RunReport] = field(default_factory=list)
    failures: list[tuple[ExperimentConfig, Exception]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@contextmanager
def process_pool(fn: Callable, items: Sequence) -> Iterator[list]:
    """Yield one handle per item, in item order, from a fresh pool with one
    worker per available core; `items` must not be empty. A handle's
    `result()` returns `fn(item)` or raises what that call raised. Items go
    out in chunks of consecutive items, about 64 chunks per worker, so short
    calls share the pool's per-call cost; up to 64 items per worker go one
    per chunk. If the block raises, the chunks not yet started are dropped.
    No worker process outlives the block."""
    import concurrent.futures  # imported here: ~2 MB that only pools need

    workers = min(len(os.sched_getaffinity(0)), len(items))
    size = -(-len(items) // (64 * workers))
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    with concurrent.futures.ProcessPoolExecutor(workers) as pool:
        try:
            futures = [pool.submit(_run_chunk, fn, chunk) for chunk in chunks]
            yield [_Handle(f, k) for f, chunk in zip(futures, chunks) for k in range(len(chunk))]
        except BaseException:
            pool.shutdown(cancel_futures=True)  # `with` then joins the calls in flight
            raise


def _run_chunk(fn: Callable, chunk: Sequence) -> list[tuple[object, str | None]]:
    """`(fn(item), None)` per item, or `(what it raised, its traceback)`."""
    out = []
    for item in chunk:
        try:
            out.append((fn(item), None))
        except Exception as exc:  # the item's failure, not the chunk's
            import traceback  # imported here: only a failed call needs it

            out.append((exc, "".join(traceback.format_exception(exc))))
    return out


@dataclass(frozen=True)
class _Handle:
    """One item's result within its chunk's future."""

    future: concurrent.futures.Future
    k: int

    def result(self):
        value, worker_traceback = self.future.result()[self.k]
        if worker_traceback is None:
            return value
        raise value from Exception(worker_traceback)  # as a pool shows a call's failure


def _run_one(cfg: ExperimentConfig) -> RunReport:
    # The pool's entry point. It is module-level so that it pickles by name,
    # and it looks `run_experiment` up at call time, so a wrapper set on the
    # module before the pool forks (bench/tracer.py sets one) still runs.
    return run_experiment(cfg)


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
    recorded under `failures` and the sweep moves on.

    The runs are independent, so they are all submitted at once through
    `process_pool`; results are read back in grid order, so every report
    field, file byte and `progress` message is the same as one core would
    give. When this call returns or raises, no worker process is left.
    """
    from concurrent.futures import BrokenExecutor  # lazy, as in `process_pool`

    if repeats < 1 or not variabilities or not percentages:
        raise EmptySweep(
            f"{len(variabilities)} variabilities x {len(percentages)} "
            f"percentages x {repeats} repeats"
        )
    base = base or ExperimentConfig()
    cells = [(var, pct) for var in variabilities for pct in percentages]
    configs = [
        replace(base, variability_s=var, malicious_pct=pct / 100.0, seed=base.seed + i)
        for var, pct in cells
        for i in range(repeats)
    ]
    report = SweepReport()
    if raw is not None:
        raw.write(CSV_HEADER + "\n")
    with process_pool(_run_one, configs) as futures:
        pending = zip(configs, futures)
        for var, pct in cells:
            cell = ConfusionCounts(0, 0, 0)
            done = 0
            for cfg, future in itertools.islice(pending, repeats):
                if progress is not None:
                    progress(f"var={_num(var)} mal={_num(pct)}% seed={cfg.seed}")
                try:
                    run = future.result()
                except BrokenExecutor:
                    raise  # the pool itself failed, not this run
                except Exception as exc:  # keep sweeping, report at the end
                    report.failures.append((cfg, exc))
                    continue
                report.runs.append(run)
                done += 1
                cell = cell + run.totals
                if raw is not None:
                    last = run.samples[-1].time_ms if run.samples else 0
                    raw.write(_row(cfg, last, run.totals) + "\n")
            report.cells.append(CellSummary(var, pct, cell, done))
    if summary is not None:
        summary.write(SUMMARY_HEADER + "\n")
        for c in report.cells:
            cols = (_num(c.variability_s), _num(c.malicious_pct), _pct(c.precision), _pct(c.recall))
            summary.write(",".join(cols) + "\n")
    return report
