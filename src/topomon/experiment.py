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
    return sum(samples, ConfusionCounts(0, 0, 0))


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    samples: tuple[ProbeSample, ...]
    totals: ConfusionCounts


def _row(cfg: ExperimentConfig, time_ms: int, c: ConfusionCounts) -> str:
    cols = (_num(cfg.variability_s), _num(100.0 * cfg.malicious_pct), str(cfg.seed),
            str(time_ms), str(c.tp), str(c.fp), str(c.fn),
            _ratio(precision(c)), _ratio(recall(c)))
    return ",".join(cols)


class TextArtifacts:
    """A `World` observer that writes whichever of its two text sinks it has.

    `World` calls it as `observer(now, kind, frm, to, data)`. A trace line is
    `time_ms  kind  from  to  detail`, tab-separated. Per kind, the `data`
    passed and the line's detail field:

    * join, leave: the `Role` (`to` None, written `-`); the role's value;
    * edge_open, edge_close, refill: None; empty;
    * disconnect: the closed `(a, b)` edge; `edge=a>b`;
    * marker_from_monitor, marker_forwarded: the `Marker`; `target:value`;
    * marker_to_monitor: `(Marker, accepted)`; `target:value:accepted`, 1 or 0;
    * verified: the `VerifiedMsg`; its peer ids, sorted, comma-separated;
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
                detail = ",".join(str(p) for p in sorted(data.verified_peers))
            elif kind == "disconnect":
                detail = f"edge={data[0]}>{data[1]}"
            elif kind in ("marker_from_monitor", "marker_forwarded"):
                detail = f"{data.target}:{data.value}"
            else:  # a join or leave carries its role; the rest carry None
                detail = "" if data is None else data.value
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
    world = World(cfg, TextArtifacts(trace, snapshots) if text else None)
    samples = world.run()
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
def process_pool(fn: Callable, items: Sequence) -> Iterator[list]:
    """Yield one handle per item, in item order, from a fresh pool with one
    worker per available core; `items` must not be empty. A handle's
    `result()` returns `fn(item)` or raises what that call raised. Items go
    out in chunks of consecutive items, about 64 chunks per worker, so short
    calls share the pool's per-call cost; up to 64 items per worker go one
    per chunk. If the block raises, the chunks not yet started are dropped.
    No worker process outlives the block."""
    import concurrent.futures  # imported here: ~2 MB that only pools need

    affinity = getattr(os, "sched_getaffinity", None)  # missing on macOS and Windows
    workers = min(len(affinity(0)) if affinity else os.cpu_count() or 1, len(items))
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
    recorded under `failures` and the sweep moves on.

    The runs are independent, so they are all submitted at once through
    `process_pool`; results are read back in grid order, so every report
    field, file byte and `progress` message is the same as one core would
    give. When this call returns or raises, no worker process is left.
    """
    from concurrent.futures import BrokenExecutor  # lazy, as in `process_pool`

    grid = sweep_grid(variabilities, percentages, repeats, base)
    configs = [cfg for _, cell_configs in grid for cfg in cell_configs]
    report = SweepReport()
    if raw is not None:
        raw.write(CSV_HEADER + "\n")
    with process_pool(_run_one, configs) as futures:
        pending = iter(futures)
        for (var, pct), cell_configs in grid:
            cell = ConfusionCounts(0, 0, 0)
            done = 0
            for cfg, future in zip(cell_configs, pending):
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
            cols = (_num(c.variability_s), _num(c.malicious_pct),
                    _pct(precision(c.totals)), _pct(recall(c.totals)))
            summary.write(",".join(cols) + "\n")
    return report
