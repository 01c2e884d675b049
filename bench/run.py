"""topomon benchmark: host time of seeded simulations, with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload scale_static --seed 1 --seconds 36 --trace 0

One run runs the workload's units (one World each, or one run_sweep call)
round-robin on the same seed until `--seconds` is used up, and reports the
medians of their set-up (`setup_s`) and run (`wall_s`) times. Each run of a
unit is one operation; it fails if it raises, if the ground truth fails
`Topology.audit()`, if a monitor's view holds a departed node, if the sweep
records failures, or if its output digest differs from the unit's first
run. With `--trace 1` the units run untraced for half the budget and then
once each under `tracer.Tracer`, and the per-layer numbers are reported
instead; the traced runs must produce the same digests.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
the same numbers for people, with sample counts, quartiles and the digest.
The exit code is 1 when any check failed.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import itertools
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))
try:
    from topomon import experiment
    from topomon.metrics import ConfusionCounts, precision, recall
    from topomon.simulation import ExperimentConfig, World
except ImportError as exc:
    sys.exit(f"bench: cannot import topomon from {SRC}: {exc}")

from tracer import EVENT_KINDS, Tracer  # noqa: E402  (needs topomon on the path)

DEFAULT_SEED = 1

SWEEP_VARIABILITIES = (10.0, 1.0)
SWEEP_PERCENTAGES = (0.0, 40.0)


def sweep_base(seed: int) -> ExperimentConfig:
    return ExperimentConfig(seed=seed, duration_ms=300_000)


def sweep_cells(seed: int) -> list[ExperimentConfig]:
    """The configs run_sweep derives from sweep_base with repeats=1."""
    return [
        replace(sweep_base(seed), variability_s=v, malicious_pct=p / 100.0)
        for v in SWEEP_VARIABILITIES
        for p in SWEEP_PERCENTAGES
    ]


def scale_static(seed: int) -> list[ExperimentConfig]:
    return [
        ExperimentConfig(
            nodes=500,
            monitors=4,
            variability_s=0.0,
            malicious_pct=0.0,
            duration_ms=20_000,
            probe_every_ms=5_000,
            seed=seed,
        )
    ]


def churn_collusion(seed: int) -> list[ExperimentConfig]:
    # Accuracy and event count depend on where the colluders land, which
    # differs from seed to seed and does not average out over a longer run;
    # pooling sixteen short independent worlds per seed keeps seeds comparable.
    return [
        ExperimentConfig(
            nodes=100,
            variability_s=0.5,
            malicious_pct=0.4,
            duration_ms=30_000,
            probe_every_ms=10_000,
            seed=1000 * seed + k,
        )
        for k in range(16)
    ]


# -- units of work ------------------------------------------------------------------
# A unit is one World (construction plus run) or one run_sweep call. Units
# are timed one at a time and round-robin, so that a run holds many short
# samples: on a shared 2-vCPU VM the host's speed shifts every few seconds
# by up to a third, and a median over many short samples follows it less
# than one over a few long ones. Set-up is timed inside every unit run for
# the same reason.


@dataclass
class Rep:
    setup_s: float = 0.0  # World construction (the sweep: its cells' Worlds)
    wall_s: float = 0.0  # World.run() (the sweep: run_sweep)
    total_s: float = 0.0  # the traced region: construction plus run (the sweep: run_sweep)
    totals: ConfusionCounts = ConfusionCounts(0, 0, 0)
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def run_world(cfg: ExperimentConfig) -> Rep:
    t0 = time.perf_counter()
    world = World(cfg)
    t1 = time.perf_counter()
    samples = world.run()
    t2 = time.perf_counter()
    rep = Rep(t1 - t0, t2 - t1, t2 - t0, experiment.pooled(samples))
    rep.problems += world.topo.audit()
    live = set(world.topo.peers_alive())
    for mid, mon in sorted(world.monitors.items()):
        stray = sorted(mon.nodes - live)
        if stray:
            rep.problems.append(f"monitor {mid} still views departed nodes {stray[:5]}")
    if not samples:
        rep.problems.append("no accuracy probes")
    h = hashlib.sha256()
    for s in samples:
        h.update(f"{s.time_ms},{s.tp},{s.fp},{s.fn}\n".encode())
    h.update(f"events={world.engine.events_processed}\n".encode())
    rep.digest = h.hexdigest()
    return rep


def run_sweep(seed: int, time_setup: bool) -> Rep:
    """run_sweep builds its Worlds where they cannot be timed apart from the
    runs, so with `time_setup` the cells' Worlds are first built (and
    dropped) here to time set-up."""
    t0 = time.perf_counter()
    if time_setup:
        for cfg in sweep_cells(seed):
            World(cfg)
    raw, summary = io.StringIO(), io.StringIO()
    t1 = time.perf_counter()
    report = experiment.run_sweep(
        SWEEP_VARIABILITIES, SWEEP_PERCENTAGES, 1, base=sweep_base(seed), raw=raw, summary=summary
    )
    t2 = time.perf_counter()
    runs = report.runs
    rep = Rep(t1 - t0, t2 - t1, t2 - t1, experiment.pooled(s for r in runs for s in r.samples))
    rep.problems += [f"run seed={cfg.seed} failed: {exc!r}" for cfg, exc in report.failures]
    want = len(SWEEP_VARIABILITIES) * len(SWEEP_PERCENTAGES)
    if len(runs) != want:
        rep.problems.append(f"sweep finished {len(runs)} of {want} runs")
    rep.digest = hashlib.sha256(
        (raw.getvalue() + "--\n" + summary.getvalue()).encode()
    ).hexdigest()
    return rep


Units = dict[str, Callable[[], Rep]]


def sweep_units(seed: int, traced: bool) -> Units:
    # the extra set-up builds would show in the trace as a second bootstrap
    return {f"sweep seed={seed}": partial(run_sweep, seed, time_setup=not traced)}


def world_units(configs: Callable[[int], list[ExperimentConfig]]):
    def make(seed: int, traced: bool) -> Units:
        return {f"world seed={cfg.seed}": partial(run_world, cfg) for cfg in configs(seed)}

    return make


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS: dict[str, Callable[[int, bool], Units]] = {
    "paper_sweep": sweep_units,
    "scale_static": world_units(scale_static),
    "churn_collusion": world_units(churn_collusion),
}


def run_once(unit: Callable[[], Rep]) -> Rep:
    gc.collect()
    try:
        return unit()
    except Exception as exc:  # a failed operation is counted, not fatal
        return Rep(problems=[f"raised {exc!r}"])


class Checker:
    """Counts operations and failures. A unit's run also fails when its
    digest differs from the unit's first good run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    def check(self, unit: str, rep: Rep) -> bool:
        self.attempted += 1
        problems = list(rep.problems)
        if not problems and (precision(rep.totals) is None or recall(rep.totals) is None):
            problems.append(f"precision or recall undefined for {rep.totals}")
        if not problems:
            first = self.digests.setdefault(unit, rep.digest)
            if rep.digest != first:
                problems.append(f"digest {rep.digest[:16]} != first run's {first[:16]}")
        if problems:
            self.failed += 1
            self.problems += [f"{unit}: {p}" for p in problems]
        return not problems

    def digest(self) -> str:
        """One digest over every unit's, in run order."""
        return hashlib.sha256("\n".join(self.digests.values()).encode()).hexdigest()


def repeat_until(todo: Units, deadline: float, checker: Checker) -> dict[str, list[Rep]]:
    """Run the units round-robin while the next run is expected to end by
    `deadline`, each unit at least once; return each unit's good runs."""
    good: dict[str, list[Rep]] = {u: [] for u in todo}
    took: dict[str, list[float]] = {u: [] for u in todo}
    for unit in itertools.cycle(todo):
        if took[unit] and time.perf_counter() + statistics.median(took[unit]) > deadline:
            return good
        t0 = time.perf_counter()
        rep = run_once(todo[unit])
        took[unit].append(time.perf_counter() - t0)
        if checker.check(unit, rep):
            good[unit].append(rep)


def median_sum(good: dict[str, list[Rep]], attr: str) -> float:
    """Sum over units of each unit's median."""
    return sum(statistics.median(getattr(r, attr) for r in reps) for reps in good.values())


# -- reporting --------------------------------------------------------------------


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def nearest_rank(sorted_xs: list[int], q: float) -> int:
    if not sorted_xs:
        return 0
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def end_to_end(good: dict[str, list[Rep]]) -> tuple[dict, list[str]]:
    totals = sum((reps[0].totals for reps in good.values()), ConfusionCounts(0, 0, 0))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (median_sum(good, "setup_s"), "s"),
        "wall_s": (median_sum(good, "wall_s"), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "precision": (precision(totals), "ratio"),
        "recall": (recall(totals), "ratio"),
    }

    def line(name: str, xs: list[float]) -> str:
        q1, q2, q3 = quartiles(xs)
        return f"{name:<36} {q2:.6f} s  median of {len(xs)}, quartiles {q1:.6f} .. {q3:.6f}"

    lines = []
    for attr in ("setup_s", "wall_s"):
        lines += [line(f"{attr} {u}", [getattr(r, attr) for r in reps]) for u, reps in good.items()]
        lines.append(f"{attr:<36} {metrics[attr][0]:.6f} s  sum of the medians above")
    lines.append(f"{'peak_rss_mb':<36} {rss_mb:.3f} MB")
    lines.append(
        f"{'precision':<36} {metrics['precision'][0]:.6f}  recall {metrics['recall'][0]:.6f}"
        f"  (tp={totals.tp} fp={totals.fp} fn={totals.fn}, same on every run)"
    )
    return metrics, lines


LAYERS = ("engine", "simulation", "monitor", "topology", "protocol", "adversary", "metrics", "experiment")
MONITOR_FUNCS = (
    "start_round",
    "receive_marker",
    "update_topology",
    "build_verified_message",
    "node_departed",
    "schedule_next_round",
    "compute_global_snapshot",
)
TOPOLOGY_FUNCS = ("add_node", "remove_node", "churn_tick", "eligible_targets", "peers_alive")


def per_layer(tr: Tracer, traced_s: float, good: dict[str, list[Rep]]) -> dict:
    n = tr.counts
    m: dict[str, tuple[float, str]] = {}

    def calls_self(name: str) -> None:
        calls, self_s = tr.stat(name)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (self_s, "s")

    events, scheduled = n["engine.events"], n["engine.schedule.calls"]
    m["engine.events"] = (events, "count")
    m["engine.schedule.calls"] = (scheduled, "count")
    m["engine.useful_ratio"] = (events / scheduled if scheduled else 0.0, "ratio")
    m["engine.dispatch.self_s"] = (tr.stat("engine.run_until")[1], "s")
    untraced_wall = median_sum(good, "wall_s")
    m["engine.us_per_event"] = (untraced_wall * 1e6 / events if events else 0.0, "us")
    for kind in EVENT_KINDS:
        name = f"simulation.{kind}"
        calls_self(name)
        durs = sorted(tr.durations_ns(name))
        m[f"{name}.p50_us"] = (nearest_rank(durs, 0.50) / 1e3, "us")
        m[f"{name}.p99_us"] = (nearest_rank(durs, 0.99) / 1e3, "us")
    for fn in MONITOR_FUNCS:
        calls_self(f"monitor.{fn}")
    received = tr.stat("monitor.receive_marker")[0]
    accepted = n["monitor.receive_marker.accepted"]
    m["monitor.receive_marker.accept_ratio"] = (accepted / received if received else 0.0, "ratio")
    probes = n["monitor.view_edges.samples"]
    m["monitor.view_edges"] = (n["monitor.view_edges.sum"] / probes if probes else 0.0, "count")
    for fn in TOPOLOGY_FUNCS:
        calls_self(f"topology.{fn}")
    calls_self("protocol.handle_marker")
    calls_self("protocol.handle_verified")
    m["protocol.disconnects"] = (n["protocol.disconnects"], "count")
    calls_self("adversary.handle_marker")
    m["adversary.fabricated_relays"] = (n["adversary.fabricated_relays"], "count")
    calls_self("metrics.classify_edges")
    calls_self("metrics.ledger.count")
    calls_self("experiment.run_sweep")
    calls_self("experiment.run_experiment")
    by_layer = tr.self_s_by_layer()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (by_layer.get(layer, 0.0), "s")
    m["trace.wall_s"] = (traced_s, "s")
    m["trace.uncovered_s"] = (traced_s - sum(by_layer.values()), "s")
    m["trace.overhead_s"] = (traced_s - median_sum(good, "total_s"), "s")
    return m


def traced_pass(todo: Units, checker: Checker) -> tuple[Tracer, float]:
    """Run every unit once under the tracer; return it and the traced time."""
    tracer = Tracer()
    traced_s = 0.0
    with tracer.install():
        for run_id, (unit, run) in enumerate(todo.items()):
            tracer.run_id = run_id
            rep = run_once(run)
            traced_s += rep.total_s
            checker.check(unit, rep)  # held to the untraced runs' digest
    return tracer, traced_s


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    name, units = args.workload, WORKLOADS[args.workload]
    start = time.perf_counter()
    checker = Checker()

    if args.trace:
        # untraced runs for the overhead baseline, then one traced pass
        good = repeat_until(units(args.seed, False), start + args.seconds / 2, checker)
        tracer, traced_s = traced_pass(units(args.seed, True), checker)
        spans = BENCH_DIR / "traces" / f"{name}.spans"
        tracer.write(spans, {"workload": name, "seed": args.seed})
        lines = [f"spans: {len(tracer.cols['id'])} written to {spans.relative_to(BENCH_DIR.parent)}"]
        metrics = per_layer(tracer, traced_s, good) if all(good.values()) else {}
        lines += [f"{k:<44} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    else:
        good = repeat_until(units(args.seed, False), start + args.seconds, checker)
        metrics, lines = end_to_end(good) if all(good.values()) else ({}, [])

    correct = checker.failed == 0 and bool(metrics)
    print(f"workload {name}  seed {args.seed}  trace {args.trace}")
    print(f"digest   {checker.digest()}")
    for line in lines:
        print(line)
    print(f"operations attempted {checker.attempted}  failed {checker.failed}")
    for p in checker.problems:
        print(f"FAILED   {p}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
