"""Acceptance gate: nine end-to-end criteria, one PASS/FAIL line each.

Run as a module (`python3 tests/test_acceptance.py`) for the bare report, or
under pytest where each criterion is its own test.  Tolerances are stated
inline next to each check.

Batches of worlds run in worker processes through `experiment.process_pool`.
Every trial is still drawn here, in order, from its criterion's fixed random
stream; a worker only rebuilds the world from those draws and runs it.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import replace
from io import StringIO

from topomon.adversary import SingleBehavior
from topomon.experiment import process_pool, run_experiment
from topomon.metrics import (
    ConfusionCounts,
    audit_overhead,
    expected_overhead,
    precision,
    recall,
)
from topomon.monitor import max_error_window
from topomon.protocol import NodeState, VerifiedMsg
from topomon.simulation import ExperimentConfig, World


def report(num: int, title: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {title}{tail}"
    print(line)
    assert ok, line


SEEDS = 5
_CELLS: dict[tuple[float, float], tuple[ConfusionCounts, float]] = {}


def _timed_run(cfg: ExperimentConfig) -> tuple[ConfusionCounts, float]:
    t0 = time.monotonic()
    totals = run_experiment(cfg).totals
    return totals, time.monotonic() - t0


def prefetch_cells(cells) -> None:
    """Run every seed of the cells not pooled yet through one process pool.

    Each run is timed inside its worker, so the time is that one run's."""
    todo = [c for c in dict.fromkeys(cells) if c not in _CELLS]
    configs = [
        ExperimentConfig(variability_s=var_s, malicious_pct=pct / 100.0, seed=seed)
        for var_s, pct in todo
        for seed in range(SEEDS)
    ]
    if not configs:
        return
    with process_pool(_timed_run, configs) as results:
        runs = list(results)
    for k, cell in enumerate(todo):
        mine = runs[k * SEEDS : (k + 1) * SEEDS]
        total = sum((counts for counts, _ in mine), ConfusionCounts(0, 0, 0))
        _CELLS[cell] = total, max(wall for _, wall in mine)


def pooled_cell(var_s: float, pct: float) -> tuple[ConfusionCounts, float]:
    """Pooled confusion counts of one (churn, malicious%) cell over seeds
    0..SEEDS-1, and the wall time of its slowest run."""
    prefetch_cells([(var_s, pct)])
    return _CELLS[(var_s, pct)]


def as_pct(x: float | None) -> float:
    return -1.0 if x is None else 100.0 * x


def test_criterion_1_honest_accuracy_under_churn():
    prefetch_cells([(var, 0.0) for var in (1.0, 5.0, 10.0)])
    worst_p, worst_r, slowest = 100.0, 100.0, 0.0
    for var in (1.0, 5.0, 10.0):
        cell, wall = pooled_cell(var, 0.0)
        worst_p = min(worst_p, as_pct(precision(cell)))
        worst_r = min(worst_r, as_pct(recall(cell)))
        slowest = max(slowest, wall)
    report(
        1,
        "precision/recall >= 99.0% with churn and no adversaries, each run < 10 s",
        worst_p >= 99.0 and worst_r >= 99.0 and slowest < 10.0,
        f"min precision {worst_p:.2f}%, min recall {worst_r:.2f}%, "
        f"slowest run {slowest:.1f}s",
    )


def test_criterion_2_adversarial_accuracy():
    grid = list(itertools.product((1.0, 5.0, 10.0), (30.0, 40.0, 50.0)))
    prefetch_cells([(10.0, 20.0), (10.0, 30.0), *grid])
    c20, _ = pooled_cell(10.0, 20.0)
    p20, r20 = as_pct(precision(c20)), as_pct(recall(c20))
    c30, _ = pooled_cell(10.0, 30.0)
    r30 = as_pct(recall(c30))
    trend = []
    for var, pct in grid:
        cell, _ = pooled_cell(var, pct)
        trend.append(as_pct(recall(cell)) > as_pct(precision(cell)))
    ok = (
        p20 >= 90.0
        and r20 >= 90.0
        and 80.3 <= r30 <= 96.3  # reference midpoint 88.3, +-8 points
        and all(trend)
    )
    report(
        2,
        "colluder accuracy: >=90% at 20%, recall band at 30%, recall > precision",
        ok,
        f"20%: P={p20:.1f} R={r20:.1f}; 30%: R={r30:.1f}; "
        f"recall>precision in {sum(trend)}/9 cells",
    )


def _node_ids(cfg: ExperimentConfig) -> range:
    """Ids of a fresh world's nodes: its monitors are numbered first."""
    return range(cfg.monitors, cfg.monitors + cfg.nodes)


def _converted_world(cfg: ExperimentConfig, mole: int, single: SingleBehavior) -> World:
    """Rebuild a trial's world in a worker, convert its mole, run it."""
    world = World(cfg)
    assert list(world.nodes) == list(_node_ids(cfg))  # the ids the mole was drawn from
    world.convert_to_malicious(mole, single)
    world.run()
    return world


def _exactness_trial(cfg: ExperimentConfig) -> bool:
    """True when every view of a static honest world is exact."""
    world = World(cfg)
    world.run()
    truth = world.topo.peer_edges()
    exact = all((s.tp, s.fp, s.fn) == (len(truth), 0, 0) for s in world.probes)
    locals_exact = all(m.edges == truth for m in world.monitors.values())
    return exact and locals_exact and world.global_snapshot().edges == truth


def test_criterion_3_static_honest_exactness():
    rng = random.Random(0xACC3)
    trials = [
        ExperimentConfig(
            nodes=rng.randint(5, 50),
            monitors=rng.randint(1, 5),
            variability_s=0.0,
            duration_ms=1_500,
            probe_every_ms=1_500,
            scheduling_mode="fixed",
            f_init=2,
            adaptive=False,
            seed=trial,
        )
        for trial in range(1000)
    ]
    with process_pool(_exactness_trial, trials) as results:
        exact = list(results)
    bad = sum(not ok for ok in exact)
    assert len(exact) == 1000
    report(
        3,
        "static honest overlays: every monitor's local view exact "
        "(1000 random instances)",
        bad == 0,
        f"{1000 - bad}/1000 exact",
    )


def _misdirection_trial(rng: random.Random, behavior: int):
    """Draw one trial, (config, mole, misbehavior), from the criterion's stream."""
    cfg = ExperimentConfig(
        nodes=rng.randint(8, 16),
        monitors=rng.randint(2, 4),
        variability_s=0.0,
        duration_ms=3_500,
        probe_every_ms=3_500,
        scheduling_mode="fixed",
        f_init=2,
        adaptive=False,
        seed=rng.getrandbits(30),
    )
    if behavior == 2:
        world = World(cfg)  # bootstrapped only, to list the non-peer pairs
        pairs = [
            (m, n)
            for m in sorted(world.nodes)
            for n in sorted(world.nodes)
            if n != m and n not in world.nodes[m].peers()
        ]
        mole, victim = rng.choice(pairs)
        return cfg, mole, SingleBehavior(2, victim=victim)
    return cfg, rng.choice(_node_ids(cfg)), SingleBehavior(behavior)


def _misdirection_rows(trial) -> tuple[int, int]:
    """(spurious row entries, rows examined) of one misdirection trial."""
    world = _converted_world(*trial)
    violations = examined = 0
    for mon in world.monitors.values():
        for target in list(mon.nodes):
            if target not in world.topo.out:
                continue
            row = mon.outbound_row(target)
            examined += 1
            if not row <= set(world.topo.out[target]):
                violations += 1
    return violations, examined


# rows the serial version of criterion 4 examined over its 3000 trials
CRITERION_4_ROWS = 106_553


def test_criterion_4_misdirection_never_verifies_wrong_peers():
    rng = random.Random(0xACC4)
    trials = [_misdirection_trial(rng, behavior) for behavior in (1, 2, 3) for _ in range(1000)]
    with process_pool(_misdirection_rows, trials) as results:
        counts = list(results)
    violations = sum(v for v, _ in counts)
    assert len(counts) == 3000
    assert sum(rows for _, rows in counts) == CRITERION_4_ROWS
    report(
        4,
        "probe misdirection, leaks, and nonce replay never verify a wrong peer "
        "(3 x 1000 trials)",
        violations == 0,
        f"{violations} spurious row entries",
    )


def _enforcement_trial(trial) -> bool:
    """True when the run's agreed view equals ground truth."""
    world = _converted_world(*trial)
    return world.global_snapshot().edges == world.topo.peer_edges()


def test_criterion_5_enforcement_restores_global_equivalence():
    rng = random.Random(0xACC5)
    trials = []
    for trial in range(1000):
        monitors = rng.randint(3, 5)
        cfg = ExperimentConfig(
            nodes=rng.randint(8, 14),
            monitors=monitors,
            variability_s=0.0,
            duration_ms=8_000,
            probe_every_ms=8_000,
            scheduling_mode="fixed",
            f_init=1,
            adaptive=False,
            seed=trial,
        )
        mole = rng.choice(_node_ids(cfg))
        if rng.random() < 0.5:
            trials.append((cfg, mole, SingleBehavior(5)))
        else:
            drop = frozenset(
                rng.sample(range(monitors), rng.randint(0, monitors))
            )
            trials.append((cfg, mole, SingleBehavior(6, drop_for=drop)))
    with process_pool(_enforcement_trial, trials) as results:
        equal = list(results)
    mismatches = sum(not ok for ok in equal)
    assert len(equal) == 1000
    report(
        5,
        "after the safe period the agreed view equals ground truth, "
        "silent peers evicted (1000 trials)",
        mismatches == 0,
        f"{1000 - mismatches}/1000 equivalent",
    )


def _window_trial(seed: int) -> int | None:
    """Inject one edge change; return detection lag in ms, None if missed."""
    rng = random.Random(seed)
    cfg = ExperimentConfig(
        nodes=20,
        monitors=4,
        monitor_f_init=(1, 5, 5, 10),
        variability_s=0.0,
        duration_ms=28_000,
        probe_every_ms=28_000,
        scheduling_mode="fixed",
        adaptive=False,
        f_init=5,
        f_min=1,
        f_max=10,
        seed=seed,
    )
    world = World(cfg)
    t0 = 1_000 * rng.randint(12, 20)
    detected: list[int] = []

    def inject():
        if rng.random() < 0.5:
            a, b = rng.choice(sorted(world.topo.peer_edges()))
            world.close_edge(a, b)
        else:
            nodes = sorted(world.nodes)
            options = [
                (x, y)
                for x in nodes
                for y in nodes
                if x != y and y not in world.nodes[x].peers()
                and x not in world.nodes[y].peers()
            ]
            a, b = rng.choice(options)
            world.open_edge(a, b)
        world.engine.schedule(0, "acc6_check")

    def check():
        if world.global_snapshot().edges == world.topo.peer_edges():
            detected.append(world.engine.now)
        else:
            world.engine.schedule(100, "acc6_check")

    world.engine.on("acc6_inject", inject)
    world.engine.on("acc6_check", check)
    world.engine.schedule(t0, "acc6_inject")
    world.run()
    return detected[0] - t0 if detected else None


def test_criterion_6_detection_within_majority_refresh_window():
    with process_pool(_window_trial, range(100)) as results:
        lags = list(results)
    bound_ms = 1_000 * max_error_window([1, 5, 5, 10]) + 1_000  # window + round
    worst = max((lag for lag in lags if lag is not None), default=None)
    empirically_ok = all(lag is not None and lag <= bound_ms for lag in lags)

    # independent oracle: smallest horizon a strict majority refreshes within
    def oracle(freqs):
        need = len(freqs) // 2 + 1
        return min(t for t in sorted(freqs) if sum(f <= t for f in freqs) >= need)

    grids = itertools.product(range(1, 11), repeat=4)
    formula_ok = all(max_error_window(list(g)) == oracle(g) for g in grids)
    report(
        6,
        "injected change visible in the agreed view within the majority window "
        "(100 trials) and window formula matches counting oracle on 10^4 grids",
        empirically_ok and formula_ok,
        f"worst lag {worst} ms vs bound {bound_ms} ms; formula "
        f"{'agrees' if formula_ok else 'disagrees'}",
    )


def test_criterion_7_message_cost_matches_closed_form():
    cfg = ExperimentConfig(
        nodes=50,
        monitors=4,
        variability_s=0.0,
        duration_ms=1_500,
        probe_every_ms=1_500,
        scheduling_mode="fixed",
        f_init=2,
        adaptive=False,
        seed=9,
    )
    world = World(cfg)
    world.run()
    degrees = {
        n: (len(world.topo.out[n]), len(world.topo.inb[n]))
        for n in world.topo.peers_alive()
    }
    rows = audit_overhead(world.ledger, degrees, cfg.monitors)
    all_exact = all(r.ok for r in rows)
    pin = expected_overhead(8, 117, 1) == 243
    report(
        7,
        "per-node message cost equals (out + 2*in + 1) * monitors for all 50 nodes",
        all_exact and pin,
        f"{sum(r.ok for r in rows)}/{len(rows)} exact; spot value "
        f"{expected_overhead(8, 117, 1)}",
    )


def test_criterion_8_same_seed_same_bytes():
    def artifacts(seed: int):
        raw, trace, snaps = StringIO(), StringIO(), StringIO()
        cfg = ExperimentConfig(
            variability_s=10.0,
            malicious_pct=0.2,
            duration_ms=120_000,
            probe_every_ms=30_000,
            seed=seed,
        )
        run_experiment(cfg, raw=raw, trace=trace, snapshots=snaps)
        return raw.getvalue(), trace.getvalue(), snaps.getvalue()

    a, b = artifacts(42), artifacts(42)
    other = artifacts(43)
    report(
        8,
        "identical seed reproduces CSV, trace, and snapshots byte for byte",
        a == b and a != other,
        f"{len(a[1].splitlines())} trace lines compared",
    )


def test_criterion_9_majority_rule_exhaustive():
    bad = 0
    for gamma in range(1, 8):
        for bits in range(2**gamma):
            state = NodeState(1, set(range(gamma)), safe_rounds=3, inbound={7})
            for mon in range(gamma):
                keep = bool(bits >> mon & 1)
                confirmed = frozenset({7} if keep else ())
                for _ in range(3):
                    state.handle_verified(mon, VerifiedMsg(confirmed))
            friendly = bin(bits).count("1")
            want = 2 * friendly <= gamma
            if state.check_reputation(7) != want:
                bad += 1
    report(
        9,
        "disconnect exactly when confirmations lose the strict majority "
        "(all monitor sets up to 7, all vote patterns)",
        bad == 0,
        f"{bad} deviations across 254 patterns",
    )


ALL = [
    test_criterion_1_honest_accuracy_under_churn,
    test_criterion_2_adversarial_accuracy,
    test_criterion_3_static_honest_exactness,
    test_criterion_4_misdirection_never_verifies_wrong_peers,
    test_criterion_5_enforcement_restores_global_equivalence,
    test_criterion_6_detection_within_majority_refresh_window,
    test_criterion_7_message_cost_matches_closed_form,
    test_criterion_8_same_seed_same_bytes,
    test_criterion_9_majority_rule_exhaustive,
]


if __name__ == "__main__":
    failures = 0
    for fn in ALL:
        try:
            fn()
        except AssertionError:
            failures += 1
    raise SystemExit(1 if failures else 0)
