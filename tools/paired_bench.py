"""Paired A/B timing of two checkouts, world by world.

    python3 tools/paired_bench.py --a PARENT_DIR --b CHANGE_DIR \
        --workload scale_static --seed 1 --rounds 5

Starts one long-lived Python process per side (two even when `--a` and
`--b` name the same directory), each importing `topomon` from its own
checkout's `src/`. The worlds are the ones `bench/run.py` builds for the
workload: its own `scale_static` and `churn_collusion` config functions,
and `sweep_cells` for `paper_sweep`. Each round runs every world once on
each side, one world at a time, alternating which side goes first, so the
two sides sample the same stretch of host speed. A shared host can run
the same code twice as fast one minute as the next, which a median over
separate bench runs cannot tell from a 10 % change; a ratio of two runs
taken back to back mostly can.

For each world and round it prints the b ÷ a ratios of set-up CPU, run
CPU and run wall time, then per metric the geometric mean of the ratios
and how many runs were faster on b. Each server also reports its
`ru_maxrss` after every world, and the tool prints each side's peak
resident set (its largest world's, on top of the interpreter and its
imports) and their b ÷ a ratio. The last line is one JSON object with the
same summary. The two sides run under different hash seeds.

Exit status: 0 when every world's event count and probe samples agree
between the sides, 1 when any differ or a side fails, 2 on bad arguments.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

# workload -> the function in bench/run.py that lists its worlds' configs
WORKLOADS = {
    "scale_static": "scale_static",
    "churn_collusion": "churn_collusion",
    "paper_sweep": "sweep_cells",
}
METRICS = ("setup_cpu_s", "run_cpu_s", "run_wall_s")


# -- one side: a server process bound to one checkout --------------------------------


def load_checkout(root: Path):
    """Import `topomon` from `root/src`, then `root/bench/run.py`, and return
    the latter. Importing run.py puts its own tree's `src` first on
    `sys.path`, so topomon is imported first and checked to lie in `root`."""
    root = root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import topomon

    where = Path(topomon.__file__).resolve()
    if root not in where.parents:
        raise SystemExit(f"paired_bench: topomon imported from {where}, not inside {root}")
    spec = importlib.util.spec_from_file_location("bench_run", root / "bench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def serve(root: Path, workload: str, seed: int) -> None:
    """Answer each world index read from stdin with one JSON line."""
    run = load_checkout(root)
    configs = getattr(run, WORKLOADS[workload])(seed)
    print(json.dumps({"worlds": len(configs)}), flush=True)
    for line in sys.stdin:
        cfg = configs[int(line)]
        gc.collect()
        c0 = time.process_time()
        world = run.World(cfg)
        c1, w1 = time.process_time(), time.perf_counter()
        samples = world.run()
        c2, w2 = time.process_time(), time.perf_counter()
        print(json.dumps({
            "setup_cpu_s": c1 - c0,
            "run_cpu_s": c2 - c1,
            "run_wall_s": w2 - w1,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "events": world.engine.events_processed,
            "probes": [[s.time_ms, s.tp, s.fp, s.fn] for s in samples],
        }), flush=True)
        del world  # so the next world's `gc.collect()` frees it, and peaks hold one world


# -- comparing the two sides ----------------------------------------------------------


class Side:
    def __init__(self, name: str, root: Path, workload: str, seed: int, hash_seed: int) -> None:
        self.name = name
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env.pop("PYTHONPATH", None)  # the checkout's own src/ goes first anyway
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(root), "--workload", workload,
             "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.worlds = self._read()["worlds"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"side {self.name} exited with status {self.proc.wait()}")
        return json.loads(line)

    def run(self, k: int) -> dict:
        self.proc.stdin.write(f"{k}\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):  # a dead server leaves a full buffer
            self.proc.stdin.close()  # the server's loop ends at end of input
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def ratio(a: dict, b: dict, metric: str) -> float:
    """b ÷ a; NaN when either time is not positive (below the clock's step)."""
    return b[metric] / a[metric] if a[metric] > 0 and b[metric] > 0 else math.nan


def summarize(pairs: list[tuple[int, int, dict, dict]]) -> dict:
    """Per metric: geometric mean of the b ÷ a ratios over every (round,
    world) pair that has one, and how many of those were faster on b."""
    out = {}
    for m in METRICS:
        ratios = [x for _, _, a, b in pairs if not math.isnan(x := ratio(a, b, m))]
        mean = math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else math.nan
        out[m] = {"geomean_ratio": mean, "faster_on_b": sum(x < 1 for x in ratios),
                  "pairs": len(ratios)}
    return out


def peak_rss(pairs: list[tuple[int, int, dict, dict]]) -> dict:
    """Each side's peak resident set over all its worlds, in MB (Linux reports
    `ru_maxrss` in KiB), and b ÷ a."""
    a, b = (max(pair[side]["maxrss_kb"] for pair in pairs) / 1024 for side in (2, 3))
    return {"a": a, "b": b, "ratio": b / a}


def mismatches(pairs: list[tuple[int, int, dict, dict]]) -> list[str]:
    return [
        f"round {r} world {k}: events {a['events']} vs {b['events']}"
        + ("" if a["probes"] == b["probes"] else ", probe samples differ")
        for r, k, a, b in pairs
        if a["events"] != b["events"] or a["probes"] != b["probes"]
    ]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--a", type=Path, help="baseline checkout (e.g. the parent commit)")
    ap.add_argument("--b", type=Path, help="checkout to compare against --a")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.serve is not None:
        serve(args.serve, args.workload, args.seed)
        return 0
    if args.a is None or args.b is None or args.rounds < 1:
        ap.error("--a and --b are required, and --rounds must be >= 1")

    sides: list[Side] = []
    try:
        for hash_seed, (name, root) in enumerate((("a", args.a), ("b", args.b)), 1):
            sides.append(Side(name, root, args.workload, args.seed, hash_seed))
        a, b = sides
        if a.worlds != b.worlds:
            print(f"paired_bench: a has {a.worlds} worlds, b has {b.worlds}")
            return 1
        pairs = []
        print(f"workload {args.workload}  seed {args.seed}  rounds {args.rounds}  "
              f"a={args.a}  b={args.b}")
        print("round world first  " + "  ".join(f"{m} b/a" for m in METRICS))
        for r in range(args.rounds):
            for k in range(a.worlds):
                first = (a, b) if (r + k) % 2 == 0 else (b, a)
                got = {side.name: side.run(k) for side in first}
                pairs.append((r, k, got["a"], got["b"]))
                ratios = "  ".join(f"{ratio(got['a'], got['b'], m):>{len(m) + 4}.3f}"
                                   for m in METRICS)
                print(f"{r:>5} {k:>5} {first[0].name:>5}  {ratios}", flush=True)
    except (RuntimeError, BrokenPipeError) as exc:  # a side died
        print(f"paired_bench: {exc}")
        return 1
    finally:
        for side in sides:
            side.close()

    summary = summarize(pairs)
    for m, s in summary.items():
        print(f"{m:<12} geomean b/a {s['geomean_ratio']:.3f}  "
              f"faster on b in {s['faster_on_b']} of {s['pairs']}")
    rss = peak_rss(pairs)
    print(f"peak RSS     a {rss['a']:.2f} MB  b {rss['b']:.2f} MB  b/a {rss['ratio']:.3f}")
    bad = mismatches(pairs)
    for line in bad:
        print(f"MISMATCH {line}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
                      "summary": summary, "peak_rss_mb": rss, "mismatches": len(bad)}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
