"""Command-line front end.

Subcommands:

* ``run``              one simulation, per-probe CSV plus optional trace/snapshots
* ``sweep``            full (variability x malicious%) grid, raw + summary CSVs
* ``audit-overhead``   per-node message bill vs the closed-form expectation
* ``export-topology``  bootstrap (optionally settle) a world, dump edge list or DOT

Settings resolve as defaults < config file < explicit flags.  The config file
is flat ``key = value`` lines using ExperimentConfig field names; ``#`` starts
a comment.  ``--out`` falls back to $TOPOMON_OUT, then the current directory.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .experiment import _num, run_experiment, run_sweep
from .metrics import audit_overhead
from .simulation import ConfigInvalid, ExperimentConfig, World

_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _coerce(name: str, raw: str):
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    if name not in kinds:
        raise ValueError(f"unknown config key {name!r} (valid: {', '.join(sorted(kinds))})")
    raw = raw.strip()
    if name == "latency_ms_range":
        lo, hi = (int(p) for p in raw.split(","))
        return (lo, hi)
    if name == "monitor_f_init":
        return None if raw in ("", "none") else tuple(int(p) for p in raw.split(","))
    if name == "scheduling_mode":
        return raw
    if kinds[name] == "bool":
        try:
            return _BOOLS[raw.lower()]
        except KeyError:
            raise ValueError(f"{name}: expected a boolean, got {raw!r}") from None
    if kinds[name] == "int":
        return int(raw)
    return float(raw)


def load_config_file(path: str | Path) -> dict:
    """Parse flat key=value lines into ExperimentConfig field overrides."""
    try:
        text = Path(path).read_text()
    except OSError as exc:  # missing, a directory, unreadable: bad input
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        out[key.strip()] = _coerce(key.strip(), val)
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(load_config_file(args.config))
    flag_map = {
        "nodes": "nodes",
        "monitors": "monitors",
        "outbound": "outbound_per_node",
        "var": "variability_s",
        "seed": "seed",
        "duration_ms": "duration_ms",
        "probe_every_ms": "probe_every_ms",
        "timeout_ms": "round_timeout_ms",
        "f_init": "f_init",
        "f_min": "f_min",
        "f_max": "f_max",
        "safe_rounds": "safe_rounds",
        "mode": "scheduling_mode",
        "share_hops": "share_hops",
        "second_hop_p": "second_hop_p",
    }
    for flag, field_name in flag_map.items():
        val = getattr(args, flag, None)
        if val is not None:
            overrides[field_name] = val
    if getattr(args, "malicious", None) is not None:
        overrides["malicious_pct"] = args.malicious / 100.0
    if getattr(args, "latency", None) is not None:
        overrides["latency_ms_range"] = _coerce("latency_ms_range", args.latency)
    if getattr(args, "soft_hiding", None):
        overrides["full_hiding"] = False
    if getattr(args, "malicious_refill", None):
        overrides["malicious_refill"] = True
    if getattr(args, "no_adaptive", None):
        overrides["adaptive"] = False
    cfg = replace(ExperimentConfig(), **overrides)
    problems = cfg.validate()
    if problems:
        raise ConfigInvalid(problems)
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    root = args.out or os.environ.get("TOPOMON_OUT") or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _add_config_flags(p: argparse.ArgumentParser, *, full: bool = True) -> None:
    p.add_argument("--config", help="flat key=value settings file")
    p.add_argument("--seed", type=int)
    p.add_argument("--nodes", type=int)
    p.add_argument("--monitors", type=int)
    p.add_argument("--outbound", type=int, help="outbound slots per node")
    p.add_argument("--out", help="output directory (default $TOPOMON_OUT or .)")
    if not full:
        return
    p.add_argument("--var", type=float, help="mean churn inter-arrival, seconds; 0 = static")
    p.add_argument("--malicious", type=float, help="malicious population, percent")
    p.add_argument("--duration-ms", type=int, dest="duration_ms")
    p.add_argument("--probe-every-ms", type=int, dest="probe_every_ms")
    p.add_argument("--timeout-ms", type=int, dest="timeout_ms")
    p.add_argument("--f-init", type=int, dest="f_init")
    p.add_argument("--f-min", type=int, dest="f_min")
    p.add_argument("--f-max", type=int, dest="f_max")
    p.add_argument("--safe-rounds", type=int, dest="safe_rounds")
    p.add_argument("--mode", choices=("poisson", "fixed"))
    p.add_argument("--latency", help="LO,HI delivery delay bounds in ms")
    p.add_argument("--share-hops", type=int, dest="share_hops", choices=(1, 2))
    p.add_argument("--second-hop-p", type=float, dest="second_hop_p")
    p.add_argument("--soft-hiding", action="store_const", const=True,
                   help="colluders still forward probes to honest peers")
    p.add_argument("--malicious-refill", action="store_const", const=True,
                   dest="malicious_refill")
    p.add_argument("--no-adaptive", action="store_const", const=True,
                   dest="no_adaptive", help="pin scan frequency at f_init")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    out = _out_dir(args)
    stem = args.name or (
        f"run_var{_num(cfg.variability_s)}"
        f"_mal{_num(100 * cfg.malicious_pct)}_seed{cfg.seed}"
    )
    csv_path = out / f"{stem}.csv"
    sinks = {}
    try:
        sinks["raw"] = csv_path.open("w")
        if args.trace:
            sinks["trace"] = (out / f"{stem}.trace").open("w")
        if args.snapshots:
            sinks["snapshots"] = (out / f"{stem}.snapshots").open("w")
        report = run_experiment(cfg, **sinks)
    finally:
        for h in sinks.values():
            h.close()
    c = report.totals
    print(
        f"probes={len(report.samples)} tp={c.tp} fp={c.fp} fn={c.fn} "
        f"precision={_fmt_pct(report.precision)} recall={_fmt_pct(report.recall)} "
        f"-> {csv_path}"
    )
    return 0


def _fmt_pct(x: float | None) -> str:
    return "n/a" if x is None else f"{100 * x:.1f}%"


def _csv_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip() != ""]


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = build_config(args)
    out = _out_dir(args)
    raw_path = out / "sweep_raw.csv"
    summary_path = out / "sweep_summary.csv"
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    with raw_path.open("w") as raw, summary_path.open("w") as summary:
        report = run_sweep(
            _csv_floats(args.vars),
            _csv_floats(args.pcts),
            args.repeats,
            base=base,
            raw=raw,
            summary=summary,
            progress=progress,
        )
    for cell in report.cells:
        print(
            f"var={_num(cell.variability_s)}s malicious={_num(cell.malicious_pct)}%: "
            f"precision={_fmt_pct(cell.precision)} recall={_fmt_pct(cell.recall)} "
            f"({cell.runs} runs)"
        )
    print(f"raw -> {raw_path}\nsummary -> {summary_path}")
    if not report.ok:
        for cfg, exc in report.failures:
            print(
                f"FAILED var={_num(cfg.variability_s)} "
                f"mal={_num(100 * cfg.malicious_pct)}% seed={cfg.seed}: {exc!r}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    # one complete verification round per (monitor, node), then stop
    cfg = replace(
        cfg,
        variability_s=0.0,
        malicious_pct=0.0,
        adaptive=False,
        scheduling_mode="fixed",
        f_init=max(cfg.f_init, 2),
        f_max=max(cfg.f_max, 2),
        duration_ms=1_500,
        probe_every_ms=1_500,
    )
    world = World(cfg)
    world.run()
    degrees = {
        n: (len(world.topo.out[n]), len(world.topo.inb[n]))
        for n in world.topo.peers_alive()
    }
    rows = audit_overhead(world.ledger, degrees, cfg.monitors)
    width = max(len(str(r.node)) for r in rows)
    bad = 0
    for r in rows:
        mark = "ok" if r.ok else "MISMATCH"
        bad += 0 if r.ok else 1
        print(
            f"node {r.node:>{width}}  out={r.out_deg} in={r.in_deg}  "
            f"expected={r.expected:>4}  measured={r.measured:>4}  {mark}"
        )
    print(f"{len(rows) - bad}/{len(rows)} nodes match the closed-form cost")
    return 0 if bad == 0 else 1


def _cmd_export(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    world = World(cfg)
    if args.settle_ms:
        world.engine.run_until(args.settle_ms)
    if args.format == "dot":
        text = world.topo.to_dot()
    else:
        lines = world.topo.edge_list_lines(include_monitors=args.include_monitors)
        text = "\n".join(lines) + "\n"
    if args.dest:
        Path(args.dest).write_text(text)
        print(f"-> {args.dest}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="topomon",
        description="deterministic P2P topology-verification simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single simulation run")
    _add_config_flags(p_run)
    p_run.add_argument("--name", help="artifact filename stem")
    p_run.add_argument("--trace", action="store_true", help="write event trace")
    p_run.add_argument("--snapshots", action="store_true",
                       help="write per-probe inferred topologies")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs, raw + summary CSVs")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--vars", default="10,5,1",
                         help="comma list of churn variabilities, seconds")
    p_sweep.add_argument("--pcts", default="0,5,10,20,30,40,50",
                         help="comma list of malicious percentages")
    p_sweep.add_argument("--repeats", type=int, default=5)
    p_sweep.add_argument("--verbose", action="store_true")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_audit = sub.add_parser(
        "audit-overhead",
        help="compare measured per-node message cost to (o + 2i + 1) * monitors",
    )
    _add_config_flags(p_audit, full=False)
    p_audit.set_defaults(fn=_cmd_audit)

    p_exp = sub.add_parser("export-topology", help="dump the bootstrapped overlay")
    _add_config_flags(p_exp, full=False)
    p_exp.add_argument("--format", choices=("edgelist", "dot"), default="edgelist")
    p_exp.add_argument("--include-monitors", action="store_true")
    p_exp.add_argument("--settle-ms", type=int, default=0,
                       help="simulate this long before exporting")
    p_exp.add_argument("--dest", help="write to this file instead of stdout")
    p_exp.set_defaults(fn=_cmd_export)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigInvalid, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
