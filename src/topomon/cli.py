"""Command-line front end.

Subcommands:

* ``run``              one simulation, per-probe CSV plus optional trace/snapshots
* ``sweep``            full (variability x malicious%) grid, raw + summary CSVs
* ``audit-overhead``   per-node message bill vs the closed-form expectation
* ``export-topology``  bootstrap (optionally settle) a world, dump edge list or DOT

Settings resolve as defaults < config file < explicit flags.  The config file
is flat ``key = value`` lines (``#`` starts a comment) keyed by ExperimentConfig
field names, each parsed by its field's type, as its flag is.  ``--malicious``
takes a percent, ``--soft-hiding`` and ``--no-adaptive`` set false, and only a
file sets ``monitor_f_init`` or ``full_hiding = true``.  ``--out`` falls back to
$TOPOMON_OUT, then the current directory.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TextIO

from .experiment import _num, run_experiment, run_sweep, sweep_grid
from .metrics import AuditRow, audit_overhead, precision, recall
from .monitor import SCHEDULING_MODES
from .simulation import CONFIG_FIELDS, CONFIG_TYPES, ConfigInvalid, ExperimentConfig, World


def percent(text: str) -> float:
    return float(text) / 100.0


def float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip() != ""]


# (flag, field, argparse options); the first four rows are the short set
_FLAGS = (
    ("--seed", "seed", {}),
    ("--nodes", "nodes", {}),
    ("--monitors", "monitors", {}),
    ("--outbound", "outbound_per_node", {"help": "outbound slots per node"}),
    ("--var", "variability_s", {"help": "mean churn inter-arrival, seconds; 0 = static"}),
    ("--malicious", "malicious_pct", {"type": percent, "help": "malicious population, percent"}),
    ("--duration-ms", "duration_ms", {}),
    ("--probe-every-ms", "probe_every_ms", {}),
    ("--timeout-ms", "round_timeout_ms", {}),
    ("--f-init", "f_init", {}),
    ("--f-min", "f_min", {}),
    ("--f-max", "f_max", {}),
    ("--safe-rounds", "safe_rounds", {}),
    ("--mode", "scheduling_mode", {"choices": SCHEDULING_MODES}),
    ("--latency", "latency_ms_range", {"help": "LO,HI delivery delay bounds in ms"}),
    ("--share-hops", "share_hops", {"choices": (1, 2)}),
    ("--second-hop-p", "second_hop_p", {}),
    ("--soft-hiding", "full_hiding", {"action": "store_const", "const": False,
                                      "help": "colluders still forward probes to honest peers"}),
    ("--malicious-refill", "malicious_refill", {"action": "store_const", "const": True}),
    ("--no-adaptive", "adaptive", {"action": "store_const", "const": False,
                                   "help": "pin scan frequency at f_init"}),
)


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
        key, val = (part.strip() for part in line.split("=", 1))
        kind = CONFIG_FIELDS.get(key)
        if kind is None:
            valid = ", ".join(sorted(CONFIG_FIELDS))
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r} (valid: {valid})")
        try:
            out[key] = CONFIG_TYPES[kind][2](val)
        except (KeyError, ValueError):  # KeyError: not a boolean word
            raise ValueError(f"{path}:{lineno}: {key}: expected {kind}, got {val!r}") from None
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = load_config_file(args.config) if getattr(args, "config", None) else {}
    for name in CONFIG_FIELDS:  # each flag's dest is its field's name
        if getattr(args, name, None) is not None:
            overrides[name] = getattr(args, name)
    cfg = replace(ExperimentConfig(), **overrides)
    problems = cfg.validate()
    if problems:
        raise ConfigInvalid(problems)
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    path = Path(args.out or os.environ.get("TOPOMON_OUT") or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file on the path, unwritable: bad input
        raise ValueError(f"cannot use output directory {path}: {exc.strerror}") from None
    return path


def _open_out(path: Path) -> TextIO:
    try:
        return path.open("w")
    except OSError as exc:  # a directory, a missing parent, unwritable: bad input
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _add_config_flags(p: argparse.ArgumentParser, *, full: bool = True) -> None:
    p.add_argument("--config", help="flat key=value settings file")
    p.add_argument("--out", help="output directory (default $TOPOMON_OUT or .)")
    for flag, name, opts in _FLAGS if full else _FLAGS[:4]:
        if "action" not in opts:
            opts = {"type": CONFIG_TYPES[CONFIG_FIELDS[name]][2], **opts}
        p.add_argument(flag, dest=name, **opts)


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
        sinks["raw"] = _open_out(csv_path)
        if args.trace:
            sinks["trace"] = _open_out(out / f"{stem}.trace")
        if args.snapshots:
            sinks["snapshots"] = _open_out(out / f"{stem}.snapshots")
        report = run_experiment(cfg, **sinks)
    finally:
        for h in sinks.values():
            h.close()
    c = report.totals
    print(
        f"probes={len(report.samples)} tp={c.tp} fp={c.fp} fn={c.fn} "
        f"precision={_fmt_pct(precision(c))} recall={_fmt_pct(recall(c))} "
        f"-> {csv_path}"
    )
    return 0


def _fmt_pct(x: float | None) -> str:
    return "n/a" if x is None else f"{100 * x:.1f}%"


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = build_config(args)
    # refuse a bad cell before any file is written or any worker starts
    problems = dict.fromkeys(
        f"sweep cell var={var:g} mal={pct:g}%: {problem}"
        for (var, pct), configs in sweep_grid(args.vars, args.pcts, args.repeats, base)
        for cfg in configs
        for problem in cfg.validate()
    )
    if problems:
        raise ConfigInvalid(list(problems))
    out = _out_dir(args)
    raw_path = out / "sweep_raw.csv"
    summary_path = out / "sweep_summary.csv"
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    with _open_out(raw_path) as raw, _open_out(summary_path) as summary:
        report = run_sweep(
            args.vars,
            args.pcts,
            args.repeats,
            base=base,
            raw=raw,
            summary=summary,
            progress=progress,
        )
    for cell in report.cells:
        print(
            f"var={_num(cell.variability_s)}s malicious={_num(cell.malicious_pct)}%: "
            f"precision={_fmt_pct(precision(cell.totals))} recall={_fmt_pct(recall(cell.totals))} "
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


def audit_rows(cfg: ExperimentConfig) -> list[AuditRow]:
    """Each node's message bill over one sweep of `cfg`'s overlay, made static
    and honest, against the closed form."""
    # one complete verification round per (monitor, node), then stop: all start at 0, the last
    # relay goes by 2 * latency_hi, the list at round_timeout_ms, the next round at 1000 * f
    window = max(cfg.round_timeout_ms, 2 * cfg.latency_ms_range[1])
    f = max(cfg.f_init, window // 1000 + 1)
    cfg = replace(
        cfg,
        variability_s=0.0,
        malicious_pct=0.0,
        adaptive=False,
        scheduling_mode="fixed",
        f_init=f,
        f_max=max(cfg.f_max, f),
        monitor_f_init=None,
        duration_ms=window,
        probe_every_ms=window,
    )
    world = World(cfg)
    world.run()
    degrees = {
        n: (len(world.topo.out[n]), len(world.topo.inb[n]))
        for n in world.topo.peers_alive()
    }
    return audit_overhead(world.ledger, degrees, cfg.monitors)


def _cmd_audit(args: argparse.Namespace) -> int:
    rows = audit_rows(build_config(args))
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
    if args.settle_ms > cfg.duration_ms:  # the run ends there; churn must not go on
        raise ValueError(f"--settle-ms {args.settle_ms} exceeds duration_ms {cfg.duration_ms}")
    world = World(cfg)
    if args.settle_ms:
        world.engine.run_until(args.settle_ms)
    if args.format == "dot":
        text = world.topo.to_dot(include_monitors=args.include_monitors)
    else:
        lines = world.topo.edge_list_lines(include_monitors=args.include_monitors)
        text = "\n".join(lines) + "\n"
    if args.dest:
        with _open_out(Path(args.dest)) as f:
            f.write(text)
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
    p_sweep.add_argument("--vars", type=float_list, default="10,5,1",
                         help="comma list of churn variabilities, seconds")
    p_sweep.add_argument("--pcts", type=float_list, default="0,5,10,20,30,40,50",
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

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # bad flag (2) or --help (0): a code, not a raise
        return exc.code
    try:
        return args.fn(args)
    except (ConfigInvalid, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
