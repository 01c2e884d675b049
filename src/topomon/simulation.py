"""End-to-end simulation: one engine driving ground truth, monitors,
honest nodes, and colluders.

Event flow per scan: a round-start event sends the marker to the target;
the matching timeout event, `round_timeout_ms` later, calls the monitor's
`close_round`, sends the confirmation list it returns to the target, and
schedules the next round. Round spacing is measured start to start, with
the timeout as a floor so rounds for one target never overlap.

`World.pending` holds one live entry per (monitor, live target): the
`round_start` while no round is open, the `round_timeout` while one is.

Monitors learn joins and departures from the registry the moment they
happen: a join triggers an immediate first scan, a departure triggers
repair scans of every node whose row pointed at the departed peer (their
replacement edges are already live); the monitor defers one whose round
is open to that round's close.

Reputation disconnects close the ground-truth edge in the same event and
ban both endpoints for the rest of the run. Honest nodes refill the lost
outbound slot right away; malicious nodes do not (flag-controlled), which
slowly strands them on clique-internal links only.

The `Topology` alone stores links and bans; each node reads its own rows.
`World.nodes` maps every live node to its handler, a `NodeState` or an
`Adversary` wrapping one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from topomon.adversary import Adversary, AdversaryPolicy, SingleBehavior
from topomon.engine import POISSON_MAX_MEAN, Engine, sample_exponential, substream
from topomon.metrics import OverheadLedger, classify_edges
from topomon.monitor import SCHEDULING_MODES, Monitor, compute_global_snapshot
from topomon.protocol import NodeState
from topomon.topology import NodeAdded, NodeRemoved, Role, Topology


class ConfigInvalid(Exception):
    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems

    def __reduce__(self):
        # rebuild from the list, not from the joined message in `args`
        return type(self), (self.problems,)


@dataclass(frozen=True)
class ExperimentConfig:
    nodes: int = 50
    monitors: int = 4
    outbound_per_node: int = 3
    variability_s: float = 10.0  # mean churn inter-arrival; 0 disables churn
    malicious_pct: float = 0.0
    duration_ms: int = 600_000
    probe_every_ms: int = 30_000
    round_timeout_ms: int = 1_000
    f_init: int = 5
    f_min: int = 1
    f_max: int = 10
    safe_rounds: int = 3
    scheduling_mode: str = "poisson"  # one of SCHEDULING_MODES
    seed: int = 0
    latency_ms_range: tuple[int, int] = (5, 50)
    # adversary shape
    full_hiding: bool = True
    share_hops: int = 2
    second_hop_p: float = 1.0
    malicious_refill: bool = False
    # analysis aids
    adaptive: bool = True  # False pins every scan frequency at f_init
    monitor_f_init: tuple[int, ...] | None = None  # per-monitor override

    def validate(self) -> list[str]:
        bad = [f"{f} must be finite" for f in _FLOAT_FIELDS if not math.isfinite(getattr(self, f))]
        for name, lo, hi in _BOUNDS:
            if not lo <= getattr(self, name) <= hi:
                bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
                bad.append(f"{name} must be {bound}")
        if not self.f_min <= self.f_init <= self.f_max:
            bad.append("need f_min <= f_init <= f_max")
        if self.scheduling_mode == "poisson" and self.f_max > POISSON_MAX_MEAN:
            # Poisson scan delays are drawn with mean up to f_max
            bad.append(f"f_max must be <= {POISSON_MAX_MEAN} in poisson mode")
        if self.probe_every_ms > self.duration_ms:
            bad.append("probe_every_ms must not exceed duration_ms")
        if self.scheduling_mode not in SCHEDULING_MODES:
            bad.append(f"unknown scheduling_mode {self.scheduling_mode!r}")
        lo, hi = self.latency_ms_range
        if not 0 <= lo <= hi:
            bad.append("latency_ms_range must satisfy 0 <= lo <= hi")
        if self.monitor_f_init is not None:
            if len(self.monitor_f_init) != self.monitors:
                bad.append("monitor_f_init must list one frequency per monitor")
            if not all(self.f_min <= f <= self.f_max for f in self.monitor_f_init):
                bad.append("monitor_f_init entries must lie in [f_min, f_max]")
        if not 1 <= self.share_hops <= 2:
            bad.append("share_hops must be 1 or 2")
        return bad


# computed once: World.__init__ calls validate() for every run
_FLOAT_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.type == "float")
# (field, lo, hi): each field must lie in [lo, hi], which reads ">= lo" when hi
# is infinite; probe_every_ms >= 1 because the probe reschedules itself that far
_BOUNDS = (
    ("nodes", 1, math.inf), ("monitors", 1, math.inf), ("outbound_per_node", 0, math.inf),
    ("variability_s", 0, math.inf), ("malicious_pct", 0, 1), ("second_hop_p", 0, 1),
    ("duration_ms", 0, math.inf), ("probe_every_ms", 1, math.inf),
    ("round_timeout_ms", 1, math.inf), ("f_min", 1, math.inf), ("safe_rounds", 0, math.inf),
)


@dataclass(frozen=True)
class ProbeSample:
    time_ms: int
    tp: int
    fp: int
    fn: int


class World:
    def __init__(self, cfg: ExperimentConfig, trace_sink=None, snapshot_sink=None) -> None:
        problems = cfg.validate()
        if problems:
            raise ConfigInvalid(problems)
        self.cfg = cfg
        self.engine = Engine(cfg.seed, trace=trace_sink)
        self.snapshot_sink = snapshot_sink
        self.topo = Topology(cfg.outbound_per_node)
        self.churn_mean_ms = max(1, int(cfg.variability_s * 1000))
        self.nodes: dict[int, NodeState | Adversary] = {}
        self.monitors: dict[int, Monitor] = {}
        self.policy = AdversaryPolicy(
            self.topo,
            substream(cfg.seed, "adversary"),
            full_hiding=cfg.full_hiding,
            share_hops=cfg.share_hops,
            second_hop_p=cfg.second_hop_p,
        )
        self.ledger = OverheadLedger()
        self.pending: dict[tuple[int, int], list] = {}  # live round entry
        lo, hi = cfg.latency_ms_range  # (lo, n, bits) of `_send`'s inlined randint
        self._latency = (lo, hi - lo + 1, (hi - lo + 1).bit_length())
        self.probes: list[ProbeSample] = []

        eng = self.engine
        eng.on("round_start", self._on_round_start)
        eng.on("round_timeout", self._on_round_timeout)
        eng.on("deliver", self._on_deliver)
        eng.on("churn", self._on_churn)
        eng.on("probe", self._on_probe)
        self._bootstrap()

    # -- construction -----------------------------------------------------------

    def _bootstrap(self) -> None:
        cfg = self.cfg
        for k in range(cfg.monitors):
            mid = self.topo.add_monitor()
            f0 = cfg.monitor_f_init[k] if cfg.monitor_f_init else cfg.f_init
            self.monitors[mid] = Monitor(
                mid,
                f_init=f0,
                f_min=cfg.f_min,
                f_max=cfg.f_max,
                mode=cfg.scheduling_mode,
                adaptive=cfg.adaptive,
            )
        for _ in range(cfg.nodes):
            role = self.topo.steer_add_role(cfg.malicious_pct)
            self._node_joined(self.topo.add_node(role, self.engine.rng_topology))
        if cfg.variability_s > 0:
            self._schedule_churn()
        self.engine.schedule(cfg.probe_every_ms, "probe")  # validate(): within duration_ms

    def run(self) -> list[ProbeSample]:
        self.engine.run_until(self.cfg.duration_ms)
        return self.probes

    # -- membership plumbing ------------------------------------------------------

    def _node_joined(self, ev: NodeAdded) -> None:
        nid, topo = ev.node, self.topo
        state = NodeState(
            nid,
            set(self.monitors),
            self.cfg.safe_rounds,
            outbound=topo.out[nid],
            inbound=topo.inb[nid],
        )
        self.nodes[nid] = state if ev.role is Role.HONEST else Adversary(state, self.policy)
        self.engine.trace("join", nid, "-", ev.role.value)
        for mid in sorted(self.monitors):
            self.monitors[mid].node_discovered(nid)
            self._schedule_round(mid, nid, 0)

    def _node_left(self, ev: NodeRemoved) -> None:
        nid = ev.node
        for t in ev.severed_out:
            self.nodes[t].forget(nid)
        for p, _ in ev.rewired:
            self.nodes[p].forget(nid)
        del self.nodes[nid]
        self.engine.trace("leave", nid, "-", ev.role.value)
        for mid in sorted(self.monitors):
            repair = self.monitors[mid].node_departed(nid)
            self.engine.cancel(self.pending.pop((mid, nid)))
            for p in repair:
                self.engine.cancel(self.pending[(mid, p)])
                self._schedule_round(mid, p, 0)

    def convert_to_malicious(self, nid: int, single: SingleBehavior | None = None) -> Adversary:
        """Test aid: flip an existing honest node to a malicious one."""
        if self.topo.roles[nid] is not Role.HONEST:
            raise ValueError(f"node {nid} is not honest")
        self.topo.set_role(nid, Role.MALICIOUS)
        adv = Adversary(self.nodes[nid], self.policy, single)
        self.nodes[nid] = adv
        return adv

    def open_edge(self, a: int, b: int) -> None:
        """Ground-truth mutation without any notification; scans must find it."""
        self.topo.open_connection(a, b)
        self.engine.trace("edge_open", a, b)

    def close_edge(self, a: int, b: int) -> None:
        self.topo.close_connection(a, b)
        self.nodes[a].forget(b)
        self.nodes[b].forget(a)
        self.engine.trace("edge_close", a, b)

    # -- scan scheduling ---------------------------------------------------------

    def _schedule_round(self, mid: int, target: int, delay: int) -> None:
        self.pending[(mid, target)] = self.engine.schedule(
            delay, "round_start", mid, target
        )

    def _on_round_start(self, mid: int, target: int) -> None:
        marker = self.monitors[mid].start_round(target, self.engine.rng_marker)
        self.pending[(mid, target)] = self.engine.schedule(
            self.cfg.round_timeout_ms, "round_timeout", mid, target
        )
        self._send([(mid, target, marker)], "marker_from_monitor")

    def _on_round_timeout(self, mid: int, target: int) -> None:
        msg, delay = self.monitors[mid].close_round(target, self.engine.rng_sched)
        self._send([(mid, target, msg)], "verified")
        self._schedule_round(mid, target, max(0, delay - self.cfg.round_timeout_ms))

    # -- message transport ---------------------------------------------------------

    def _send(self, msgs, kind: str | None = None) -> None:
        """Book and schedule each `(frm, to, payload)` in order as `kind`; a
        relay burst (no `kind`) goes as `marker_to_monitor` or
        `marker_forwarded` by its recipient."""
        lo, n, k = self._latency
        getrandbits = self.engine.rng_latency.getrandbits
        count, schedule, mons = self.ledger.count, self.engine.schedule, self.monitors
        for frm, to, payload in msgs:
            # randint(lo, hi) as CPython draws it, by rejection over getrandbits
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            hop = kind or ("marker_to_monitor" if to in mons else "marker_forwarded")
            count(hop, frm, to)
            schedule(lo + r, "deliver", hop, frm, to, payload)

    def _on_deliver(self, kind: str, frm: int, to: int, payload) -> None:
        tracing = self.engine.tracing  # trace details are built only when kept
        mon = self.monitors.get(to)
        if mon is not None:
            accepted = mon.receive_marker(frm, payload)
            if tracing:
                self.engine.trace(
                    kind, frm, to, f"{payload.target}:{payload.value}:{int(accepted)}"
                )
            return
        if to not in self.nodes:
            return  # recipient departed while the message was in flight
        if kind == "verified":
            if tracing:
                peers = ",".join(str(p) for p in sorted(payload.verified_peers))
                self.engine.trace(kind, frm, to, peers)
            for act in self.nodes[to].handle_verified(frm, payload):
                self._apply_disconnect(to, act.peer)
            return
        if tracing:
            self.engine.trace(kind, frm, to, f"{payload.target}:{payload.value}")
        self._send(self.nodes[to].handle_marker(frm, payload))

    # -- enforcement -----------------------------------------------------------------

    def _apply_disconnect(self, owner: int, peer: int) -> None:
        # `handle_verified` names only peers in the owner's live rows, so the
        # peer is alive and exactly one of the two directed edges exists
        self.nodes[owner].forget(peer)
        self.nodes[peer].forget(owner)
        edge = (owner, peer) if peer in self.topo.out[owner] else (peer, owner)
        self.topo.close_connection(*edge)
        self.topo.ban(owner, peer)
        self.engine.trace("disconnect", owner, peer, f"edge={edge[0]}>{edge[1]}")
        self._refill(edge[0])

    def _refill(self, nid: int) -> None:
        if self.topo.roles[nid] is Role.MALICIOUS and not self.cfg.malicious_refill:
            return
        while len(self.topo.out[nid]) < self.cfg.outbound_per_node:
            choices = self.topo.eligible_targets(nid)
            if not choices:
                return
            t = self.engine.rng_topology.choice(choices)
            self.topo.open_connection(nid, t)
            self.engine.trace("refill", nid, t)

    # -- background processes -----------------------------------------------------------

    def _schedule_churn(self) -> None:
        delay = sample_exponential(self.engine.rng_churn, self.churn_mean_ms)
        self.engine.schedule(delay, "churn")

    def _on_churn(self) -> None:
        cfg = self.cfg
        ev = self.topo.churn_tick(cfg.nodes, cfg.malicious_pct, self.engine.rng_churn)
        if isinstance(ev, NodeAdded):
            self._node_joined(ev)
        else:
            self._node_left(ev)
        self._schedule_churn()

    def global_snapshot(self):
        views = [self.monitors[mid] for mid in sorted(self.monitors)]
        return compute_global_snapshot(views)

    def _on_probe(self) -> None:
        snap = self.global_snapshot()
        truth = self.topo.peer_edges()
        counts = classify_edges(snap.edges, truth)
        self.probes.append(
            ProbeSample(self.engine.now, counts.tp, counts.fp, counts.fn)
        )
        if self.snapshot_sink is not None:
            now = self.engine.now
            for mid in sorted(self.monitors):
                edges = ",".join(
                    f"{a}>{b}" for a, b in sorted(self.monitors[mid].edges)
                )
                self.snapshot_sink.write(f"{now}\tm{mid}\t{edges}\n")
            edges = ",".join(f"{a}>{b}" for a, b in sorted(snap.edges))
            self.snapshot_sink.write(f"{now}\tglobal\t{edges}\n")
        if self.engine.now + self.cfg.probe_every_ms <= self.cfg.duration_ms:
            self.engine.schedule(self.cfg.probe_every_ms, "probe")
