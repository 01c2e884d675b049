"""Span tracer installed from outside the program.

`Tracer.install()` wraps the public functions of each topomon layer (the
table in `SPANS`), and every event handler as it is registered through
`Engine.on`. The program itself is not edited: the wrappers are set on the
classes and modules for the length of a `with tracer.install():` block and
removed afterwards.

Each call through a wrapper is one span: an entry-order id, the name, start
and end (`perf_counter_ns`), the id of the enclosing span (-1 at the top)
and the run id current when it started. Spans stay in memory in int64
arrays until `write()`. Calls and self time (duration minus the time
covered by child spans) are also summed per name as spans close; only the
handler percentiles read the spans back.
"""
from __future__ import annotations

import array
import contextlib
import json
import time
from pathlib import Path

from topomon import experiment, simulation
from topomon.adversary import Adversary
from topomon.engine import Engine
from topomon.metrics import OverheadLedger
from topomon.monitor import Monitor
from topomon.protocol import NodeState
from topomon.topology import Topology

# span name -> (owner, attribute). Module-level functions are patched where
# their caller looks them up: `World` calls `compute_global_snapshot` and
# `classify_edges` through names imported into `topomon.simulation`, and
# `run_sweep` calls `run_experiment` through `topomon.experiment`.
SPANS = {
    "engine.run_until": (Engine, "run_until"),
    "monitor.start_round": (Monitor, "start_round"),
    "monitor.receive_marker": (Monitor, "receive_marker"),
    "monitor.update_topology": (Monitor, "update_topology"),
    "monitor.build_verified_message": (Monitor, "build_verified_message"),
    "monitor.node_departed": (Monitor, "node_departed"),
    "monitor.schedule_next_round": (Monitor, "schedule_next_round"),
    "monitor.compute_global_snapshot": (simulation, "compute_global_snapshot"),
    "topology.add_node": (Topology, "add_node"),
    "topology.remove_node": (Topology, "remove_node"),
    "topology.churn_tick": (Topology, "churn_tick"),
    "topology.eligible_targets": (Topology, "eligible_targets"),
    "topology.peers_alive": (Topology, "peers_alive"),
    "protocol.handle_marker": (NodeState, "handle_marker"),
    "protocol.handle_verified": (NodeState, "handle_verified"),
    "adversary.handle_marker": (Adversary, "handle_marker"),
    "metrics.classify_edges": (simulation, "classify_edges"),
    "metrics.ledger.count": (OverheadLedger, "count"),
    "experiment.run_experiment": (experiment, "run_experiment"),
    "experiment.run_sweep": (experiment, "run_sweep"),
}

# event kinds registered by `World`; their handlers become simulation.<kind>
EVENT_KINDS = ("round_start", "round_timeout", "deliver", "churn", "probe")

COLUMNS = ("id", "name", "start_ns", "end_ns", "parent", "run")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {c: array.array("q") for c in COLUMNS}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.run_id = 0
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 0
        # counts taken where the work happens, beside the spans
        self.counts = {
            "engine.schedule.calls": 0,
            "engine.events": 0,
            "monitor.receive_marker.accepted": 0,
            "monitor.view_edges.sum": 0,
            "monitor.view_edges.samples": 0,
            "protocol.disconnects": 0,
            "adversary.fabricated_relays": 0,
        }

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._name_ids[name]

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """Return `fn` recording one span per call; `observe(args, result)`
        runs after the span closes, so its cost is not in the span."""
        nid = self.name_id(name)
        stack, clock = self._stack, time.perf_counter_ns
        c = self.cols
        ids, names, starts, ends, parents, runs = (c[k] for k in COLUMNS)
        calls, self_ns = self.calls, self.self_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            run = self.run_id
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                ids.append(sid)
                names.append(nid)
                starts.append(t0)
                ends.append(t1)
                parents.append(parent)
                runs.append(run)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observers(self):
        n = self.counts

        def run_until(args, processed):
            n["engine.events"] += processed

        def receive_marker(args, accepted):
            n["monitor.receive_marker.accepted"] += int(accepted)

        def snapshot(args, result):
            views = args[0]
            n["monitor.view_edges.sum"] += sum(len(v.edges) for v in views) / len(views)
            n["monitor.view_edges.samples"] += 1

        def handle_verified(args, disconnects):
            n["protocol.disconnects"] += len(disconnects)

        def adversary_marker(args, relays):
            own = args[0].state.id
            n["adversary.fabricated_relays"] += sum(1 for r in relays if r.sender != own)

        return {
            "engine.run_until": run_until,
            "monitor.receive_marker": receive_marker,
            "monitor.compute_global_snapshot": snapshot,
            "protocol.handle_verified": handle_verified,
            "adversary.handle_marker": adversary_marker,
        }

    @contextlib.contextmanager
    def install(self):
        """Wrap every function in `SPANS`, count `Engine.schedule` calls and
        wrap handlers passed to `Engine.on`; restore all on exit."""
        observers = self._observers()
        originals = []

        def patch(owner, attr, replacement):
            originals.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        for name, (owner, attr) in SPANS.items():
            patch(owner, attr, self.wrap(name, owner.__dict__[attr], observers.get(name)))

        schedule, on = Engine.schedule, Engine.on

        def counted_schedule(engine, *args):
            self.counts["engine.schedule.calls"] += 1
            return schedule(engine, *args)

        def traced_on(engine, kind, handler):
            on(engine, kind, self.wrap(f"simulation.{kind}", handler))

        traced_run_experiment = experiment.run_experiment

        def next_run(*args, **kwargs):
            self.run_id += 1  # each simulated run in a sweep gets its own id
            return traced_run_experiment(*args, **kwargs)

        patch(Engine, "schedule", counted_schedule)
        patch(Engine, "on", traced_on)
        patch(experiment, "run_experiment", next_run)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    # -- results -----------------------------------------------------------

    def durations_ns(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        c = self.cols
        return [e - s for k, s, e in zip(c["name"], c["start_ns"], c["end_ns"]) if k == nid]

    def stat(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) for a span name; zeros if never called."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_ns[nid] / 1e9

    def self_s_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.self_ns[nid] / 1e9
        return out

    def write(self, path: Path, meta: dict) -> None:
        """One JSON header line, then each column as raw int64 in `COLUMNS`
        order (`array('q').fromfile(f, count)` reads one back)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        count = len(self.cols["id"])
        header = dict(meta, columns=list(COLUMNS), names=self.names, count=count)
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for col in COLUMNS:
                self.cols[col].tofile(f)
