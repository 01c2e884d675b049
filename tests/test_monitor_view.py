"""The per-node monitor view agrees with a flat (a, b) edge-set model under
random sequences of discoveries, departures, rounds and row expiries: an
edge enters only when a relay is accepted, and a round close never grows a
row. A departure returns every row that pointed at the departed node; a
scan request on a row with an open round is served when that round closes."""
from __future__ import annotations

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from topomon.monitor import Monitor

MON_ID = 100
IDS = st.integers(0, 4)
SENDERS = st.sampled_from([0, 1, 2, 3, 4, MON_ID])


class FlatView:
    """Reference model: the whole view as one set of (a, b) pairs."""

    def __init__(self) -> None:
        self.nodes: set[int] = set()
        self.edges: set[tuple[int, int]] = set()

    def row(self, t: int) -> frozenset[int]:
        return frozenset(b for a, b in self.edges if a == t)

    def departed(self, n: int) -> list[int]:
        self.nodes.discard(n)
        repair = sorted({a for a, b in self.edges if b == n})
        self.edges = {(a, b) for a, b in self.edges if n not in (a, b)}
        return repair

    def expire(self, t: int, collected: frozenset[int]) -> None:
        self.edges = {(a, b) for a, b in self.edges if a != t or b in collected}

    def verified(self, t: int) -> tuple[int, ...]:
        """Each peer on either side of t once, ascending."""
        return tuple(sorted(self.row(t) | {a for a, b in self.edges if b == t}))


def adapted(f: int, c: int) -> int:
    """Scan frequency after a round with c changes, at f_min 1 and f_max 10."""
    if c == 0:
        return min(f + 1, 10)
    return f if c == 1 else max(1, f - c)


class MonitorViewMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.mon = Monitor(MON_ID)
        self.model = FlatView()
        self.rng = random.Random(0)
        self.markers = []  # every marker issued, so stale ones get replayed
        self.priors: dict[int, frozenset[int]] = {}  # one per open round
        self.collected: dict[int, set[int]] = {}
        self.flagged: set[int] = set()  # open rounds a scan request flagged

    @rule(n=IDS)
    def discover(self, n):
        self.mon.node_discovered(n)
        self.model.nodes.add(n)

    @rule(n=IDS)
    def depart(self, n):
        self.priors.pop(n, None)
        self.collected.pop(n, None)
        self.flagged.discard(n)
        repair = self.model.departed(n)
        assert self.mon.node_departed(n) == repair
        for a in repair:
            self.request_scan(a)

    @rule(n=IDS)
    def request_scan(self, n):
        assert self.mon.request_scan(n) is (n not in self.priors)
        if n in self.priors:
            self.flagged.add(n)

    def edges_under_scan(self) -> list[tuple[int, int]]:
        return sorted((t, p) for t, p in self.model.edges if t in self.priors and p != t)

    @precondition(edges_under_scan)
    @rule(data=st.data())
    def depart_from_row_under_scan_then_close(self, data):
        t, p = data.draw(st.sampled_from(self.edges_under_scan()))
        self.depart(p)
        self.close(t)

    @precondition(lambda self: self.mon.nodes - self.mon.rounds.keys())
    @rule(data=st.data())
    def start_round(self, data):
        t = data.draw(st.sampled_from(sorted(self.mon.nodes - self.mon.rounds.keys())))
        self.markers.append(self.mon.start_round(t, self.rng))
        self.priors[t] = self.model.row(t)
        self.collected[t] = set()

    @rule(sender=SENDERS, pick=st.integers(0, 1 << 16))
    def relay(self, sender, pick):
        if not self.markers:
            return
        m = self.markers[-1 - pick % len(self.markers)]  # small picks: recent markers
        rnd = self.mon.rounds.get(m.target)
        live = rnd is not None and rnd.value == m.value
        want = live and sender not in (m.target, MON_ID) and sender in self.model.nodes
        assert self.mon.receive_marker(sender, m) is want
        if want:
            self.model.edges.add((m.target, sender))
            self.collected[m.target].add(sender)

    @precondition(lambda self: self.mon.rounds)
    @rule(data=st.data())
    def close_round(self, data):
        self.close(data.draw(st.sampled_from(sorted(self.mon.rounds))))

    def close(self, t):
        prior = self.priors.pop(t)
        row_at_start = self.mon.rounds[t].prior_row
        assert len(row_at_start) == len(prior) and frozenset(row_at_start) == prior
        collected = frozenset(self.collected.pop(t))
        f, row = self.mon.freq[t], self.mon.outbound_row(t)
        _, delay = self.mon.close_round(t, self.rng)
        assert self.mon.outbound_row(t) <= row  # a close only expires
        self.model.expire(t, collected)
        c = len(prior ^ collected)
        assert self.mon.freq[t] == adapted(f, c)
        # a repair flag means scan again at once; otherwise at least f_min s
        assert (delay == 0) is (t in self.flagged)
        self.flagged.discard(t)

    @rule(t=IDS, collected=st.frozensets(IDS))
    def update_topology(self, t, collected):
        if t not in self.mon.nodes:
            return
        prior = self.model.row(t)
        c = self.mon.update_topology(t, collected, tuple(self.mon.outbound_row(t)))
        assert self.mon.outbound_row(t) == prior & collected  # never grows
        self.model.expire(t, collected)
        assert c == len(prior ^ collected)

    @invariant()
    def out_and_inb_mirror(self):
        mon = self.mon
        assert {(a, b) for a, row in mon.out.items() for b in row} == {
            (a, b) for b, col in mon.inb.items() for a in col
        }

    @invariant()
    def rows_hold_distinct_ids(self):
        for rows in (self.mon.out, self.mon.inb):
            for row in rows.values():
                assert len(set(row)) == len(row)

    @invariant()
    def edges_match_model(self):
        assert self.mon.edges == self.model.edges
        assert self.mon.nodes == self.model.nodes

    @invariant()
    def verified_messages_match_model(self):
        for t in range(5):
            got = self.mon.build_verified_message(t).verified_peers
            assert got == self.model.verified(t)

    @invariant()
    def endpoints_are_known_nodes(self):
        for a, b in self.mon.edges:
            assert a in self.mon.nodes and b in self.mon.nodes


MonitorViewMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
test_monitor_view_matches_flat_model = MonitorViewMachine.TestCase
