"""Monitor-side scanning and snapshot aggregation.

A monitor probes one target at a time per node: it sends a nonce-carrying
marker to the target, collects the relays that bounce back within the
timeout, and rewrites the target's outbound row in its local view from the
collected set. The per-node scan frequency breathes with observed change:
idle rows slow down, churning rows speed up.

The round lifecycle lives here: `start_round` opens a round, `close_round`
rewrites the row, adapts the frequency and returns the confirmation list
with the delay from this round's start to the next; this layer never
reads the clock.

The view is kept as per-node rows: `out[a]` holds the peers a's outbound
row points at and `inb[b]` the nodes whose rows point at b, always the
mirror of each other. Every round reads and rewrites only its target's
row and the rows of that target's neighbours, so a round costs O(degree)
whatever the population; the aggregate snapshot is the only pass over
every edge, and `edges` derives the flat (a, b) pairs on demand.

Two timeliness details matter for how fresh the view stays under churn:
relayed confirmations are inserted into the view the moment they arrive
(removals still wait for round close), and a departure triggers immediate
re-scans of every node whose row pointed at the departed peer.
"""
from __future__ import annotations

import random
from collections.abc import Set as AbstractSet
from dataclasses import dataclass

from topomon.engine import sample_poisson
from topomon.protocol import Marker, VerifiedMsg, new

SCHEDULING_MODES = ("poisson", "fixed")


class RoundAlreadyOpen(Exception):
    pass


class NoOpenRound(Exception):
    pass


class EmptyInput(Exception):
    pass


@dataclass(slots=True)
class Round:
    value: int
    prior_row: frozenset[int]  # outbound row frozen at round start
    collected: set[int]
    rescan: bool = False  # a departure asked for a repair scan while the round was open


class Monitor:
    def __init__(
        self,
        mon_id: int,
        *,
        f_init: int = 5,
        f_min: int = 1,
        f_max: int = 10,
        mode: str = "poisson",
        adaptive: bool = True,  # False pins every scan frequency at f_init
    ) -> None:
        if not (f_min <= f_init <= f_max):
            raise ValueError("need f_min <= f_init <= f_max")
        if mode not in SCHEDULING_MODES:
            raise ValueError(f"unknown scheduling mode {mode!r}")
        self.id = mon_id
        self.f_init = f_init
        self.f_min = f_min
        self.f_max = f_max
        self.mode = mode
        self.adaptive = adaptive
        self.nodes: set[int] = set()
        self.out: dict[int, set[int]] = {}
        self.inb: dict[int, set[int]] = {}
        self.freq: dict[int, int] = {}
        self.rounds: dict[int, Round] = {}

    # -- membership ----------------------------------------------------------

    def node_discovered(self, n: int) -> None:
        self.nodes.add(n)
        self.freq[n] = self.f_init

    def node_departed(self, n: int) -> list[int]:
        """Forget the node. Returns, sorted, the nodes whose row held an edge
        to it and have no open round, to scan right away: the departed peer's
        replacement edges are already live in the ground truth. An open round
        on such a row is flagged, so `close_round` asks for the repair scan."""
        self.nodes.discard(n)
        self.freq.pop(n, None)
        self.rounds.pop(n, None)
        scan_now = []
        for a in sorted(self.inb.pop(n, ())):
            self.out[a].discard(n)
            rnd = self.rounds.get(a)
            if rnd is None:
                scan_now.append(a)
            else:
                rnd.rescan = True
        for b in self.out.pop(n, ()):
            self.inb[b].discard(n)
        return scan_now

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The view as (a, b) pairs; built on each call, for reading only."""
        return frozenset((a, b) for a, row in self.out.items() for b in row)

    def outbound_row(self, target: int) -> frozenset[int]:
        return frozenset(self.out.get(target, ()))

    # -- verification rounds ---------------------------------------------------

    def start_round(self, target: int, rng: random.Random) -> Marker:
        if target in self.rounds:
            raise RoundAlreadyOpen(f"monitor {self.id} target {target}")
        value = rng.getrandbits(64)
        self.rounds[target] = Round(value, self.outbound_row(target), set())
        return new(Marker, (target, self.id, value))

    def receive_marker(self, sender: int, m: Marker) -> bool:
        """Accept a relayed marker into the open round it answers.

        Anything that does not match an open round exactly is dropped:
        stale nonce values (replays), wrong monitor, closed rounds, the
        target answering for itself, or senders no longer in the view.
        """
        target = m.target
        rnd = self.rounds.get(target)
        if rnd is None or m.monitor != self.id or m.value != rnd.value:
            return False
        if sender == target or sender == self.id or sender not in self.nodes:
            return False
        rnd.collected.add(sender)
        # confirmed link, visible at once; a row is built only when missing
        row = self.out.get(target)
        if row is None:
            row = self.out[target] = set()
        row.add(sender)
        row = self.inb.get(sender)
        if row is None:
            row = self.inb[sender] = set()
        row.add(target)
        return True

    def close_round(self, target: int, rng: random.Random) -> tuple[VerifiedMsg, int]:
        """Rewrite the target's row from the round's relays, adapt its scan
        frequency, and return the confirmation list for the target with the
        delay in ms from this round's start to the next: 0, drawing nothing
        from `rng`, when a departure flagged the row for repair."""
        rnd = self.rounds.pop(target, None)
        if rnd is None:
            raise NoOpenRound(f"monitor {self.id} target {target}")
        c = self.update_topology(target, rnd.collected, rnd.prior_row)
        if self.adaptive:
            self.adjust_frequency(target, c)
        msg = self.build_verified_message(target)
        return msg, 0 if rnd.rescan else self.schedule_next_round(target, rng)

    # -- view maintenance --------------------------------------------------------

    def update_topology(
        self, target: int, collected: AbstractSet[int], prior: frozenset[int]
    ) -> int:
        """Rewrite the target's outbound row from the collected set and
        return how many edges changed against `prior`, the pre-round row.
        Only the mirror rows of peers entering or leaving the row are touched."""
        row = self.nodes.intersection(collected)
        old = self.out.get(target, frozenset())
        for b in old - row:
            self.inb[b].discard(target)
        for p in row - old:
            mirror = self.inb.get(p)
            if mirror is None:
                mirror = self.inb[p] = set()
            mirror.add(target)
        self.out[target] = row
        return len(prior.symmetric_difference(collected))

    def adjust_frequency(self, target: int, c: int) -> None:
        f = self.freq[target]
        if c == 0 and f < self.f_max:
            self.freq[target] = f + 1
        elif c > 1:
            self.freq[target] = max(self.f_min, f - c)
        # c == 1 leaves the frequency unchanged

    def build_verified_message(self, target: int) -> VerifiedMsg:
        peers = frozenset(self.out.get(target, ()))
        return VerifiedMsg(peers.union(self.inb.get(target, ())))

    def schedule_next_round(self, target: int, rng: random.Random) -> int:
        """Delay in ms from round start to the next round's start."""
        f = self.freq[target]
        if self.mode == "fixed":
            return 1000 * f
        k = sample_poisson(rng, float(f))
        return 1000 * min(self.f_max, max(self.f_min, k))


# -- aggregation across monitors ---------------------------------------------


@dataclass(frozen=True)
class GlobalSnapshot:
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]
    monitor_count: int


def compute_global_snapshot(views: list[Monitor]) -> GlobalSnapshot:
    """Keep the edges a strict majority of the views agrees on."""
    if not views:
        raise EmptyInput("no local views")
    gamma = len(views)
    nodes: set[int] = set()
    tally: dict[tuple[int, int], int] = {}
    for v in views:
        nodes |= v.nodes
        for e in v.edges:
            tally[e] = tally.get(e, 0) + 1
    edges = frozenset(e for e, k in tally.items() if 2 * k > gamma)
    return GlobalSnapshot(frozenset(nodes), edges, gamma)


def max_error_window(freqs: list[int]) -> int:
    """Longest time a single edge error can survive in the aggregate view:
    the smallest scan period shared by a strict majority of monitors."""
    if not freqs:
        raise EmptyInput("no frequencies")
    return sorted(freqs)[len(freqs) // 2]
