"""Monitor-side scanning and snapshot aggregation.

A monitor probes one target at a time per node: it sends a nonce-carrying
marker to the target and adds to the target's outbound row in its local
view each peer whose relay bounces back within the timeout. The per-node
scan frequency breathes with observed change: idle rows slow down,
churning rows speed up.

The round lifecycle lives here: `start_round` opens a round, keeping the
target's row object as it stood then; `close_round` expires the row's
unconfirmed peers, adapts the frequency and returns the confirmation list,
the target's outbound and inbound peers as one ascending tuple, with the
delay from this round's start to the next; this layer never reads the
clock. Every node's first round is open at once, so a round keeps only
that row, a list its relays' senders are appended to, and its nonce.

The view is kept as per-node rows of distinct ids, each an immutable tuple,
the smallest container for a handful of ids: `out[a]` holds the peers a's
outbound row points at and `inb[b]` the nodes whose rows point at b, always
the mirror of each other. A change stores a new tuple, so a round's snapshot
is the row itself and a relay re-confirming a known edge writes nothing.
Every round touches only its target's row and its neighbours' rows, so a
round costs O(degree) whatever the population; the aggregate snapshot is
the only pass over every edge, and `edges` derives the (a, b) pairs.

An edge has one way in and two ways out, which sets how fresh the view
stays under churn: `receive_marker` inserts a confirmed link the moment
its relay arrives; the link leaves when a round on its row closes without
confirming it, or when either end departs. A departure returns the rows
that pointed at the departed peer, and the caller asks `request_scan` to
rescan each, as for a join's first scan: now, or at its open round's close.
"""
from __future__ import annotations

import random
from collections.abc import Iterable, KeysView
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
    prior_row: tuple[int, ...]  # the outbound row at round start: rows are never edited
    collected: list[int]  # each accepted relay's sender, repeats and all
    rescan: bool = False  # a scan was requested while the round was open


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
        self.out: dict[int, tuple[int, ...]] = {}
        self.inb: dict[int, tuple[int, ...]] = {}
        self.freq: dict[int, int] = {}  # its keys are the monitored nodes
        self.rounds: dict[int, Round] = {}

    # -- membership ----------------------------------------------------------

    @property
    def nodes(self) -> KeysView[int]:  # the monitored nodes, read-only
        return self.freq.keys()

    def node_discovered(self, n: int) -> None:
        self.freq[n] = self.f_init

    def node_departed(self, n: int) -> list[int]:
        """Forget the node. Returns, sorted, the nodes whose row held an edge to
        it: their replacement edges are already live, so each wants a repair scan."""
        self.freq.pop(n, None)
        self.rounds.pop(n, None)
        affected = sorted(self.inb.pop(n, ()))
        for a in affected:
            self.out[a] = _without(self.out[a], n)
        for b in self.out.pop(n, ()):
            self.inb[b] = _without(self.inb[b], n)
        return affected

    def request_scan(self, n: int) -> bool:
        """Ask for a scan of `n` as soon as possible. True: no round is open, so
        the caller starts one now; False: `close_round` asks for one at once."""
        rnd = self.rounds.get(n)
        if rnd is not None:
            rnd.rescan = True
        return rnd is None

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
        self.rounds[target] = Round(value, self.out.get(target, ()), [])
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
        if sender == target or sender == self.id or sender not in self.freq:
            return False
        rnd.collected.append(sender)
        row = self.out.get(target, ())
        if sender not in row:  # the one insertion, visible at once
            self.out[target] = row + (sender,)
            self.inb[sender] = self.inb.get(sender, ()) + (target,)
        return True

    def close_round(self, target: int, rng: random.Random) -> tuple[VerifiedMsg, int]:
        """Expire the peers the round did not confirm, adapt the target's
        scan frequency, and return its confirmation list with the delay in
        ms from this round's start to the next: 0, drawing nothing from
        `rng`, when `request_scan` flagged the round."""
        rnd = self.rounds.pop(target, None)
        if rnd is None:
            raise NoOpenRound(f"monitor {self.id} target {target}")
        c = self.update_topology(target, set(rnd.collected), rnd.prior_row)
        if self.adaptive:
            self.adjust_frequency(target, c)
        msg = self.build_verified_message(target)
        return msg, 0 if rnd.rescan else self.schedule_next_round(target, rng)

    # -- view maintenance --------------------------------------------------------

    def update_topology(
        self, target: int, collected: set[int] | frozenset[int], prior: Iterable[int]
    ) -> int:
        """Drop from the target's outbound row every peer not in `collected`,
        with its mirror entry, and return how many edges changed against
        `prior`, the pre-round row. Nothing is inserted here: each confirmed
        peer entered the row when `receive_marker` accepted its relay."""
        row = self.out.get(target, ())
        if not collected.issuperset(row):
            for b in row:
                if b not in collected:
                    self.inb[b] = _without(self.inb[b], target)
            self.out[target] = tuple(filter(collected.__contains__, row))
        return len(collected.symmetric_difference(prior))

    def adjust_frequency(self, target: int, c: int) -> None:
        f = self.freq[target]
        if c == 0 and f < self.f_max:
            self.freq[target] = f + 1
        elif c > 1:
            self.freq[target] = max(self.f_min, f - c)
        # c == 1 leaves the frequency unchanged

    def build_verified_message(self, target: int) -> VerifiedMsg:
        peers = {*self.out.get(target, ()), *self.inb.get(target, ())}
        return new(VerifiedMsg, (tuple(sorted(peers)),))

    def schedule_next_round(self, target: int, rng: random.Random) -> int:
        """Delay in ms from round start to the next round's start."""
        f = self.freq[target]
        if self.mode == "fixed":
            return 1000 * f
        k = sample_poisson(rng, float(f))
        return 1000 * min(self.f_max, max(self.f_min, k))


def _without(row: tuple[int, ...], peer: int) -> tuple[int, ...]:
    i = row.index(peer)
    return row[:i] + row[i + 1:]


# -- aggregation across monitors ---------------------------------------------


@dataclass(frozen=True)
class GlobalSnapshot:
    edges: frozenset[tuple[int, int]]


def compute_global_snapshot(views: list[Monitor]) -> GlobalSnapshot:
    """Keep the edges a strict majority of the views agrees on."""
    if not views:
        raise EmptyInput("no local views")
    gamma = len(views)
    tally: dict[tuple[int, int], int] = {}
    for v in views:
        for e in v.edges:
            tally[e] = tally.get(e, 0) + 1
    return GlobalSnapshot(frozenset(e for e, k in tally.items() if 2 * k > gamma))


def max_error_window(freqs: list[int]) -> int:
    """Longest time a single edge error can survive in the aggregate view:
    the smallest scan period shared by a strict majority of monitors."""
    if not freqs:
        raise EmptyInput("no frequencies")
    return sorted(freqs)[len(freqs) // 2]
