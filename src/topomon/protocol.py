"""Wire messages and honest node behavior.

A node relays link-verification markers under two rules only: markers
arriving from a known monitor fan out to every outbound peer, and markers
arriving from their own target via an inbound edge bounce back to the
monitor. Everything else is dropped silently.

Reputation is a per-peer tally of monitor confirmations. A peer is cut
loose once at most half the monitors still vouch for it, but never before
every monitor has reported safe_rounds times for that peer.

A node's `outbound` and `inbound` sets are its rows of the ground-truth
`Topology`, shared by reference; the node owns only one reputation record
per reported peer. Honest and malicious nodes answer through the same two
calls: `handle_marker` returns `Send`s, `handle_verified` `Disconnect`s.
"""
from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import NamedTuple

# Messages are plain named tuples. Relays, fabricated relays and round markers
# are built as `new(Send, (sender, to, marker))`: `tuple.__new__` skips the
# NamedTuple's Python-level `__new__` and still makes a `Send`.
new = tuple.__new__


class Marker(NamedTuple):
    target: int
    monitor: int
    value: int  # 64-bit round nonce


class VerifiedMsg(NamedTuple):
    verified_peers: frozenset[int]


class Send(NamedTuple):
    sender: int  # node the message is attributed to
    to: int
    marker: Marker


class Disconnect(NamedTuple):
    peer: int


class UnknownPeer(Exception):
    pass


class NodeState:
    """Protocol-visible state of one honest node."""

    def __init__(
        self,
        node_id: int,
        monitors: set[int],
        safe_rounds: int = 3,
        *,
        outbound: AbstractSet[int] = frozenset(),
        inbound: AbstractSet[int] = frozenset(),
    ) -> None:
        self.id = node_id
        self.monitors = frozenset(monitors)
        self.safe_rounds = safe_rounds
        # the node's Topology rows, held by reference and only ever read here
        self.outbound, self.inbound = outbound, inbound
        # peer -> [monitors short of safe_rounds reports, monitors not vouching,
        # {monitor: [latest bit, reports]}]; a peer or monitor with no entry
        # has not been reported yet: vouched for, 0 reports
        self.tallies: dict[int, list] = {}

    def peers(self) -> set[int]:
        return self.outbound | self.inbound

    def forget(self, peer: int) -> None:
        """Drop the peer's record once its edge closes; a later edge to it
        starts fresh."""
        self.tallies.pop(peer, None)

    # -- marker relay --------------------------------------------------------

    def handle_marker(self, sender: int, m: Marker) -> list[Send]:
        if sender == m.monitor and m.monitor in self.monitors:
            return [new(Send, (self.id, p, m)) for p in sorted(self.outbound)]
        if sender == m.target and sender in self.inbound and m.monitor in self.monitors:
            return [new(Send, (self.id, m.monitor, m))]
        return []

    # -- reputation ----------------------------------------------------------

    def reputation(self, peer: int) -> int:
        rec = self.tallies.get(peer)
        return len(self.monitors) - (rec[1] if rec else 0)

    def check_reputation(self, peer: int) -> bool:
        """True when the peer must be disconnected: every monitor has
        reported safe_rounds times, and at most half vouch."""
        if peer not in self.outbound and peer not in self.inbound:
            raise UnknownPeer(str(peer))
        rec = self.tallies.get(peer)
        return rec is not None and rec[0] == 0 and 2 * rec[1] >= len(self.monitors)

    def handle_verified(self, from_monitor: int, v: VerifiedMsg) -> list[Disconnect]:
        if from_monitor not in self.monitors:
            return []  # unknown sender, dropped
        tallies, safe, verified = self.tallies, self.safe_rounds, v.verified_peers
        n = len(self.monitors)
        cut = []
        # a report for p touches only p's record, so p is judged right away;
        # a slot starts as [vouching, 0 reports] and a bit is written on a flip
        for p in self.outbound | self.inbound:
            rec = tallies.get(p)
            if rec is None:
                rec = tallies[p] = [n if safe else 0, 0, {}]
            slot = rec[2].get(from_monitor)
            if slot is None:
                slot = rec[2][from_monitor] = [1, 0]
            bit = p in verified
            if slot[0] != bit:
                slot[0] = bit
                rec[1] += -1 if bit else 1
            slot[1] += 1
            if slot[1] == safe:
                rec[0] -= 1
            if rec[0] == 0 and 2 * rec[1] >= n:
                cut.append(p)
        cut.sort()
        return [Disconnect(p) for p in cut]
