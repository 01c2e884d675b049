"""Wire messages and honest node behavior.

A node relays link-verification markers under two rules only: markers
arriving from a known monitor fan out to every outbound peer, and markers
arriving from their own target via an inbound edge bounce back to the
monitor. Everything else is dropped silently.

Reputation is a per-peer tally of monitor confirmations. A peer is cut
loose once at most half the monitors still vouch for it, but never before
every monitor has reported safe_rounds times for that peer.

A node's `outbound`, `inbound` and `banned` sets are its rows of the
ground-truth `Topology`, shared by reference; the node owns only its
reputation tables. Honest and malicious nodes answer through the same two
calls: `handle_marker` returns `Send`s, `handle_verified` `Disconnect`s.
"""
from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import NamedTuple

# Messages are plain named tuples: one is built per relayed marker, and a
# tuple costs a fraction of a frozen dataclass to construct.


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
        banned: AbstractSet[int] = frozenset(),
    ) -> None:
        self.id = node_id
        self.monitors = frozenset(monitors)
        self.safe_rounds = safe_rounds
        # the node's Topology rows, held by reference and only ever read here
        self.outbound, self.inbound, self.banned = outbound, inbound, banned
        # per (peer, monitor): latest confirmation bit and reports received;
        # a missing entry reads as a fresh peer: vouched for, 0 reports
        self.status: dict[tuple[int, int], int] = {}
        self.rounds_seen: dict[tuple[int, int], int] = {}

    def peers(self) -> set[int]:
        return self.outbound | self.inbound

    def forget(self, peer: int) -> None:
        """Drop the peer's tallies once its edge closes; a later edge to
        it starts fresh."""
        for m in self.monitors:
            self.status.pop((peer, m), None)
            self.rounds_seen.pop((peer, m), None)

    # -- marker relay --------------------------------------------------------

    def handle_marker(self, sender: int, m: Marker) -> list[Send]:
        if sender == m.monitor and m.monitor in self.monitors:
            return [Send(self.id, p, m) for p in sorted(self.outbound)]
        if sender == m.target and sender in self.inbound and m.monitor in self.monitors:
            return [Send(self.id, m.monitor, m)]
        return []

    # -- reputation ----------------------------------------------------------

    def reputation(self, peer: int) -> int:
        status = self.status
        return sum(status.get((peer, m), 1) for m in self.monitors)

    def check_reputation(self, peer: int) -> bool:
        """True when the peer must be disconnected."""
        if peer not in self.outbound and peer not in self.inbound:
            raise UnknownPeer(str(peer))
        if 2 * self.reputation(peer) > len(self.monitors):
            return False
        seen, safe = self.rounds_seen, self.safe_rounds
        return all(seen.get((peer, m), 0) >= safe for m in self.monitors)

    def handle_verified(self, from_monitor: int, v: VerifiedMsg) -> list[Disconnect]:
        if from_monitor not in self.monitors:
            return []  # unknown sender, dropped
        status, seen, verified = self.status, self.rounds_seen, v.verified_peers
        peers = sorted(self.outbound | self.inbound)
        for p in peers:
            key = (p, from_monitor)
            status[key] = 1 if p in verified else 0
            seen[key] = seen.get(key, 0) + 1
        return [Disconnect(p) for p in peers if self.check_reputation(p)]
