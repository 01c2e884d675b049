"""Wire messages and honest node behavior.

A node answers two kinds of marker only, told apart by `NodeState.classify`:
its own probe (a known monitor sent it a marker that names it) fans out to
every outbound peer, and a relay it owes (the marker's target sent it over an
inbound edge, for a known monitor) bounces back to the monitor. It drops the rest.

Reputation is a per-peer tally of monitor confirmations. A peer is cut
loose once at most half the monitors still vouch for it, but never before
every monitor has reported safe_rounds times for that peer. Each peer's
record is one flat list, `[short, refusals, bit_0, reports_0, ...]`: the
monitors still short of safe_rounds reports, those not vouching, then each
monitor's latest bit and report count at the index `NodeState.monitors`
maps it to, `2 + 2 * rank` among the sorted monitor ids.

A node's `outbound` and `inbound` sets are its rows of the ground-truth
`Topology`, and its monitor map is the one `monitor_slots` dict of its
`World`, all shared by reference; the node owns only one reputation record
per reported peer. Honest and malicious nodes answer through the same two
calls: `handle_marker` returns `Send`s, and `handle_verified` the sorted ids
of the peers to disconnect. A monitor's confirmation list, `VerifiedMsg`,
holds its few peer ids as an ascending tuple of distinct ids: a fraction of
a frozenset's size, which counts while every node's first round is in flight.
"""
from __future__ import annotations

from collections.abc import Iterable, Set as AbstractSet
from typing import NamedTuple

# Messages are plain named tuples. Relays, fabricated relays and round markers
# are built as `new(Send, (sender, to, marker))`: `tuple.__new__` skips the
# NamedTuple's Python-level `__new__` and still makes a `Send`.
new = tuple.__new__
# what `NodeState.classify` makes of a marker; 0 for a marker it drops
OWN_PROBE, RELAY_OWED = 1, 2


class Marker(NamedTuple):
    target: int
    monitor: int
    value: int  # 64-bit round nonce


class VerifiedMsg(NamedTuple):
    verified_peers: tuple[int, ...]  # distinct peer ids, ascending


class Send(NamedTuple):
    sender: int  # node the message is attributed to
    to: int
    marker: Marker


class UnknownPeer(Exception):
    pass


def monitor_slots(monitors: Iterable[int]) -> dict[int, int]:
    """monitor id -> the index of its (bit, reports) pair in a reputation record."""
    return {m: 2 + 2 * rank for rank, m in enumerate(sorted(monitors))}


class NodeState:
    """Protocol-visible state of one honest node."""

    __slots__ = ("id", "monitors", "safe_rounds", "outbound", "inbound", "tallies")

    def __init__(
        self,
        node_id: int,
        monitors: Iterable[int] | dict[int, int],
        safe_rounds: int = 3,
        *,
        outbound: AbstractSet[int] = frozenset(),
        inbound: AbstractSet[int] = frozenset(),
    ) -> None:
        self.id = node_id
        # a `monitor_slots` map is held by reference; bare ids get their own
        self.monitors = monitors if isinstance(monitors, dict) else monitor_slots(monitors)
        self.safe_rounds = safe_rounds
        # the node's Topology rows, held by reference and only ever read here
        self.outbound, self.inbound = outbound, inbound
        # peer -> its flat record (module docstring); a peer with no entry has
        # not been reported yet: every monitor vouches, with 0 reports
        self.tallies: dict[int, list] = {}

    def peers(self) -> set[int]:
        return self.outbound | self.inbound

    def forget(self, peer: int) -> None:
        """Drop the peer's record once its edge closes; a later edge to it
        starts fresh."""
        self.tallies.pop(peer, None)

    # -- marker relay --------------------------------------------------------

    def classify(self, sender: int, m: Marker) -> int:
        """OWN_PROBE when a known monitor sent this node a marker that names it,
        RELAY_OWED when the marker's target sent it over an inbound edge, for a
        known monitor; 0 when neither rule applies."""
        target, mon, _ = m
        if mon in self.monitors:
            if sender == mon and target == self.id:
                return OWN_PROBE
            if sender == target and sender in self.inbound:
                return RELAY_OWED
        return 0

    def fan_out(self, peers: Iterable[int], m: Marker) -> list[Send]:
        """`m` from this node to each of `peers`, in ascending peer order."""
        return [new(Send, (self.id, p, m)) for p in sorted(peers)]

    def handle_marker(self, sender: int, m: Marker) -> list[Send]:
        rule = self.classify(sender, m)
        if rule == OWN_PROBE:
            return self.fan_out(self.outbound, m)
        return [new(Send, (self.id, m.monitor, m))] if rule else []

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

    def handle_verified(self, from_monitor: int, v: VerifiedMsg) -> list[int]:
        slot = self.monitors.get(from_monitor)
        if slot is None:
            return []  # unknown sender, dropped
        tallies, safe, verified = self.tallies, self.safe_rounds, v.verified_peers
        n = len(self.monitors)
        cut = []
        # a report for p touches only p's record, so p is judged right away;
        # a pair starts as (vouching, 0 reports) and a bit is written on a flip
        for p in self.outbound | self.inbound:
            rec = tallies.get(p)
            if rec is None:
                rec = tallies[p] = [n if safe else 0, 0] + [1, 0] * n
            bit = p in verified
            if rec[slot] != bit:
                rec[slot] = bit
                rec[1] += -1 if bit else 1
            rec[slot + 1] += 1
            if rec[slot + 1] == safe:
                rec[0] -= 1
            if rec[0] == 0 and 2 * rec[1] >= n:
                cut.append(p)
        cut.sort()
        return cut
