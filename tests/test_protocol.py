"""Marker relay rules and the reputation threshold."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topomon.protocol import Marker, NodeState, Send, UnknownPeer, VerifiedMsg
from topomon.topology import Role, Topology

MONITORS = {100, 101, 102, 103}


def node(nid=1, monitors=MONITORS, out=(), inb=(), safe_rounds=3) -> NodeState:
    return NodeState(nid, set(monitors), safe_rounds, outbound=set(out), inbound=set(inb))


# -- handle_marker -----------------------------------------------------------


def test_target_fans_marker_out_to_all_outbound():
    n = node(nid=1, out=(5, 3, 4))
    m = Marker(target=1, monitor=100, value=7)
    acts = n.handle_marker(100, m)
    assert acts == [Send(1, 3, m), Send(1, 4, m), Send(1, 5, m)]


def test_peer_bounces_marker_from_inbound_target_to_monitor():
    p = node(nid=2, inb=(1,))
    m = Marker(target=1, monitor=100, value=7)
    assert p.handle_marker(1, m) == [Send(2, 100, m)]


def test_marker_from_outbound_peer_is_dropped():
    p = node(nid=2, out=(1,))
    m = Marker(target=1, monitor=100, value=7)
    assert p.handle_marker(1, m) == []


def test_marker_with_mismatched_target_is_dropped():
    p = node(nid=2, inb=(9,))
    m = Marker(target=1, monitor=100, value=7)
    assert p.handle_marker(9, m) == []
    # a known monitor's marker that names another node is no probe of this one
    n = node(nid=2, out=(5,), inb=(9,))
    assert n.handle_marker(100, m) == []


def test_marker_from_unknown_monitor_is_dropped():
    n = node(nid=1, out=(5,), inb=(6,))
    m = Marker(target=1, monitor=999, value=7)
    assert n.handle_marker(999, m) == []
    relay = Marker(target=6, monitor=999, value=8)
    assert n.handle_marker(6, relay) == []


@given(
    sender=st.integers(0, 20),
    target=st.integers(0, 20),
    monitor=st.sampled_from(sorted(MONITORS) + [999]),
)
@settings(max_examples=300, deadline=None)
def test_relay_never_invents_monitors(sender, target, monitor):
    n = node(nid=1, out=(2, 3), inb=(4, 5))
    for act in n.handle_marker(sender, Marker(target, monitor, 42)):
        assert act.marker.monitor in (monitor,)
        if act.to in MONITORS or act.to == 999:
            # a bounce toward a monitor only happens for known monitors
            assert monitor in MONITORS


# -- reputation --------------------------------------------------------------


def report_all(n: NodeState, peer: int, vouching=()) -> None:
    """Every monitor reports `peer` safe_rounds times; those in `vouching`
    confirm it each time, the others never do."""
    for m in sorted(n.monitors):
        msg = VerifiedMsg(frozenset({peer} if m in vouching else ()))
        for _ in range(n.safe_rounds):
            n.handle_verified(m, msg)


def test_initial_reputation_is_full():
    n = node(out=(7,))
    assert n.reputation(7) == 4


@pytest.mark.parametrize(
    "gamma,phi,expect_drop",
    [
        (4, 2, True),
        (4, 3, False),
        (4, 4, False),
        (4, 0, True),
        (3, 2, False),
        (3, 1, True),
        (1, 0, True),
        (1, 1, False),
        (7, 3, True),
        (7, 4, False),
    ],
)
def test_majority_threshold_table(gamma, phi, expect_drop):
    monitors = set(range(200, 200 + gamma))
    n = node(monitors=monitors, out=(7,))
    report_all(n, 7, vouching=sorted(monitors)[:phi])
    assert n.check_reputation(7) is expect_drop


def test_safe_period_blocks_disconnect_until_every_monitor_reports():
    n = node(out=(7,))
    absent = VerifiedMsg(frozenset())
    for m in sorted(n.monitors):
        n.handle_verified(m, absent)
    assert n.check_reputation(7) is False  # nobody vouches, 1 of 3 reports each
    for m in (100, 101, 102):
        for _ in range(2):
            n.handle_verified(m, absent)
    assert n.check_reputation(7) is False  # one monitor still short
    for _ in range(2):
        n.handle_verified(103, absent)
    assert n.check_reputation(7) is True


def test_check_reputation_rejects_strangers():
    n = node(out=(7,))
    with pytest.raises(UnknownPeer):
        n.check_reputation(8)


def test_handle_verified_updates_statuses_and_counts():
    n = node(nid=1, out=(7, 8), inb=(9,))
    n.handle_verified(100, VerifiedMsg(frozenset({7, 9})))
    # per peer: [monitors short of safe_rounds, refusals, then (bit, reports)
    # for monitors 100, 101, 102 and 103]
    assert n.tallies[7] == [4, 0, 1, 1, 1, 0, 1, 0, 1, 0]
    assert n.tallies[8] == [4, 1, 0, 1, 1, 0, 1, 0, 1, 0]  # 101 has not reported
    assert n.tallies[9] == [4, 0, 1, 1, 1, 0, 1, 0, 1, 0]
    assert [n.reputation(p) for p in (7, 8, 9)] == [4, 3, 4]


def test_handle_verified_disconnects_after_majority_loss():
    n = node(nid=1, out=(7,))
    absent = VerifiedMsg(frozenset())
    # three monitors stop vouching; one still does. The moment the last
    # monitor's third report lands, the safe period ends and phi=1 bites.
    for i in range(3):
        for m in (100, 101, 102):
            assert n.handle_verified(m, absent) == []
        expected = [7] if i == 2 else []
        assert n.handle_verified(103, VerifiedMsg(frozenset({7}))) == expected


def test_verified_from_unknown_sender_is_ignored():
    n = node(nid=1, out=(7,))
    assert n.handle_verified(999, VerifiedMsg(frozenset())) == []
    assert n.tallies == {}


def test_fresh_connection_resets_safe_period():
    n = node(nid=1, out=(7,))
    report_all(n, 7)
    assert n.check_reputation(7) is True
    n.outbound.discard(7)  # the edge closes ...
    n.forget(7)
    n.outbound.add(7)  # ... and a new one opens
    assert 7 not in n.tallies
    assert n.reputation(7) == 4
    assert n.check_reputation(7) is False


def test_topology_ban_shows_through_and_forget_purges():
    topo = Topology()
    for nid in (1, 7, 8):
        topo.out[nid], topo.inb[nid] = set(), set()  # a banned row comes with the first ban
        topo.set_role(nid, Role.HONEST)
    topo.open_connection(1, 7)
    topo.open_connection(8, 1)
    n = NodeState(1, MONITORS, outbound=topo.out[1], inbound=topo.inb[1])
    n.handle_verified(100, VerifiedMsg(frozenset({7, 8})))
    assert 7 in n.tallies
    topo.close_connection(1, 7)
    topo.ban(1, 7)
    n.forget(7)
    assert 7 in topo.banned[1]
    assert 7 not in n.peers()
    assert 7 not in n.tallies and 8 in n.tallies


@given(
    gamma=st.integers(1, 7),
    bits=st.lists(st.integers(0, 1), min_size=7, max_size=7),
)
@settings(max_examples=300, deadline=None)
def test_reputation_bounds_and_rule(gamma, bits):
    monitors = set(range(300, 300 + gamma))
    n = node(monitors=monitors, out=(7,))
    report_all(n, 7, vouching=[m for m, b in zip(sorted(monitors), bits) if b])
    phi = n.reputation(7)
    assert 0 <= phi <= gamma
    assert n.check_reputation(7) is (2 * phi <= gamma)


class PerMonitorRule:
    """The reputation rule as first stated: a latest bit and a report count
    per (peer, monitor), and every decision walks all the monitors."""

    def __init__(self, monitors, safe_rounds):
        self.monitors, self.safe = frozenset(monitors), safe_rounds
        self.status, self.seen = {}, {}

    def reputation(self, p):
        return sum(self.status.get((p, m), 1) for m in self.monitors)

    def must_disconnect(self, p):
        if any(self.seen.get((p, m), 0) < self.safe for m in self.monitors):
            return False
        return 2 * self.reputation(p) <= len(self.monitors)

    def handle_verified(self, m, peers, verified):
        if m not in self.monitors:
            return []
        cut = []
        for p in sorted(peers):
            self.status[(p, m)] = int(p in verified)
            self.seen[(p, m)] = self.seen.get((p, m), 0) + 1
            if self.must_disconnect(p):
                cut.append(p)
        return cut

    def forget(self, p):
        for m in self.monitors:
            self.status.pop((p, m), None)
            self.seen.pop((p, m), None)


PEERS = (5, 6, 7)


def reputation_ops(monitors: set[int]):
    """Reports from the monitors or from unknown senders outside them, and forgets."""
    stranger = st.integers(0, 10**6).filter(lambda m: m not in monitors)
    sender = st.one_of(st.sampled_from(sorted(monitors)), stranger)
    return st.lists(
        st.one_of(
            st.tuples(st.just("report"), sender, st.frozensets(st.sampled_from(PEERS))),
            st.tuples(st.just("forget"), st.sampled_from(PEERS), st.just(frozenset())),
        ),
        max_size=60,
    )


@given(monitors=st.sets(st.integers(0, 10**6), min_size=1, max_size=7),
       safe=st.integers(0, 4), data=st.data())
@settings(max_examples=300, deadline=None)
def test_reputation_record_matches_per_monitor_rule(monitors, safe, data):
    # sparse ids, handed over unsorted: a monitor's pair sits at its id's rank
    n = NodeState(1, list(monitors), safe, outbound={5, 6}, inbound={7})
    # the same reports as a monitor sends them: ascending tuples, not sets
    twin = NodeState(1, list(monitors), safe, outbound={5, 6}, inbound={7})
    ref = PerMonitorRule(monitors, safe)
    for op, arg, verified in data.draw(reputation_ops(monitors)):
        if op == "report":
            got = n.handle_verified(arg, VerifiedMsg(verified))
            assert got == ref.handle_verified(arg, PEERS, verified)
            assert twin.handle_verified(arg, VerifiedMsg(tuple(sorted(verified)))) == got
        else:
            n.forget(arg)
            twin.forget(arg)
            ref.forget(arg)
        assert twin.tallies == n.tallies
        for p in PEERS:
            assert n.check_reputation(p) is ref.must_disconnect(p)
            assert n.reputation(p) == ref.reputation(p)
