"""Colluder wiring and the six isolated misbehaviors."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topomon.adversary import Adversary, AdversaryPolicy, SingleBehavior
from topomon.protocol import Marker, NodeState, Send
from topomon.topology import Role, Topology

MONITORS = {100, 101, 102, 103}


def make_policy(**kw) -> AdversaryPolicy:
    return AdversaryPolicy(Topology(), random.Random(5), **kw)


def join(topo: Topology, nid: int) -> None:
    """Give nid its topology rows; a node seen for the first time is honest."""
    topo.roles.setdefault(nid, Role.HONEST)
    for rows in (topo.out, topo.inb, topo.banned):
        rows.setdefault(nid, set())


def wire(topo: Topology, nid: int, out=(), inb=()) -> None:
    """Open the edges nid->out and inb->nid through `open_connection`, so the
    clique version sees them. Repeating an edge already opened from its
    other end is a no-op."""
    for a, b in [(nid, p) for p in out] + [(p, nid) for p in inb]:
        join(topo, a)
        join(topo, b)
        if b not in topo.out[a]:
            topo.open_connection(a, b)


def colluder(policy, nid, out=(), inb=(), single=None) -> Adversary:
    topo = policy.topo
    join(topo, nid)
    topo.set_role(nid, Role.MALICIOUS)
    wire(topo, nid, out, inb)
    st = NodeState(nid, MONITORS, outbound=topo.out[nid], inbound=topo.inb[nid])
    return Adversary(st, policy, single)


def relays_to_monitor(acts):
    return {(a.sender, a.to) for a in acts if a.to in MONITORS}


# -- full collusion -----------------------------------------------------------


def test_own_probe_spreads_only_to_adjacent_colluders_when_hiding():
    pol = make_policy()
    d = colluder(pol, 1, out=(2, 7), inb=(3,))
    colluder(pol, 2, inb=(1,))  # real edge 1->2, clique-internal
    colluder(pol, 3, out=(1,))  # real edge 3->1
    probe = Marker(target=1, monitor=100, value=9)
    acts = d.handle_marker(100, probe)
    # 2 must stay silent (the link 1->2 is real and hidden); 3 answers,
    # faking 1->3; the honest outbound peer 7 never sees the marker.
    assert acts == [Send(3, 100, probe)]


def test_soft_variant_still_forwards_to_honest_outbound():
    pol = make_policy(full_hiding=False)
    d = colluder(pol, 1, out=(2, 7), inb=())
    colluder(pol, 2, inb=(1,))
    probe = Marker(target=1, monitor=100, value=9)
    acts = d.handle_marker(100, probe)
    assert Send(1, 7, probe) in acts
    assert all(a.to != 2 for a in acts)  # colluders coordinate out of band


def test_honest_target_marker_is_hidden_and_leaked_one_hop():
    pol = make_policy(share_hops=1)
    d = colluder(pol, 1, out=(2,), inb=(9,))  # 9 is honest, edge 9->1
    colluder(pol, 2, inb=(1,))
    m = Marker(target=9, monitor=100, value=5)
    acts = d.handle_marker(9, m)
    # d itself never answers (that would verify the real edge 9->1);
    # adjacent colluder 2 answers, faking 9->2
    assert relays_to_monitor(acts) == {(2, 100)}


def test_second_hop_leak_reaches_colluders_two_links_away():
    pol = make_policy(share_hops=2)
    d = colluder(pol, 1, out=(2,), inb=(9,))
    colluder(pol, 2, inb=(1,), out=(4,))
    colluder(pol, 4, inb=(2,))
    m = Marker(target=9, monitor=100, value=5)
    acts = d.handle_marker(9, m)
    assert relays_to_monitor(acts) == {(2, 100), (4, 100)}


def test_leak_skips_colluders_holding_the_real_edge():
    pol = make_policy(share_hops=1)
    d = colluder(pol, 1, inb=(9,))
    colluder(pol, 2, out=(1,), inb=(9,))  # 9->2 is real: 2 stays silent
    m = Marker(target=9, monitor=100, value=5)
    assert d.handle_marker(9, m) == []


def test_clique_internal_markers_stay_hidden():
    pol = make_policy()
    d = colluder(pol, 1, inb=(2,))
    colluder(pol, 2, out=(1,))
    m = Marker(target=2, monitor=100, value=5)
    assert d.handle_marker(2, m) == []  # real edge 2->1, never verified


def test_worst_case_ignores_confirmation_lists():
    pol = make_policy()
    d = colluder(pol, 1, out=(2,))
    assert d.handle_verified(100, object()) == []


class RescanRings(AdversaryPolicy):
    """The ring rule before the cache: every call rebuilds both rings from
    the topology's rows."""

    def rings(self, node_id):
        t, roles, mal = self.topo, self.topo.roles, Role.MALICIOUS

        def colluder_peers(n):
            if roles.get(n) is not mal:
                return []
            return [p for p in t.out[n] | t.inb[n] if roles[p] is mal]

        ring = set(colluder_peers(node_id))
        second: set[int] = set()
        for c in ring:
            second.update(colluder_peers(c))
        second -= ring | {node_id}
        return sorted(ring), sorted(second)


RING_OPS = ("join", "leave", "tick", "open", "close", "ban", "set_role")


@given(
    seed=st.integers(0, 2**32),
    nodes=st.integers(0, 12),
    frac=st.sampled_from([0.0, 0.2, 0.4, 0.6]),
    ops=st.lists(st.sampled_from(RING_OPS), max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_cached_rings_equal_the_rescan_after_every_change(seed, nodes, frac, ops):
    topo = Topology(target_outbound=2)
    rng = random.Random(seed)
    topo.add_monitor()
    pol, ref = AdversaryPolicy(topo, random.Random(0)), RescanRings(topo, random.Random(0))
    for _ in range(nodes):
        topo.add_node(topo.steer_add_role(frac), rng)
    for op in ["-"] + ops:
        live = topo.peers_alive()
        edges = sorted(topo.peer_edges())
        if op == "join":
            topo.add_node(Role.MALICIOUS if rng.random() < frac else Role.HONEST, rng)
        elif op == "leave" and live:
            topo.remove_node(rng.choice(live), rng)
        elif op == "tick":
            topo.churn_tick(max(nodes, 1), frac, rng)
        elif op == "open" and live:
            a = rng.choice(live)
            if topo.eligible_targets(a):
                topo.open_connection(a, rng.choice(topo.eligible_targets(a)))
        elif op == "close" and edges:
            topo.close_connection(*rng.choice(edges))
        elif op == "ban" and len(live) >= 2:
            topo.ban(*rng.sample(live, 2))
        elif op == "set_role" and live:
            topo.set_role(rng.choice(live), rng.choice((Role.HONEST, Role.MALICIOUS)))
        for n in topo.peers_alive():
            assert pol.rings(n) == ref.rings(n), (op, n)


def test_departed_colluder_leaves_the_clique():
    pol = make_policy()
    colluder(pol, 1, inb=(2,))
    colluder(pol, 2)
    assert pol.rings(2) == ([1], [])
    pol.topo.remove_node(1, random.Random(0))
    assert not pol.is_colluder(1)
    assert pol.rings(2) == ([], [])


# -- isolated misbehaviors -------------------------------------------------------


def test_behavior_1_forwards_to_inbound_instead():
    pol = make_policy()
    d = colluder(pol, 1, out=(5,), inb=(6, 7), single=SingleBehavior(1))
    probe = Marker(1, 100, 42)
    acts = d.handle_marker(100, probe)
    assert acts == [Send(1, 6, probe), Send(1, 7, probe)]


def test_behavior_2_leaks_to_victim_besides_honest_forwarding():
    pol = make_policy()
    d = colluder(pol, 1, out=(5,), single=SingleBehavior(2, victim=33))
    probe = Marker(1, 100, 42)
    acts = d.handle_marker(100, probe)
    assert Send(1, 5, probe) in acts
    assert Send(1, 33, probe) in acts


def test_behavior_2_can_route_through_another_colluder():
    pol = make_policy()
    d = colluder(pol, 1, out=(5,), single=SingleBehavior(2, victim=33, relay_via=8))
    acts = d.handle_marker(100, Marker(1, 100, 42))
    assert any(a.sender == 8 and a.to == 33 for a in acts)


def test_behavior_3_replays_previous_nonce_instead_of_relaying():
    pol = make_policy()
    d = colluder(pol, 2, inb=(1,), single=SingleBehavior(3))
    first = Marker(1, 100, 10)
    second = Marker(1, 100, 20)
    assert d.handle_marker(1, first) == []  # withheld, stored
    acts = d.handle_marker(1, second)
    assert acts == [Send(2, 100, first)]  # stale nonce goes out


def test_behavior_4_tampers_exactly_one_field():
    pol = make_policy()
    d = colluder(pol, 1, out=(5,), single=SingleBehavior(4))
    probe = Marker(1, 100, 42)
    for _ in range(20):
        (act,) = d.handle_marker(100, probe)
        m = act.marker
        changed = (m.target != 1) + (m.monitor != 100) + (m.value != 42)
        assert changed == 1


def test_behavior_5_drops_own_probes_but_relays_for_others():
    pol = make_policy()
    d = colluder(pol, 2, out=(5,), inb=(1,), single=SingleBehavior(5))
    assert d.handle_marker(100, Marker(2, 100, 42)) == []
    m = Marker(1, 100, 43)
    assert d.handle_marker(1, m) == [Send(2, 100, m)]


def test_behavior_6_drops_relays_only_for_listed_monitors():
    pol = make_policy()
    d = colluder(
        pol, 2, inb=(1,), single=SingleBehavior(6, drop_for=frozenset({100, 101}))
    )
    assert d.handle_marker(1, Marker(1, 100, 1)) == []
    assert d.handle_marker(1, Marker(1, 101, 2)) == []
    m = Marker(1, 102, 3)
    assert d.handle_marker(1, m) == [Send(2, 102, m)]


@pytest.mark.parametrize("behavior", [0, 7, -1])
def test_single_behavior_outside_1_to_6_is_rejected_at_construction(behavior):
    with pytest.raises(ValueError, match=f"unknown behavior {behavior}"):
        SingleBehavior(behavior)


def test_single_behaviors_1_to_6_construct():
    assert [SingleBehavior(b).behavior for b in range(1, 7)] == [1, 2, 3, 4, 5, 6]


def test_single_modes_default_to_honest_elsewhere():
    pol = make_policy()
    d = colluder(pol, 2, out=(5,), inb=(1,), single=SingleBehavior(1))
    m = Marker(1, 100, 7)
    # relay duty untouched by behavior 1
    assert d.handle_marker(1, m) == [Send(2, 100, m)]
    # and strangers are still dropped
    assert d.handle_marker(9, Marker(9, 100, 7)) == []
