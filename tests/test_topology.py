"""Ground-truth graph rules and the churn engine."""
from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topomon.topology import (
    BannedPeer,
    DuplicateEdge,
    MutualEdge,
    NodeAdded,
    NodeRemoved,
    Role,
    Topology,
    TopologyError,
    UnknownNode,
)


def build(n: int, seed: int = 0, monitors: int = 1, frac: float = 0.0) -> Topology:
    """Sequential bootstrap: early joiners take whatever predecessors exist."""
    topo = Topology()
    rng = random.Random(seed)
    for _ in range(monitors):
        topo.new_id()  # a monitor's id: taken, but never a node
    for _ in range(n):
        topo.add_node(topo.steer_add_role(frac), rng)
    return topo


def test_bootstrap_reaches_full_degree():
    topo = build(10)
    degrees = sorted(len(topo.out[n]) for n in topo.peers_alive())
    # first three joiners had 0,1,2 predecessors; everyone after has 3
    assert degrees == [0, 1, 2] + [3] * 7
    assert topo.audit() == []


def test_join_into_fewer_live_peers_than_target_links_to_each():
    topo = build(2, seed=1)
    live = topo.peers_alive()
    assert len(live) < topo.target_outbound
    ev = topo.add_node(Role.HONEST, random.Random(1))
    assert ev.targets == tuple(live)
    assert topo.out[ev.node] == set(live)
    assert topo.audit() == []


def test_add_is_deterministic():
    results = set()
    for _ in range(3):
        topo = build(20, seed=7)
        added = topo.add_node(Role.HONEST, random.Random(55))
        results.add(added.targets)
    assert len(results) == 1
    assert len(next(iter(results))) == 3


def test_mutual_duplicate_and_banned_edges_rejected():
    topo = Topology()
    for _ in range(3):
        nid = topo.new_id()
        topo.out[nid] = set()
        topo.inb[nid] = set()
        topo.set_role(nid, Role.HONEST)
    topo.open_connection(0, 1)
    with pytest.raises(DuplicateEdge):
        topo.open_connection(0, 1)
    with pytest.raises(MutualEdge):
        topo.open_connection(1, 0)
    topo.ban(0, 2)
    with pytest.raises(BannedPeer):
        topo.open_connection(0, 2)
    with pytest.raises(BannedPeer):
        topo.open_connection(2, 0)
    with pytest.raises(UnknownNode):
        topo.open_connection(0, 99)
    with pytest.raises(TopologyError, match="^self edge$"):
        topo.open_connection(0, 0)
    with pytest.raises(UnknownNode, match="^no edge 1->0$"):
        topo.close_connection(1, 0)  # 0 -> 1 is the live direction
    assert topo.out == {0: {1}, 1: set(), 2: set()} and topo.inb == {0: set(), 1: {0}, 2: set()}


def test_remove_without_inbound_rewires_nothing():
    topo = build(10, seed=3)
    loner = next(n for n in topo.peers_alive() if not topo.inb[n])
    ev = topo.remove_node(loner, random.Random(0))
    assert isinstance(ev, NodeRemoved)
    assert ev.rewired == ()
    assert topo.audit() == []


def test_remove_rewires_each_orphan_once():
    topo = build(30, seed=11)
    victim = max(topo.peers_alive(), key=lambda n: len(topo.inb[n]))
    orphans = sorted(topo.inb[victim])
    assert orphans
    before = {p: len(topo.out[p]) for p in orphans}
    ev = topo.remove_node(victim, random.Random(2))
    assert [p for p, _ in ev.rewired] == orphans
    for p, tgt in ev.rewired:
        assert tgt is not None
        assert len(topo.out[p]) == before[p]
    assert victim not in topo.roles
    assert topo.audit() == []


def test_monitor_cannot_be_removed():
    topo = build(5)
    with pytest.raises(UnknownNode):
        topo.remove_node(0, random.Random(0))  # build's monitor id


def test_ids_never_reused():
    topo = build(10, seed=5)
    rng = random.Random(9)
    seen = set(topo.roles)
    for _ in range(200):
        ev = topo.churn_tick(10, 0.0, rng)
        if isinstance(ev, NodeAdded):
            assert ev.node not in seen
            seen.add(ev.node)
    assert topo.audit() == []


def test_churn_bias_below_adds_above_removes():
    rng = random.Random(4)
    topo = build(49, seed=4)
    assert isinstance(topo.churn_tick(50, 0.0, rng), NodeAdded)
    topo = build(51, seed=4)
    assert isinstance(topo.churn_tick(50, 0.0, rng), NodeRemoved)


def test_population_stays_near_target_over_many_ticks():
    topo = build(50, seed=21, monitors=4)
    rng = random.Random(13)
    lo = hi = 50
    for i in range(10_000):
        topo.churn_tick(50, 0.0, rng)
        pop = topo.population()
        lo, hi = min(lo, pop), max(hi, pop)
        if i % 500 == 0:
            assert topo.audit() == []
    assert 45 <= lo and hi <= 55


def test_malicious_fraction_held_within_one_node():
    topo = build(50, seed=8, monitors=4, frac=0.2)
    rng = random.Random(30)
    total = 0.0
    ticks = 4000
    for _ in range(ticks):
        topo.churn_tick(50, 0.2, rng)
        mal = len(topo.malicious_alive())
        want = 0.2 * topo.population()
        assert abs(mal - want) <= 1.0 + 1e-9
        total += mal / topo.population()
    assert abs(total / ticks - 0.2) < 0.02


def test_degree_restored_after_churn_settles():
    topo = build(50, seed=17, monitors=4)
    rng = random.Random(17)
    for _ in range(500):
        topo.churn_tick(50, 0.0, rng)
    short = [n for n in topo.peers_alive() if len(topo.out[n]) != 3]
    # rewiring tops every orphan back up, so shortfalls never accumulate
    assert short == []


def test_export_formats():
    topo = build(5, seed=2)
    lines = topo.edge_list_lines([0])
    assert all(len(line.split()) == 2 for line in lines)
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split())))
    dot = topo.to_dot([0])
    assert dot.startswith("digraph overlay {")
    assert '  n0 [label="0" shape=diamond];' in dot and "n0 ->" not in dot
    assert dot.rstrip().endswith("}")
    for a, b in topo.peer_edges():
        assert f"n{a} -> n{b};" in dot


def test_set_role_refuses_monitors_and_unknown_ids():
    topo = build(3)
    with pytest.raises(UnknownNode):
        topo.set_role(0, Role.HONEST)  # build's monitor id
    with pytest.raises(UnknownNode):
        topo.set_role(99, Role.MALICIOUS)


@pytest.mark.parametrize(
    "corrupt, want",
    [
        (lambda t, a, b, c: t.out[a].add(0), ["dangling edge {a}->0"]),  # 0: a monitor's id
        (lambda t, a, b, c: (t.out[a].add(a), t.inb[a].add(a)),
         ["self edge {a}", "mutual pair {a}<->{a}"]),
        (lambda t, a, b, c: (t.out[b].add(a), t.inb[a].add(b)),
         ["mutual pair {a}<->{b}", "mutual pair {b}<->{a}"]),
        (lambda t, a, b, c: t.inb[b].discard(a), ["missing inbound mirror {a}->{b}"]),
        (lambda t, a, b, c: t.inb[c].add(a), ["stale inbound mirror {a}->{c}"]),
        (lambda t, a, b, c: t.banned.update({a: {b}, b: {a}}),
         ["banned pair still connected {a}~{b}", "banned pair still connected {b}~{a}"]),
        (lambda t, a, b, c: t.banned.update({c: {99}}), ["ban row {c} names 99, not a live peer"]),
        (lambda t, a, b, c: t._alive.pop(), ["live id list differs from the ascending live ids"]),
        (lambda t, a, b, c: t.roles.update({c: Role.MALICIOUS}), ["malicious count 1, recount 2"]),
    ],
    ids=["dangling", "self-edge", "mutual-pair", "missing-mirror", "stale-mirror",
         "banned-connected", "ban-on-departed", "live-list", "role"],
)
def test_audit_flags_each_rule_broken_around_the_api(corrupt, want):
    # a -> b is a live edge, and c an honest peer that a may still link to
    topo = build(8, seed=1, frac=0.1)
    a, b = max(topo.peer_edges())
    c = next(n for n in topo.eligible_targets(a) if topo.roles[n] is Role.HONEST)
    assert topo.malicious_count == 1 and topo.audit() == []
    corrupt(topo, a, b, c)
    assert sorted(topo.audit()) == sorted(m.format(a=a, b=b, c=c) for m in want)


class RescanSteering(Topology):
    """The steering rule before the live count: each call rescans the live
    population for its malicious and honest nodes."""

    def steer_add_role(self, malicious_fraction):
        mal = len(self.malicious_alive())
        want = malicious_fraction * (self.population() + 1)
        return Role.MALICIOUS if mal < want - 0.5 else Role.HONEST

    def steer_remove_node(self, malicious_fraction, rng):
        mal = self.malicious_alive()
        hon = [n for n in self.out if self.roles[n] is Role.HONEST]
        want = malicious_fraction * (self.population() - 1)
        take_malicious = len(mal) >= want + 0.5
        pool = mal if (take_malicious and mal) else (hon or mal)
        return rng.choice(pool)


@given(
    nodes=st.integers(0, 300),
    frac=st.floats(0, 1),
    seed=st.integers(0, 2**32),
    targets=st.lists(st.integers(1, 320), max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_live_count_steers_like_the_population_rescan(nodes, frac, seed, targets):
    runs = []
    for topo in (Topology(), RescanSteering()):
        rng = random.Random(seed)
        topo.new_id()  # a monitor's id
        for _ in range(nodes):
            topo.add_node(topo.steer_add_role(frac), rng)
        # each NodeRemoved carries the departed id, each NodeAdded the role
        events = [topo.churn_tick(target, frac, rng) for target in targets]
        runs.append((dict(topo.roles), events))
    assert runs[0] == runs[1]


def test_banned_rows_are_made_by_the_first_ban_and_dropped_at_departure():
    topo = build(12, seed=3)
    assert topo.banned == {}  # a join makes no row
    a = topo.peers_alive()[-1]
    b = topo.eligible_targets(a)[0]
    topo.ban(a, b)
    assert topo.banned == {a: {b}, b: {a}}
    assert b not in topo.eligible_targets(a) and a not in topo.eligible_targets(b)
    topo.remove_node(a, random.Random(1))
    assert topo.banned == {}  # b's row named only a, so it went with a
    assert topo.audit() == []


class RescanSample(Topology):
    """Joins and rewiring before the live id list: each join samples a fresh
    copy of the live ids read off the rows, and each rewire scans the rows."""

    def add_node(self, role, rng):
        live = list(self.out)
        picks = rng.sample(live, min(self.target_outbound, len(live)))
        # the base join then opens exactly these picks
        return super().add_node(role, SimpleNamespace(sample=lambda population, k: picks))

    def eligible_targets(self, source):
        return [
            t
            for t in list(self.out)
            if t != source
            and t not in self.out[source]
            and t not in self.inb[source]
            and t not in self.banned.get(source, ())
        ]


@given(
    nodes=st.integers(0, 40),
    seed=st.integers(0, 2**32),
    ops=st.lists(
        st.sampled_from(["honest", "malicious", "leave", "tick", "set_role"]), max_size=80
    ),
)
@settings(max_examples=100, deadline=None)
def test_live_list_draws_like_a_fresh_copy_of_the_rows(nodes, seed, ops):
    runs, topos = [], (Topology(), RescanSample())
    for topo in topos:
        rng = random.Random(seed)
        topo.new_id()  # a monitor's id
        events = [topo.add_node(topo.steer_add_role(0.3), rng) for _ in range(nodes)]
        for op in ops:
            if op in ("honest", "malicious"):
                events.append(topo.add_node(Role(op), rng))
            elif op == "leave" and topo.population() > 0:
                events.append(topo.remove_node(rng.choice(sorted(topo.out)), rng))
            elif op == "tick":
                events.append(topo.churn_tick(nodes, 0.3, rng))
            elif op == "set_role" and topo.population() > 0:
                topo.set_role(rng.choice(sorted(topo.out)), rng.choice([Role.HONEST, Role.MALICIOUS]))
        runs.append((dict(topo.roles), events))
    assert runs[0] == runs[1]
    assert topos[0].audit() == []


@given(
    st.integers(min_value=0, max_value=2**32),
    st.lists(
        st.sampled_from(["honest", "malicious", "leave", "tick", "monitor", "set_role"]),
        max_size=80,
    ),
)
@settings(max_examples=100, deadline=None)
def test_live_lists_equal_their_sorted_definitions(seed, ops):
    # both lists are read straight off the rows, relying on ids rising
    topo = build(6, seed=seed % 97, monitors=2, frac=0.3)
    rng = random.Random(seed)
    for op in ops:
        if op in ("honest", "malicious"):
            topo.add_node(Role(op), rng)
        elif op == "leave" and topo.population() > 0:
            topo.remove_node(rng.choice(sorted(topo.out)), rng)
        elif op == "tick":
            topo.churn_tick(8, 0.3, rng)
        elif op == "monitor":
            topo.new_id()
        elif op == "set_role" and topo.population() > 0:
            nid = rng.choice(sorted(topo.out))
            topo.set_role(nid, rng.choice([Role.HONEST, Role.MALICIOUS]))
        peers = sorted(topo.roles)
        bad = sorted(n for n, r in topo.roles.items() if r is Role.MALICIOUS)
        assert topo.peers_alive() == peers
        assert topo.malicious_alive() == bad
        assert topo.malicious_count == len(bad)


@given(
    nodes=st.integers(1, 12),
    seed=st.integers(0, 2**32),
    bans=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20),
    sources=st.lists(st.integers(0, 11), min_size=1, max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_open_random_edge_draws_as_choice_over_eligible_targets(nodes, seed, bans, sources):
    # the contract a faster pick must keep: the target `rng.choice` picks from
    # `eligible_targets`, by the same draws, and no draw when none is eligible
    topo = build(nodes, seed=seed % 97)
    live = topo.peers_alive()
    for i, j in bans:
        a, b = live[i % nodes], live[j % nodes]
        if a != b:
            for x, y in ((a, b), (b, a)):
                if y in topo.out[x]:
                    topo.close_connection(x, y)
            topo.ban(a, b)
    a, b = random.Random(seed), random.Random(seed)
    for k in sources:
        src = live[k % nodes]
        choices = topo.eligible_targets(src)
        want = b.choice(choices) if choices else None
        assert topo.open_random_edge(src, a) == want
        assert a.getstate() == b.getstate()
        assert want is None or want in topo.out[src]
    assert topo.audit() == []
