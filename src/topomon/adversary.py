"""Malicious node behavior.

The default strategy is full collusion: a malicious node never answers
probes about its real links with honest peers (hiding them), spreads its
own round nonce to adjacent colluders so they can vouch for links that do
not exist, and leaks nonces received from honest targets through the
colluder clique so that further fabricated links pile up. Colluders know
each other out of band, so nonce sharing is modeled as instantaneous; only
the resulting answers to the monitor travel as real messages.

Every adversary classifies a marker with the honest `NodeState.classify` and
deviates only where a rule applies; a marker the honest rule drops, it drops.

Each of the six isolated misbehaviors is also available on its own for
targeted security tests: wrong-direction forwarding, forwarding to a
non-peer, nonce replay, field tampering, probe dropping, and selective
relay dropping.

The clique keeps no roster of its own: colluders are the nodes whose
`Topology` role is malicious, and their links are the topology's rows.
`AdversaryPolicy` caches each colluder's sorted first-hop and second-hop
colluder lists (its rings) and drops them all when `Topology.clique_version`
moves, which happens only when the subgraph among colluders may have changed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from topomon.protocol import OWN_PROBE, Marker, NodeState, Send, new
from topomon.topology import MALICIOUS, Topology


@dataclass(frozen=True)
class SingleBehavior:
    """One misbehavior in isolation; everything else stays honest.

    1: forward own-round markers to inbound peers instead of outbound
    2: leak own-round marker to a chosen non-peer victim (optionally via
       another colluder)
    3: withhold relays, replaying the previous round's nonce instead
    4: tamper one marker field before forwarding
    5: drop own-round markers outright
    6: drop relays owed to the monitors in drop_for
    """

    behavior: int
    victim: int | None = None
    relay_via: int | None = None
    drop_for: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.behavior not in range(1, 7):
            raise ValueError(f"unknown behavior {self.behavior}")


class AdversaryPolicy:
    """Shared collusion state: the ground truth the clique reads, and the
    fabrication knobs."""

    def __init__(
        self,
        topo: Topology,
        rng: random.Random,
        *,
        full_hiding: bool = True,
        second_hop_p: float = 1.0,
    ) -> None:
        self.topo = topo
        self.rng = rng
        self.full_hiding = full_hiding
        self.second_hop_p = second_hop_p
        self._rings: dict[int, tuple[list[int], list[int]]] = {}
        self._rings_at = -1  # the clique_version `_rings` was filled at

    def is_colluder(self, node_id: int) -> bool:
        return self.topo.roles.get(node_id) is MALICIOUS

    def rings(self, node_id: int) -> tuple[list[int], list[int]]:
        """The colluders adjacent to `node_id`, and those two links away but
        not adjacent, each sorted; both empty for a node that is no colluder.
        Cached until `Topology.clique_version` moves; do not mutate."""
        t = self.topo
        if self._rings_at != t.clique_version:
            self._rings_at, self._rings = t.clique_version, {}
        got = self._rings.get(node_id)
        if got is None:
            roles = t.roles

            def adjacent(n: int) -> set[int]:
                return {p for p in t.out[n] | t.inb[n] if roles[p] is MALICIOUS}

            first = adjacent(node_id) if roles.get(node_id) is MALICIOUS else set()
            second = set().union(*map(adjacent, first)) - first - {node_id}
            got = self._rings[node_id] = (sorted(first), sorted(second))
        return got


class Adversary:
    """Wraps one malicious node's state with its behavior."""

    def __init__(
        self,
        state: NodeState,
        policy: AdversaryPolicy,
        single: SingleBehavior | None = None,
    ) -> None:
        self.state = state
        self.policy = policy
        self.single = single
        self.stored: dict[int, Marker] = {}  # behavior 3: last nonce per target

    # -- dispatch -------------------------------------------------------------

    def handle_marker(self, sender: int, m: Marker) -> list[Send]:
        rule = self.state.classify(sender, m)
        if not rule:
            return []  # dropped, as an honest node drops it
        return self._worst_case(rule, m) if self.single is None else self._single(rule, m)

    def handle_verified(self, sender: int, v) -> list[int]:
        return []  # no reputation enforcement on the adversary's side

    def forget(self, peer: int) -> None:
        self.state.forget(peer)

    # -- full collusion -----------------------------------------------------------

    def _fakes_for(self, ring: list[int], m: Marker) -> list[Send]:
        inb, target, mon = self.policy.topo.inb, m.target, m.monitor
        return [new(Send, (c, mon, m)) for c in ring if c != target and target not in inb[c]]

    def _worst_case(self, rule: int, m: Marker) -> list[Send]:
        pol, st = self.policy, self.state
        if rule == OWN_PROBE:
            honest = [] if pol.full_hiding else [p for p in st.outbound if not pol.is_colluder(p)]
            # adjacent colluders answer for links that do not exist
            return st.fan_out(honest, m) + self._fakes_for(pol.rings(st.id)[0], m)
        if pol.is_colluder(m.target):
            return []  # clique-internal link stays hidden
        # hide the honest link, leak the nonce through the clique
        ring, second = pol.rings(st.id)
        p = pol.second_hop_p
        if second and p:  # a draw per colluder only where it can go either way
            second = second if p == 1 else [c for c in second if pol.rng.random() < p]
            ring = sorted(ring + second)
        return self._fakes_for(ring, m)

    # -- isolated misbehaviors -------------------------------------------------------

    def _single(self, rule: int, m: Marker) -> list[Send]:
        """The chosen misbehavior where it applies; honest relaying elsewhere."""
        st, b = self.state, self.single
        if rule == OWN_PROBE:
            if b.behavior == 5:
                return []
            peers = st.inbound if b.behavior == 1 else st.outbound
            acts = st.fan_out(peers, self._tampered(m) if b.behavior == 4 else m)
            if b.behavior == 2 and b.victim is not None:
                acts.append(Send(st.id if b.relay_via is None else b.relay_via, b.victim, m))
            return acts
        if b.behavior == 3:
            prev = self.stored.get(m.target)
            self.stored[m.target] = m
            return [Send(st.id, prev.monitor, prev)] if prev is not None else []
        if b.behavior == 6 and m.monitor in b.drop_for:
            return []
        return [Send(st.id, m.monitor, m)]

    def _tampered(self, m: Marker) -> Marker:
        which = self.policy.rng.choice(("target", "monitor", "value"))
        v = getattr(m, which)
        return m._replace(**{which: v ^ 0xDEADBEEF if which == "value" else v + 1_000_000_000})
