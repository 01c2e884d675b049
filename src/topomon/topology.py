"""Ground-truth overlay graph: roles, directed peer edges, churn, bans.

Edges are directed (opener -> target) and at most one edge exists per
unordered pair. Monitors are not nodes of this graph: they take ids from
`new_id` and nothing else, so every method refuses one as unknown, and
`roles`, `out`, `inb` and `_alive` all hold the live peers. The exports take
the monitor ids, to draw each monitor's link to every live peer on request.
A live node's role changes only through `set_role`, which keeps the live
malicious count that churn steers by, so a join never scans the population.

`_alive` lists the live peer ids in ascending order (ids rise and are never
reused): `add_node` appends the new id, `remove_node` deletes the departed
one by bisection, and nothing else changes it. A join draws its targets
straight from it, and `audit` checks it against the rows.

`banned` holds a row only for a node that has been banned from a live
peer: a ban makes both rows, and a departure drops the node's own row and
its id from each partner's, deleting a row it empties, so a long run keeps
no ban on a departed peer. A reader takes `banned.get(node, ())`. Most
nodes are never banned, so a join makes none.

`clique_version` moves whenever the subgraph among malicious nodes may have
changed: a link between two malicious nodes opens or closes, a malicious
node joins or leaves, or `set_role` runs. Honest-only changes and bans leave
it alone, so readers can cache what they derive from that subgraph.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from enum import Enum
from typing import Collection, NamedTuple


class Role(str, Enum):
    HONEST = "honest"
    MALICIOUS = "malicious"


# Every role check compares with these: on CPython 3.11 a member read through
# `Role` costs about ten times a module constant's load.
HONEST, MALICIOUS = Role.HONEST, Role.MALICIOUS


class TopologyError(Exception):
    pass


class UnknownNode(TopologyError):
    pass


class DuplicateEdge(TopologyError):
    pass


class MutualEdge(TopologyError):
    pass


class BannedPeer(TopologyError):
    pass


# Membership events are named tuples built with `tuple.__new__`, which skips
# the NamedTuple's Python-level `__new__`, as `protocol`'s messages are.
class NodeAdded(NamedTuple):
    node: int
    role: Role
    targets: tuple[int, ...]


class NodeRemoved(NamedTuple):
    node: int
    role: Role
    severed_out: tuple[int, ...]  # targets that lost this node as inbound peer
    # (orphaned inbound peer, its replacement target or None)
    rewired: tuple[tuple[int, int | None], ...]


class Topology:
    """Mutable ground truth. NodeIds are never reused."""

    def __init__(self, target_outbound: int = 3) -> None:
        self.target_outbound = target_outbound
        self.roles: dict[int, Role] = {}
        # a live node's rows are shared with its NodeState: mutate, never rebind
        self.out: dict[int, set[int]] = {}
        self.inb: dict[int, set[int]] = {}
        self.banned: dict[int, set[int]] = {}  # see the module docstring
        self._alive: list[int] = []  # see the module docstring
        self.malicious_count = 0  # live MALICIOUS nodes; `audit` recounts it
        self.clique_version = 0  # see the module docstring
        self._next_id = 0

    # -- registry ----------------------------------------------------------

    def new_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def peers_alive(self) -> list[int]:
        return self._alive[:]

    def malicious_alive(self) -> list[int]:
        return [n for n in self.out if self.roles[n] is MALICIOUS]

    def population(self) -> int:
        return len(self._alive)

    def peer_edges(self) -> set[tuple[int, int]]:
        return {(a, b) for a, row in self.out.items() for b in row}

    # -- construction ------------------------------------------------------

    def add_node(self, role: Role, rng: random.Random) -> NodeAdded:
        """Join a node and open uniformly random edges to
        min(target_outbound, live peers) of the live peers."""
        alive = self._alive
        targets = tuple(sorted(rng.sample(alive, min(self.target_outbound, len(alive)))))
        nid = self.new_id()
        alive.append(nid)
        self.roles[nid] = role
        self.out[nid] = set()
        self.inb[nid] = set()
        self.malicious_count += role is MALICIOUS
        self.clique_version += role is MALICIOUS
        for t in targets:
            self.open_connection(nid, t)
        return tuple.__new__(NodeAdded, (nid, role, targets))

    def set_role(self, nid: int, role: Role) -> None:
        """The only way to change a live node's role after it joins."""
        if nid not in self.out:
            raise UnknownNode(str(nid))
        self.malicious_count += (role is MALICIOUS) - (self.roles.get(nid) is MALICIOUS)
        self.clique_version += 1
        self.roles[nid] = role

    def open_connection(self, a: int, b: int) -> None:
        if a not in self.out or b not in self.out:
            raise UnknownNode(f"{a}->{b}: unknown endpoint")
        if a == b:
            raise TopologyError("self edge")
        if b in self.out[a]:
            raise DuplicateEdge(f"{a}->{b}")
        if a in self.out[b]:
            raise MutualEdge(f"{a}->{b} vs existing {b}->{a}")
        if b in self.banned.get(a, ()):
            raise BannedPeer(f"{a}->{b}")
        self.out[a].add(b)
        self.inb[b].add(a)
        if self.roles[a] is self.roles[b] is MALICIOUS:
            self.clique_version += 1

    def close_connection(self, a: int, b: int) -> None:
        if b not in self.out.get(a, ()):
            raise UnknownNode(f"no edge {a}->{b}")
        self.out[a].discard(b)
        self.inb[b].discard(a)
        if self.roles[a] is self.roles[b] is MALICIOUS:
            self.clique_version += 1

    def ban(self, a: int, b: int) -> None:
        """Permanent, symmetric: neither endpoint accepts the other again."""
        self.banned.setdefault(a, set()).add(b)
        self.banned.setdefault(b, set()).add(a)

    def eligible_targets(self, source: int) -> list[int]:
        out, inb, banned = self.out[source], self.inb[source], self.banned.get(source, ())
        return [
            t
            for t in self._alive
            if t != source and t not in out and t not in inb and t not in banned
        ]

    def open_random_edge(self, source: int, rng: random.Random) -> int | None:
        """Open an edge from `source` to `rng.choice(eligible_targets(source))`
        and return that target; None, drawing nothing, when no peer is eligible."""
        choices = self.eligible_targets(source)
        if not choices:
            return None
        t = rng.choice(choices)
        self.open_connection(source, t)
        return t

    def remove_node(self, node: int, rng: random.Random) -> NodeRemoved:
        """Depart a node; every orphaned inbound peer opens one replacement
        edge so it keeps target_outbound outbound connections."""
        if node not in self.roles:
            raise UnknownNode(str(node))
        role = self.roles[node]
        orphans = sorted(self.inb[node])
        severed = tuple(sorted(self.out[node]))
        for t in severed:
            self.inb[t].discard(node)
        for p in orphans:
            self.out[p].discard(node)
        del self.roles[node], self.out[node], self.inb[node]
        for p in self.banned.pop(node, ()):  # bans are symmetric
            row = self.banned[p]
            row.discard(node)
            if not row:
                del self.banned[p]
        del self._alive[bisect_left(self._alive, node)]
        self.malicious_count -= role is MALICIOUS
        self.clique_version += role is MALICIOUS
        rewired = tuple((p, self.open_random_edge(p, rng)) for p in orphans)
        return tuple.__new__(NodeRemoved, (node, role, severed, rewired))

    # -- churn -------------------------------------------------------------

    def steer_add_role(self, malicious_fraction: float) -> Role:
        want = malicious_fraction * (self.population() + 1)
        return MALICIOUS if self.malicious_count < want - 0.5 else HONEST

    def steer_remove_node(self, malicious_fraction: float, rng: random.Random) -> int:
        mal, pop = self.malicious_count, self.population()
        want = malicious_fraction * (pop - 1)
        over_quota = mal > 0 and mal >= want + 0.5
        role = MALICIOUS if over_quota or mal == pop else HONEST
        return rng.choice([n for n in self.out if self.roles[n] is role])

    def churn_tick(
        self, target_population: int, malicious_fraction: float, rng: random.Random
    ) -> NodeAdded | NodeRemoved:
        """One network event, biased to hold population at the target:
        below -> add, above -> remove, at target -> fair coin, except that an
        empty population adds."""
        pop = self.population()
        if pop < target_population:
            add = True
        elif pop > target_population:
            add = False
        else:
            add = pop == 0 or rng.random() < 0.5
        if add:
            return self.add_node(self.steer_add_role(malicious_fraction), rng)
        return self.remove_node(self.steer_remove_node(malicious_fraction, rng), rng)

    # -- validation & export -------------------------------------------------

    def audit(self) -> list[str]:
        """Invariant check; returns human-readable violations (empty == ok)."""
        bad: list[str] = []
        for a, row in self.out.items():
            for b in row:
                if b not in self.out:
                    bad.append(f"dangling edge {a}->{b}")
                    continue
                if a == b:
                    bad.append(f"self edge {a}")
                if a in self.out[b]:
                    bad.append(f"mutual pair {a}<->{b}")
                if a not in self.inb[b]:
                    bad.append(f"missing inbound mirror {a}->{b}")
        for b, row in self.inb.items():
            for a in row:
                if b not in self.out.get(a, ()):
                    bad.append(f"stale inbound mirror {a}->{b}")
        for a, row in self.banned.items():
            for b in row:
                if b not in self.out:
                    bad.append(f"ban row {a} names {b}, not a live peer")
                elif b in self.out[a] or b in self.inb[a]:
                    bad.append(f"banned pair still connected {a}~{b}")
        if self._alive != sorted(self.out):
            bad.append("live id list differs from the ascending live ids")
        mal = sum(r is MALICIOUS for r in self.roles.values())
        if mal != self.malicious_count:
            bad.append(f"malicious count {self.malicious_count}, recount {mal}")
        return bad

    def links(self, monitors: Collection[int], *, include_monitors: bool = False
              ) -> list[tuple[int, int]]:
        """The peer edges, sorted, after each monitor's link to every live peer
        when `include_monitors` is set: what both export formats write."""
        links = sorted(self.peer_edges())
        if include_monitors:
            links = [(m, n) for m in monitors for n in self._alive] + links
        return links

    def edge_list_lines(self, monitors: Collection[int], *, include_monitors: bool = False
                        ) -> list[str]:
        return [f"{a} {b}" for a, b in self.links(monitors, include_monitors=include_monitors)]

    def to_dot(self, monitors: Collection[int], *, include_monitors: bool = False) -> str:
        shapes = dict.fromkeys(monitors, "diamond")
        shapes.update((n, "box" if r is MALICIOUS else "ellipse") for n, r in self.roles.items())
        out = ["digraph overlay {"]
        out += [f'  n{n} [label="{n}" shape={shapes[n]}];' for n in sorted(shapes)]
        for a, b in self.links(monitors, include_monitors=include_monitors):
            out.append(f"  n{a} -> n{b};")
        out.append("}")
        return "\n".join(out) + "\n"
