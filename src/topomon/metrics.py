"""Ground-truth comparison and message accounting.

Edge classification is plain set algebra over directed peer links; links
from the monitoring nodes themselves never count. Precision and recall are
None when their denominator is empty rather than silently zero.

The message ledger books every protocol send and receive per node, split
by kind: it keeps one node -> count dict per kind and direction, so booking
a message builds no key. A node's per-sweep protocol load excludes the
probe the monitor sends it (that one is booked to the monitor's budget),
which makes the closed-form count (out_deg + 2*in_deg + 1) * monitors hold
exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

KINDS = ("marker_from_monitor", "marker_forwarded", "marker_to_monitor", "verified")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def classify_edges(
    inferred: set[tuple[int, int]] | frozenset[tuple[int, int]],
    truth: set[tuple[int, int]] | frozenset[tuple[int, int]],
) -> ConfusionCounts:
    inferred = set(inferred)
    truth = set(truth)
    return ConfusionCounts(
        tp=len(inferred & truth),
        fp=len(inferred - truth),
        fn=len(truth - inferred),
    )


def precision(c: ConfusionCounts) -> float | None:
    if c.tp + c.fp == 0:
        return None
    return c.tp / (c.tp + c.fp)


def recall(c: ConfusionCounts) -> float | None:
    if c.tp + c.fn == 0:
        return None
    return c.tp / (c.tp + c.fn)


def expected_overhead(out_deg: int, in_deg: int, monitors: int) -> int:
    """Messages a node is party to in one full sweep: forwarding its own
    probe out, relaying once per inbound peer (receive + send), and one
    confirmation list, all repeated per monitor."""
    if min(out_deg, in_deg, monitors) < 0:
        raise ValueError("degrees and monitor count must be >= 0")
    return (out_deg + 2 * in_deg + 1) * monitors


class OverheadLedger:
    def __init__(self) -> None:
        self.sent: dict[str, dict[int, int]] = {k: {} for k in KINDS}
        self.recv: dict[str, dict[int, int]] = {k: {} for k in KINDS}

    def count(self, kind: str, frm: int, to: int) -> None:
        try:
            sent, recv = self.sent[kind], self.recv[kind]
        except KeyError:
            raise ValueError(f"unknown message kind {kind!r}") from None
        sent[frm] = sent.get(frm, 0) + 1
        recv[to] = recv.get(to, 0) + 1

    def sent_of(self, node: int, kind: str) -> int:
        return self.sent[kind].get(node, 0)

    def recv_of(self, node: int, kind: str) -> int:
        return self.recv[kind].get(node, 0)

    def node_protocol_load(self, node: int) -> int:
        """Per-node count matching expected_overhead's convention: the
        monitor's probe to the node is booked to the monitor, not here."""
        return (
            self.sent_of(node, "marker_forwarded")
            + self.recv_of(node, "marker_forwarded")
            + self.sent_of(node, "marker_to_monitor")
            + self.recv_of(node, "verified")
        )


@dataclass(frozen=True)
class AuditRow:
    node: int
    out_deg: int
    in_deg: int
    expected: int
    measured: int

    @property
    def ok(self) -> bool:
        return self.expected == self.measured


def audit_overhead(
    ledger: OverheadLedger, degrees: dict[int, tuple[int, int]], monitors: int
) -> list[AuditRow]:
    """Compare each node's measured protocol load against the closed form.

    degrees maps node id to (out_deg, in_deg) as of the audited sweep; the
    graph must have been static while the sweep ran for the counts to line
    up. Returns one row per node; filter on .ok for discrepancies.
    """
    rows = []
    for node in sorted(degrees):
        out_deg, in_deg = degrees[node]
        rows.append(
            AuditRow(
                node,
                out_deg,
                in_deg,
                expected_overhead(out_deg, in_deg, monitors),
                ledger.node_protocol_load(node),
            )
        )
    return rows
