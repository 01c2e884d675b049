"""Confusion counting and the message-cost bookkeeping."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topomon.metrics import (
    KINDS,
    AuditRow,
    ConfusionCounts,
    OverheadLedger,
    audit_overhead,
    classify_edges,
    expected_overhead,
    precision,
    recall,
)

edges = st.sets(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda e: e[0] != e[1]),
    max_size=60,
)


def test_perfect_agreement():
    truth = {(1, 2), (2, 3), (3, 1)}
    assert classify_edges(truth, truth) == ConfusionCounts(3, 0, 0)


def test_empty_inference_is_all_misses():
    truth = {(i, i + 1) for i in range(150)}
    assert classify_edges(set(), truth) == ConfusionCounts(0, 0, 150)


def test_mixed_case():
    got = classify_edges({(1, 2), (2, 3), (9, 9)}, {(1, 2), (2, 3), (4, 5)})
    assert got == ConfusionCounts(tp=2, fp=1, fn=1)


def test_counts_add_componentwise():
    assert ConfusionCounts(1, 2, 3) + ConfusionCounts(4, 0, 1) == ConfusionCounts(5, 2, 4)


@given(edges, edges)
def test_classification_partitions_both_sets(inferred, truth):
    c = classify_edges(inferred, truth)
    assert c.tp + c.fp == len(inferred)
    assert c.tp + c.fn == len(truth)


def test_precision_recall_values():
    c = ConfusionCounts(8, 2, 8)
    assert precision(c) == pytest.approx(0.8)
    assert recall(c) == pytest.approx(0.5)


def test_ratios_undefined_on_zero_denominator():
    assert precision(ConfusionCounts(0, 0, 5)) is None
    assert recall(ConfusionCounts(0, 3, 0)) is None


# -- expected message cost ----------------------------------------------------


def test_cost_formula_examples():
    assert expected_overhead(8, 117, 1) == 243
    assert expected_overhead(0, 0, 4) == 4
    assert expected_overhead(3, 5, 4) == 56


def test_cost_scales_linearly_in_monitor_count():
    base = expected_overhead(3, 5, 1)
    assert expected_overhead(3, 5, 6) == 6 * base


def test_cost_rejects_negative_inputs():
    with pytest.raises(ValueError):
        expected_overhead(-1, 0, 1)
    with pytest.raises(ValueError):
        expected_overhead(0, 0, -2)


def test_zero_monitors_means_zero_cost():
    assert expected_overhead(5, 9, 0) == 0


# -- ledger -------------------------------------------------------------------


def test_ledger_books_both_endpoints():
    led = OverheadLedger()
    led.count("marker_forwarded", 1, 2)
    led.count("marker_forwarded", 1, 3)
    led.count("marker_to_monitor", 3, 100)
    assert led.sent_of(1, "marker_forwarded") == 2
    assert led.recv_of(2, "marker_forwarded") == 1
    assert led.recv_of(3, "marker_forwarded") == 1
    assert led.sent_of(3, "marker_to_monitor") == 1
    assert led.recv_of(100, "marker_to_monitor") == 1


def test_ledger_rejects_unknown_kind():
    with pytest.raises(ValueError):
        OverheadLedger().count("gossip", 1, 2)


node_ids = st.integers(0, 6)


@given(st.lists(st.tuples(st.sampled_from(KINDS + ("gossip",)), node_ids, node_ids)))
def test_ledger_counts_like_a_tuple_keyed_tally(messages):
    led = OverheadLedger()
    sent: dict[tuple[int, str], int] = {}
    recv: dict[tuple[int, str], int] = {}
    for kind, frm, to in messages:
        if kind not in KINDS:
            before = repr((led.sent, led.recv))
            with pytest.raises(ValueError):
                led.count(kind, frm, to)
            assert repr((led.sent, led.recv)) == before  # an unknown kind writes nothing
            continue
        led.count(kind, frm, to)
        sent[frm, kind] = sent.get((frm, kind), 0) + 1
        recv[to, kind] = recv.get((to, kind), 0) + 1
    for node in range(7):
        for kind in KINDS:
            assert led.sent_of(node, kind) == sent.get((node, kind), 0)
            assert led.recv_of(node, kind) == recv.get((node, kind), 0)


def test_node_load_counts_exactly_the_four_legs():
    # star: monitor 100 probes node 1; 1 forwards to 2; 2 bounces back; 100
    # confirms.  node 1's bill: recv probe is NOT counted (monitor pays it),
    # sent forward 1, recv confirmation 1.  node 2: recv forward 1 + sent
    # bounce 1.
    led = OverheadLedger()
    led.count("marker_from_monitor", 100, 1)
    led.count("marker_forwarded", 1, 2)
    led.count("marker_to_monitor", 2, 100)
    led.count("verified", 100, 1)
    assert led.node_protocol_load(1) == 2
    assert led.node_protocol_load(2) == 2
    assert led.node_protocol_load(7) == 0


def test_audit_rows_compare_expected_to_measured():
    led = OverheadLedger()
    # node 1: out-degree 1, in-degree 0, single monitor -> expected 1+0+1 = 2
    led.count("marker_forwarded", 1, 2)
    led.count("verified", 100, 1)
    rows = audit_overhead(led, {1: (1, 0)}, monitors=1)
    assert rows == [AuditRow(node=1, out_deg=1, in_deg=0, expected=2, measured=2)]
    assert rows[0].ok


def test_audit_flags_mismatch():
    led = OverheadLedger()
    rows = audit_overhead(led, {4: (2, 1)}, monitors=1)
    assert rows[0].expected == 5 and rows[0].measured == 0
    assert not rows[0].ok
