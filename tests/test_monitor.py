"""Round lifecycle, view insertion and expiry, frequency adaptation, aggregation."""
from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topomon.monitor import (
    EmptyInput,
    Monitor,
    NoOpenRound,
    RoundAlreadyOpen,
    compute_global_snapshot,
    max_error_window,
)
from topomon.protocol import Marker


def monitor(nodes=(1, 2, 3, 4, 5), mode="poisson", mon_id=100) -> Monitor:
    mon = Monitor(mon_id, mode=mode)
    for n in nodes:
        mon.node_discovered(n)
    return mon


def run_round(mon: Monitor, target: int, relays) -> int:
    """One full round: returns the change count close_round fed to adaptation."""
    m = mon.start_round(target, random.Random(0))
    for p in relays:
        mon.receive_marker(p, m)
    with mock.patch.object(mon, "adjust_frequency", wraps=mon.adjust_frequency) as adjust:
        mon.close_round(target, random.Random(0))
    adjust.assert_called_once()
    t, c = adjust.call_args.args
    assert t == target
    return c


def confirm(mon: Monitor, target: int, peers) -> None:
    """Put `target -> p` for each p into the view the one way an edge enters
    it: a round whose relays come from `peers`."""
    m = mon.start_round(target, random.Random(0))
    for p in peers:
        assert mon.receive_marker(p, m)
    mon.close_round(target, random.Random(0))


# -- rounds -------------------------------------------------------------------


def test_round_nonces_differ_between_rounds():
    mon = monitor()
    rng = random.Random(1)
    m1 = mon.start_round(1, rng)
    mon.close_round(1, rng)
    m2 = mon.start_round(1, rng)
    assert m1.value != m2.value
    assert m1.target == m2.target == 1
    assert m1.monitor == 100


def test_second_open_round_for_same_target_rejected():
    mon = monitor()
    mon.start_round(1, random.Random(1))
    with pytest.raises(RoundAlreadyOpen):
        mon.start_round(1, random.Random(2))


def test_close_without_round_rejected():
    with pytest.raises(NoOpenRound):
        monitor().close_round(1, random.Random(1))


def test_matching_relay_collected_and_edge_visible_immediately():
    mon = monitor()
    m = mon.start_round(1, random.Random(1))
    assert mon.receive_marker(2, m) is True
    assert (1, 2) in mon.edges  # inserted at receipt, before close
    mon.close_round(1, random.Random(1))
    assert mon.outbound_row(1) == frozenset({2})


def test_stale_nonce_wrong_monitor_and_self_answers_rejected():
    mon = monitor()
    old = mon.start_round(1, random.Random(1))
    mon.close_round(1, random.Random(1))
    fresh = mon.start_round(1, random.Random(2))
    assert mon.receive_marker(2, old) is False  # replayed previous nonce
    assert mon.receive_marker(2, Marker(1, 999, fresh.value)) is False
    assert mon.receive_marker(1, fresh) is False  # target vouching for itself
    assert mon.receive_marker(77, fresh) is False  # stranger to the view
    mon.close_round(1, random.Random(1))
    assert mon.outbound_row(1) == frozenset()


def test_duplicate_relay_is_idempotent():
    mon = monitor()
    m = mon.start_round(1, random.Random(1))
    mon.receive_marker(2, m)
    mon.receive_marker(2, m)
    mon.close_round(1, random.Random(1))
    assert mon.outbound_row(1) == frozenset({2})


def test_one_senders_two_relays_in_a_round_count_once():
    # two colluders can fabricate the same ring member's relay in one round
    mon = monitor()
    m = mon.start_round(1, random.Random(1))
    assert mon.receive_marker(2, m) and mon.receive_marker(2, m)
    assert mon.out[1] == (2,) and mon.inb[2] == (1,)
    with mock.patch.object(mon, "adjust_frequency") as adjust:
        mon.close_round(1, random.Random(1))
    adjust.assert_called_once_with(1, 1)  # one arrival, not two


def test_relay_reconfirming_a_known_edge_writes_nothing():
    mon = monitor()
    confirm(mon, 1, [2, 3])
    row, mirror = mon.out[1], mon.inb[2]
    m = mon.start_round(1, random.Random(1))
    assert mon.rounds[1].prior_row is row  # the row itself, not a copy
    assert mon.receive_marker(2, m)
    assert mon.out[1] is row and mon.inb[2] is mirror


# -- view insertion and expiry ------------------------------------------------


def test_change_count_zero_when_row_confirmed():
    mon = monitor()
    assert run_round(mon, 1, [2, 3]) == 2  # empty prior, two additions
    assert run_round(mon, 1, [2, 3]) == 0
    assert mon.outbound_row(1) == frozenset({2, 3})


def test_change_count_is_symmetric_difference():
    mon = monitor()
    run_round(mon, 1, [2, 3])
    assert run_round(mon, 1, [2, 4]) == 2  # drop 3, add 4
    assert mon.outbound_row(1) == frozenset({2, 4})


def test_change_count_from_empty_prior():
    mon = monitor()
    assert run_round(mon, 1, [2, 3, 4]) == 3


def test_round_close_only_expires():
    mon = monitor()
    confirm(mon, 1, [2, 3])
    assert mon.update_topology(1, {2, 4}, mon.outbound_row(1)) == 2
    assert mon.edges == {(1, 2)}  # 3 expired; no relay confirmed 4
    assert {b: set(col) for b, col in mon.inb.items() if col} == {2: {1}}  # mirror expired too


def test_update_drops_vanished_nodes_from_row():
    mon = monitor()
    m = mon.start_round(1, random.Random(1))
    mon.receive_marker(2, m)
    mon.node_departed(2)
    assert set(mon.rounds[1].collected) == {2}
    mon.close_round(1, random.Random(1))
    assert mon.outbound_row(1) == frozenset()


def test_departure_purges_edges_and_names_repair_targets():
    mon = monitor()
    run_round(mon, 1, [2, 3])
    run_round(mon, 4, [3])
    repair = mon.node_departed(3)
    assert repair == [1, 4]
    assert mon.edges == {(1, 2)}
    assert 3 not in mon.nodes and 3 not in mon.freq


def test_departure_returns_every_row_it_touched_and_flags_no_round():
    mon = monitor()
    run_round(mon, 1, [2, 3])
    run_round(mon, 4, [3])
    mon.start_round(1, random.Random(1))
    assert mon.node_departed(3) == [1, 4]  # open round on row 1 or not
    assert mon.rounds[1].rescan is False  # flagging is request_scan's
    assert mon.edges == {(1, 2)}


def test_request_scan_flags_an_open_round_and_passes_an_idle_node():
    mon = monitor()
    run_round(mon, 1, [2])
    assert mon.request_scan(1) is True  # idle: the caller scans it now
    assert mon.rounds == {}
    mon.start_round(1, random.Random(1))
    assert mon.request_scan(1) is False
    assert mon.rounds[1].rescan is True
    assert mon.request_scan(1) is False  # a second request is the same flag
    rng = random.Random(5)
    state = rng.getstate()
    _, delay = mon.close_round(1, rng)
    assert delay == 0 and rng.getstate() == state  # scan at once, no draw
    mon.start_round(1, random.Random(2))
    assert mon.close_round(1, rng)[1] >= 1000  # the flag went with its round


def test_departure_cancels_open_round():
    mon = monitor()
    m = mon.start_round(1, random.Random(1))
    mon.node_departed(1)
    assert 1 not in mon.rounds
    assert mon.receive_marker(2, m) is False


# -- round close ------------------------------------------------------------------


@pytest.mark.parametrize("adaptive,freq", [(True, 3), (False, 5)])
def test_close_returns_confirmations_and_delay_to_next_start(adaptive, freq):
    mon = Monitor(100, mode="fixed", adaptive=adaptive)
    for n in (1, 2, 3, 4):
        mon.node_discovered(n)
    confirm(mon, 4, [1])
    m = mon.start_round(1, random.Random(1))
    mon.receive_marker(2, m)
    mon.receive_marker(3, m)
    msg, delay = mon.close_round(1, random.Random(1))
    assert msg.verified_peers == (2, 3, 4)
    assert mon.freq[1] == freq  # two changes take f_init 5 down to 3
    assert delay == 1000 * freq


# -- frequency adaptation -------------------------------------------------------


@pytest.mark.parametrize(
    "f,c,expected",
    [(5, 0, 6), (10, 0, 10), (5, 3, 2), (2, 5, 1), (5, 1, 5), (1, 0, 2), (9, 2, 7)],
)
def test_frequency_adaptation_table(f, c, expected):
    mon = monitor()
    mon.freq[1] = f
    mon.adjust_frequency(1, c)
    assert mon.freq[1] == expected


@given(st.lists(st.integers(0, 12), max_size=50))
@settings(max_examples=200, deadline=None)
def test_frequency_stays_bounded(cs):
    mon = monitor()
    for c in cs:
        mon.adjust_frequency(1, c)
        assert 1 <= mon.freq[1] <= 10


@pytest.mark.parametrize(
    "kwargs, problem",
    [({"f_init": 11, "f_max": 10}, "need f_min <= f_init <= f_max"),
     ({"mode": "x"}, "unknown scheduling mode 'x'")],
    ids=["f_init-above-f_max", "unknown-mode"],
)
def test_monitor_rejects_bad_frequencies_and_modes(kwargs, problem):
    with pytest.raises(ValueError, match=f"^{problem}$"):
        Monitor(100, **kwargs)


def test_fixed_mode_delay_is_exact():
    mon = monitor(mode="fixed")
    mon.freq[1] = 7
    assert mon.schedule_next_round(1, random.Random(1)) == 7000


def test_poisson_mode_delay_clamped_and_centered():
    mon = monitor()
    rng = random.Random(3)
    draws = [mon.schedule_next_round(1, rng) for _ in range(200_000)]
    assert all(1000 <= d <= 10_000 for d in draws)
    mean = sum(draws) / len(draws)
    assert abs(mean - 5000) / 5000 < 0.05


# -- verified message contents ---------------------------------------------------


def test_verified_message_joins_outbound_row_and_inbound_edges():
    mon = monitor()
    confirm(mon, 1, [2])
    confirm(mon, 3, [1])
    assert mon.build_verified_message(1).verified_peers == (2, 3)


def test_verified_message_empty_for_isolated_node():
    mon = monitor()
    assert mon.build_verified_message(1).verified_peers == ()


def test_verified_message_tracks_row_rewrites():
    mon = monitor()
    run_round(mon, 1, [2])
    run_round(mon, 1, [3])
    assert mon.build_verified_message(1).verified_peers == (3,)


def test_verified_message_lists_a_peer_on_both_sides_once():
    # only fabricated relays put both directions of a pair into a view
    mon = monitor()
    confirm(mon, 1, [2, 4])
    confirm(mon, 2, [1, 3])
    assert mon.build_verified_message(1).verified_peers == (2, 4)
    assert mon.build_verified_message(2).verified_peers == (1, 3)


@given(st.lists(st.tuples(st.integers(1, 5), st.frozensets(st.integers(1, 5))), max_size=12))
@example([(1, frozenset({2})), (2, frozenset({1, 3}))])
@settings(max_examples=200, deadline=None)
def test_verified_peers_are_the_sorted_distinct_row_and_column(rounds):
    mon = monitor()
    for target, relays in rounds:
        confirm(mon, target, relays - {target})
    for t in range(1, 6):
        out, inb = mon.out.get(t, ()), mon.inb.get(t, ())
        want = tuple(sorted(set(out) | set(inb)))
        assert mon.build_verified_message(t).verified_peers == want


# -- aggregation ----------------------------------------------------------------


def views_with_edge_counts(gamma: int, confirmations: int):
    views = []
    for i in range(gamma):
        v = Monitor(100 + i)
        v.node_discovered(1)
        v.node_discovered(2)
        if i < confirmations:
            confirm(v, 1, [2])
        views.append(v)
    return views


def test_majority_includes_three_of_four_but_not_two():
    assert (1, 2) in compute_global_snapshot(views_with_edge_counts(4, 3)).edges
    assert (1, 2) not in compute_global_snapshot(views_with_edge_counts(4, 2)).edges


def test_majority_two_of_three_included():
    assert (1, 2) in compute_global_snapshot(views_with_edge_counts(3, 2)).edges


def test_identical_views_pass_through():
    views = views_with_edge_counts(4, 4)
    snap = compute_global_snapshot(views)
    assert snap.edges == frozenset({(1, 2)})


def test_strict_majority_rule_exhaustive():
    for gamma in range(1, 8):
        for k in range(gamma + 1):
            got = (1, 2) in compute_global_snapshot(views_with_edge_counts(gamma, k)).edges
            assert got is (2 * k > gamma)


def test_adding_a_confirming_view_never_removes_edges():
    base = views_with_edge_counts(4, 3)
    extra = Monitor(999)
    extra.node_discovered(1)
    extra.node_discovered(2)
    confirm(extra, 1, [2])
    grown = compute_global_snapshot(base + [extra])
    assert compute_global_snapshot(base).edges <= grown.edges


def test_empty_aggregation_rejected():
    with pytest.raises(EmptyInput):
        compute_global_snapshot([])


# -- error window ------------------------------------------------------------------


@pytest.mark.parametrize(
    "freqs,expected",
    [([1, 5, 5, 10], 5), ([7, 7, 7, 7], 7), ([2], 2), ([10, 1, 1], 1), ([3, 9], 9)],
)
def test_max_error_window_examples(freqs, expected):
    assert max_error_window(freqs) == expected


def test_max_error_window_rejects_empty():
    with pytest.raises(EmptyInput):
        max_error_window([])


@given(st.lists(st.integers(1, 10), min_size=1, max_size=7))
@settings(max_examples=500, deadline=None)
def test_max_error_window_matches_counting_oracle(freqs):
    # first horizon t at which a strict majority has scanned at least once
    oracle = next(t for t in range(1, 11) if 2 * sum(f <= t for f in freqs) > len(freqs))
    assert max_error_window(freqs) == oracle
