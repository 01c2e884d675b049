"""Event-queue semantics and sampler distributions for the sim core."""
from __future__ import annotations

import gc
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topomon.engine import SEQ_LIMIT, Engine, sample_exponential, sample_poisson, substream


def make_engine() -> Engine:
    return Engine()


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


class Owner:
    """Registers its own method on the engine it holds, as `World` does."""

    def __init__(self, eng: Engine) -> None:
        self.engine, self.seen = eng, []
        eng.on("x", self.hit)

    def hit(self, tag) -> None:
        self.seen.append(tag)


# -- queue ordering ----------------------------------------------------------


def test_zero_delay_fires_before_later_events():
    eng = make_engine()
    order = []
    eng.on("x", lambda tag: order.append(tag))
    eng.schedule(0, "x", "first")
    eng.schedule(10, "x", "second")
    eng.run_until(100)
    assert order == ["first", "second"]


def test_equal_time_ties_break_by_insertion_order():
    eng = make_engine()
    order = []
    eng.on("x", lambda tag: order.append(tag))
    eng.schedule(500, "x", "A")
    eng.schedule(500, "x", "B")
    eng.run_until(1000)
    assert order == ["A", "B"]


def test_clock_is_additive_from_handler():
    eng = make_engine()
    fired_at = []

    def arm():
        eng.schedule(1000, "timeout")

    eng.on("arm", arm)
    eng.on("timeout", lambda: fired_at.append(eng.now))
    eng.schedule(100, "arm")
    eng.run_until(2000)
    assert fired_at == [1100]


def test_bound_method_handler_does_not_keep_its_object_alive(no_cyclic_gc):
    eng = make_engine()
    owner = Owner(eng)
    eng.schedule(1, "x", "a")
    eng.run_until(1)
    assert owner.seen == ["a"]
    ref = weakref.ref(owner)
    del owner
    assert ref() is None


def test_event_whose_handler_object_is_gone_raises_naming_its_kind(no_cyclic_gc):
    eng = make_engine()
    owner = Owner(eng)
    eng.schedule(1, "x", "a")
    del owner
    with pytest.raises(KeyError, match="'x'"):
        eng.run_until(1)


def test_lambda_handler_stays_registered_and_fires(no_cyclic_gc):
    eng = make_engine()
    seen = []
    eng.on("x", lambda tag: seen.append(tag))
    eng.schedule(1, "x", "a")
    eng.run_until(1)
    assert seen == ["a"]


def test_handler_registered_during_a_run_fires_from_the_next_call():
    eng = make_engine()
    seen = []

    def first(tag):
        seen.append(tag)
        eng.on("x", lambda tag: seen.append(tag.upper()))

    eng.on("x", first)
    eng.schedule(1, "x", "a")
    eng.schedule(2, "x", "b")
    eng.run_until(2)
    eng.schedule(1, "x", "c")
    eng.run_until(3)
    assert seen == ["a", "b", "C"]


def test_empty_run_advances_clock_only():
    eng = make_engine()
    processed = eng.run_until(600_000)
    assert processed == 0
    assert eng.now == 600_000


def test_clock_never_runs_backwards():
    eng = make_engine()
    eng.run_until(100)
    with pytest.raises(ValueError):
        eng.run_until(50)
    assert eng.now == 100
    assert eng.run_until(100) == 0  # the same time again is fine


def test_probe_cadence_yields_twenty_probes():
    eng = make_engine()
    hits = []

    def probe():
        hits.append(eng.now)
        eng.schedule(30_000, "probe")

    eng.on("probe", probe)
    eng.schedule(30_000, "probe")
    eng.run_until(600_000)
    assert len(hits) == 20
    assert hits[0] == 30_000 and hits[-1] == 600_000


def test_negative_delay_rejected():
    eng = make_engine()
    eng.on("x", lambda: None)
    with pytest.raises(ValueError):
        eng.schedule(-1, "x")


def test_cancelled_events_are_skipped():
    eng = make_engine()
    hits = []
    eng.on("x", lambda: hits.append(eng.now))
    keep = eng.schedule(5, "x")
    drop = eng.schedule(3, "x")
    eng.cancel(drop)
    eng.run_until(10)
    assert hits == [5]
    # cancelling `drop` left `keep` live: it fired, and only it was counted
    assert eng.events_processed == 1
    eng.cancel(keep)  # after it fired: no effect
    assert eng.run_until(20) == 0 and hits == [5]


def test_cancel_twice_or_after_firing_is_harmless_and_ties_keep_order():
    eng = make_engine()
    order = []
    eng.on("x", lambda tag: order.append(tag))
    a, b, _ = (eng.schedule(5, "x", tag) for tag in "ABC")
    eng.cancel(b)
    eng.cancel(b)
    assert eng.run_until(5) == 2
    eng.cancel(a)
    d = eng.schedule(0, "x", "D")
    eng.schedule(0, "x", "E")
    eng.cancel(d)
    assert eng.run_until(10) == 1
    assert order == ["A", "C", "E"]
    assert eng.events_processed == 3


def test_missing_handler_raises():
    eng = make_engine()
    eng.schedule(1, "nobody-home")
    with pytest.raises(KeyError):
        eng.run_until(10)


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
@settings(max_examples=200, deadline=None)
def test_processing_order_is_total_by_time_then_seq(delays):
    eng = make_engine()
    seen = []
    eng.on("x", lambda i: seen.append(i))
    for i, d in enumerate(delays):
        eng.schedule(d, "x", i)
    eng.run_until(10_001)
    expected = [i for _, i in sorted((d, i) for i, d in enumerate(delays))]
    assert seen == expected


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=50), st.booleans()), max_size=60
    )
)
@settings(max_examples=200, deadline=None)
def test_cancelled_entries_never_fire_nor_count(plan):
    eng = make_engine()
    seen = []
    eng.on("x", lambda i: seen.append(i))
    entries = [eng.schedule(d, "x", i) for i, (d, _) in enumerate(plan)]
    for entry, (_, cancel) in zip(entries, plan):
        if cancel:
            eng.cancel(entry)
    processed = eng.run_until(51)
    live = sorted((d, i) for i, (d, cancel) in enumerate(plan) if not cancel)
    assert seen == [i for _, i in live]
    assert processed == eng.events_processed == len(live)


queue_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.one_of(st.just(0), st.integers(0, 50), st.integers(0, 2**45)),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("run"), st.one_of(st.integers(0, 60), st.integers(0, 2**46))),
    ),
    max_size=80,
)


@given(queue_ops)
@settings(max_examples=300, deadline=None)
def test_queue_matches_a_sorted_reference_under_cancels_and_steps(ops):
    """Schedules, cancels (before and after firing) and run_until steps
    against a model that keeps the pending (fire_at, seq) pairs sorted."""
    eng = make_engine()
    seen = []
    eng.on("x", lambda i: seen.append((eng.now, i)))
    handles = []
    pending: dict[int, int] = {}  # seq -> fire_at, not yet fired or cancelled
    fired = 0
    for op, arg in ops:
        if op == "schedule":
            pending[len(handles)] = eng.now + arg
            handles.append(eng.schedule(arg, "x", len(handles)))
        elif op == "cancel" and handles:
            i = arg % len(handles)
            eng.cancel(handles[i])
            pending.pop(i, None)
        elif op == "run":
            t = eng.now + arg
            want = sorted((at, i) for i, at in pending.items() if at <= t)
            del seen[:]
            assert eng.run_until(t) == len(want)
            assert seen == want
            for _, i in want:
                del pending[i]
            fired += len(want)
            assert eng.now == t
        for i, h in enumerate(handles):
            assert eng.due(h) == ((pending[i], "x") if i in pending else None)
    assert eng.events_processed == fired


def test_schedule_past_the_packing_limit_raises_and_never_misorders():
    eng = make_engine()
    seen = []
    eng.on("x", lambda tag: seen.append((eng.now, tag)))
    eng._seq = SEQ_LIMIT - 2  # as if that many events had been scheduled
    late = eng.schedule(7, "x", "late")
    early = eng.schedule(3, "x", "early")  # the last seq that packs
    assert eng.due(late) == (7, "x") and eng.due(early) == (3, "x")
    with pytest.raises(OverflowError):
        eng.schedule(0, "x", "one too many")
    assert eng.run_until(10) == 2
    assert seen == [(3, "early"), (7, "late")]


def test_causality_clock_matches_fire_time():
    eng = make_engine()
    stamped = []
    eng.on("x", lambda want: stamped.append((want, eng.now)))
    for d in (7, 3, 3, 9, 0):
        eng.schedule(d, "x", d)
    eng.run_until(20)
    assert all(want == got for want, got in stamped)


# -- randomness --------------------------------------------------------------


def test_substream_reproducible_and_label_separated():
    a1 = [substream(42, "churn").random() for _ in range(5)]
    a2 = [substream(42, "churn").random() for _ in range(5)]
    b = [substream(42, "latency").random() for _ in range(5)]
    assert a1 == a2
    assert a1 != b


def test_poisson_moments_match_mean_five():
    rng = random.Random(1234)
    n = 1_000_000
    draws = [sample_poisson(rng, 5.0) for _ in range(n)]
    mean = sum(draws) / n
    var = sum((d - mean) ** 2 for d in draws) / n
    assert abs(mean - 5.0) / 5.0 < 0.02
    assert abs(var - 5.0) / 5.0 < 0.05


def test_poisson_deterministic_under_seed():
    xs = [sample_poisson(random.Random(7), 5.0) for _ in range(3)]
    ys = [sample_poisson(random.Random(7), 5.0) for _ in range(3)]
    assert xs == ys


def test_poisson_rejects_nonpositive_mean():
    with pytest.raises(ValueError):
        sample_poisson(random.Random(0), 0.0)


def test_exponential_mean_and_floor():
    rng = random.Random(99)
    n = 400_000
    draws = [sample_exponential(rng, 5000.0) for _ in range(n)]
    mean = sum(draws) / n
    assert abs(mean - 5000.0) / 5000.0 < 0.02
    assert min(draws) >= 1
    tiny = [sample_exponential(rng, 0.001) for _ in range(100)]
    assert min(tiny) == 1


def test_exponential_rejects_nonpositive_mean():
    with pytest.raises(ValueError, match="mean_ms must be positive"):
        sample_exponential(random.Random(0), 0)


def test_exponential_deterministic_under_seed():
    xs = [sample_exponential(random.Random(5), 300.0) for _ in range(4)]
    ys = [sample_exponential(random.Random(5), 300.0) for _ in range(4)]
    assert xs == ys
