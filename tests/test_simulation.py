"""End-to-end behavior of the assembled world: exactness, determinism, enforcement."""
from __future__ import annotations

import io
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from topomon.adversary import Adversary, SingleBehavior
from topomon.engine import POISSON_MAX_MEAN, sample_poisson, substream
from topomon.experiment import TextArtifacts
from topomon.monitor import SCHEDULING_MODES, max_error_window
from topomon.simulation import ConfigInvalid, ExperimentConfig, World
from topomon.topology import NodeAdded, Role

from test_adversary import RescanRings


def small(**kw) -> ExperimentConfig:
    base = dict(
        nodes=12,
        monitors=2,
        variability_s=0.0,
        malicious_pct=0.0,
        duration_ms=20_000,
        probe_every_ms=5_000,
        scheduling_mode="fixed",
        f_init=2,
        adaptive=False,
        seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def unlinked_pair(w: World) -> tuple[int, int]:
    nodes = sorted(w.nodes)
    return next(
        (x, y)
        for x in nodes
        for y in nodes
        if x != y and y not in w.nodes[x].peers() and x not in w.nodes[y].peers()
    )


def test_config_validation_collects_problems():
    bad = ExperimentConfig(nodes=0, monitors=0, malicious_pct=1.5, f_min=9, f_max=2)
    problems = bad.validate()
    assert len(problems) >= 4
    with pytest.raises(ConfigInvalid):
        World(bad)


# Each of these would hang or compute something silently wrong, so it must be
# refused before a World exists; none of them is ever run.
@pytest.mark.parametrize(
    "kw,problem",
    [
        ({"probe_every_ms": 0}, "probe_every_ms must be >= 1"),
        ({"probe_every_ms": -5}, "probe_every_ms must be >= 1"),
        ({"duration_ms": -1, "probe_every_ms": 1}, "duration_ms must be >= 0"),
        ({"safe_rounds": -1}, "safe_rounds must be >= 0"),
        ({"f_max": POISSON_MAX_MEAN + 1}, f"f_max must be <= {POISSON_MAX_MEAN} in poisson mode"),
        # a float delay cannot be packed into an event key
        ({"round_timeout_ms": 1000.0}, "round_timeout_ms must be an integer"),
        ({"probe_every_ms": 1000.0}, "probe_every_ms must be an integer"),
        ({"nodes": 10.0}, "nodes must be an integer"),
        # a float latency bound or scan frequency reaches the key pack or
        # `bit_length` and crashes, or runs on a fractional frequency
        ({"latency_ms_range": (5.5, 50)}, "latency_ms_range entries must be integers"),
        ({"monitors": 4, "monitor_f_init": (5.0, 5, 5, 5), "scheduling_mode": "fixed"},
         "monitor_f_init entries must be integers"),
        ({"monitors": 4, "monitor_f_init": (2.5, 5, 5, 5)}, "monitor_f_init entries must be integers"),
        # any non-empty string is truthy, so "no" would run as True
        ({"full_hiding": "no"}, "full_hiding must be a bool"),
        ({"malicious_refill": 1}, "malicious_refill must be a bool"),
        ({"adaptive": None}, "adaptive must be a bool"),
        # a value of the wrong type or shape is listed, not raised on
        ({"nodes": "5"}, "nodes must be an integer"),
        ({"nodes": True}, "nodes must be an integer"),  # it ran as one node
        ({"f_init": None}, "f_init must be an integer"),
        ({"share_hops": "2"}, "share_hops must be an integer"),
        ({"variability_s": "1"}, "variability_s must be finite"),
        ({"second_hop_p": None}, "second_hop_p must be finite"),
        ({"latency_ms_range": (5,)}, "latency_ms_range entries must be integers"),
        ({"latency_ms_range": None}, "latency_ms_range entries must be integers"),
        ({"monitor_f_init": ("a",) * 4}, "monitor_f_init entries must be integers"),
        ({"monitor_f_init": 5}, "monitor_f_init entries must be integers"),
        # a larger mean churn gap overflowed World's churn draw
        ({"variability_s": 1e306}, "variability_s must be <= 1e12"),
        ({"variability_s": 10**400}, "variability_s must be <= 1e12"),
    ],
)
def test_config_validation_rejects_hanging_or_wrong_configs(kw, problem):
    cfg = ExperimentConfig(**kw)
    assert problem in cfg.validate()
    with pytest.raises(ConfigInvalid):
        World(cfg)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("name", ["variability_s", "malicious_pct", "second_hop_p"])
def test_config_validation_rejects_non_finite_floats(name, value):
    # inf churn spacing overflowed in World; nan slipped past range checks
    cfg = ExperimentConfig(**{name: value})
    assert f"{name} must be finite" in cfg.validate()
    with pytest.raises(ConfigInvalid):
        World(cfg)


@pytest.mark.parametrize("bounds", [(5, 50), (0, 0), (7, 7), (0, 1), (1, 1000)])
def test_latency_draws_match_randint(bounds):
    # `_send` inlines randint; it must consume the stream exactly as randint does
    w = World(small(latency_ms_range=bounds))
    ref = substream(w.cfg.seed, "latency")  # a Random seeded as the World's stream
    delays = []
    w.engine.schedule = lambda delay, kind, *data: delays.append(delay)
    w._send([(0, 5, None)] * 300, "verified")  # one burst
    assert delays == [ref.randint(*bounds) for _ in range(300)]
    assert w.rng_latency.getstate() == ref.getstate()


def test_config_invalid_survives_pickling():
    # a sweep's worker process sends a failed run's exception back pickled
    err = ConfigInvalid(ExperimentConfig(nodes=0, monitors=0).validate())
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is ConfigInvalid
    assert str(back) == str(err) and back.problems == err.problems
    assert repr(back) == repr(err)


def test_out_of_range_monitor_f_init_is_refused_up_front():
    # Monitor() would raise a bare ValueError, which a sweep records as a
    # failed run instead of refusing the config
    for f_init in ((20, 5, 5, 5), (5, 5, 5, 0)):
        cfg = ExperimentConfig(monitor_f_init=f_init)
        assert "monitor_f_init entries must lie in [f_min, f_max]" in cfg.validate()
        with pytest.raises(ConfigInvalid):
            World(cfg)
    assert ExperimentConfig(monitor_f_init=(1, 5, 5, 10)).validate() == []


def test_f_max_bound_holds_where_poisson_draws_are_exact():
    assert ExperimentConfig().validate() == []
    assert ExperimentConfig(f_max=POISSON_MAX_MEAN).validate() == []
    # fixed mode draws nothing, so any f_max is exact there
    assert ExperimentConfig(f_max=2 * POISSON_MAX_MEAN, scheduling_mode="fixed").validate() == []
    # still a normal double at the bound, so the stopping test is exact
    assert math.exp(-POISSON_MAX_MEAN) > sys.float_info.min
    # the means scan scheduling uses draw exactly what they drew before the bound
    rng = random.Random(7)
    draws = [sample_poisson(rng, float(m)) for m in (1, 5, 10, 30) * 3]
    assert draws == [0, 3, 5, 24, 1, 6, 11, 31, 1, 8, 6, 23]
    with pytest.raises(ValueError):
        sample_poisson(random.Random(0), POISSON_MAX_MEAN + 1)


def test_static_honest_world_is_exact_from_first_probe():
    w = World(small())
    probes = w.run()
    assert [p.time_ms for p in probes] == [5_000, 10_000, 15_000, 20_000]
    truth = w.topo.peer_edges()
    for p in probes:
        assert (p.tp, p.fp, p.fn) == (len(truth), 0, 0)


def test_same_seed_reproduces_the_probe_rows_and_trace_text():
    def go():
        sink = io.StringIO()
        w = World(small(malicious_pct=0.25, seed=3), observer=TextArtifacts(trace=sink))
        return w.run(), sink.getvalue()

    a, ta = go()
    b, tb = go()
    assert a == b
    assert ta == tb
    assert ta.count("\n") > 100


def test_different_seeds_diverge():
    def trace_of(seed):
        sink = io.StringIO()
        World(small(seed=seed), observer=TextArtifacts(trace=sink)).run()
        return sink.getvalue()

    assert trace_of(1) != trace_of(2)


def test_trace_lines_are_tab_separated_and_stamped():
    sink = io.StringIO()
    w = World(small(), observer=TextArtifacts(trace=sink))
    w.engine.run_until(1_234)
    a, b = unlinked_pair(w)
    before = len(sink.getvalue())
    w.open_edge(a, b)
    assert sink.getvalue()[before:] == f"1234\tedge_open\t{a}\t{b}\t\n"


@st.composite
def observed_worlds(draw) -> ExperimentConfig:
    """Worlds with churn, soft-hiding colluders and malicious refill, so that
    every kind of observer call is made."""
    return ExperimentConfig(
        nodes=draw(st.integers(4, 20)),
        monitors=draw(st.integers(1, 4)),
        variability_s=draw(st.floats(0.3, 3.0)),
        malicious_pct=draw(st.floats(0.1, 0.5)),
        full_hiding=False,
        malicious_refill=True,
        safe_rounds=draw(st.integers(0, 3)),
        duration_ms=20_000,
        probe_every_ms=5_000,
        seed=draw(st.integers(0, 2**16)),
    )


@given(observed_worlds())
@settings(max_examples=25, deadline=None)
def test_observers_draw_no_rng_and_write_the_same_bytes(cfg):
    # no observer, trace only, snapshots only, both: the run is the same, and
    # each text artifact is the same whether or not the other is written
    def go(trace: int, snapshots: int):
        sinks = [io.StringIO() if on else None for on in (trace, snapshots)]
        w = World(cfg, observer=TextArtifacts(*sinks) if trace or snapshots else None)
        probes = w.run()
        return probes, w.engine.events_processed, [s and s.getvalue() for s in sinks]

    plain, trace_only, snaps_only, both = go(0, 0), go(1, 0), go(0, 1), go(1, 1)
    for run in (trace_only, snaps_only, both):
        assert run[:2] == plain[:2]
    assert trace_only[2][0] == both[2][0] != ""
    assert snaps_only[2][1] == both[2][1] != ""


class MirroredWorld(World):
    """A world whose observer rebuilds every out row from the observer's data
    alone, and checks each join and leave against the ground truth."""

    def __init__(self, cfg: ExperimentConfig) -> None:
        self.mirror: dict[int, set[int]] = {}
        super().__init__(cfg, observer=self.observe)

    def observe(self, now, kind, frm, to, data) -> None:
        rows = self.mirror
        if kind == "join":
            assert data.node == frm and set(data.targets) == self.topo.out[frm]
            rows[frm] = set(data.targets)
        elif kind == "leave":
            assert data.node == frm and data.severed_out == tuple(sorted(rows.pop(frm)))
            orphans = sorted(p for p, row in rows.items() if frm in row)
            assert [p for p, _ in data.rewired] == orphans
            for p, t in data.rewired:
                rows[p] = (rows[p] - {frm}) | ({t} - {None})
                assert rows[p] == self.topo.out[p]
        elif kind == "refill":
            rows[frm].add(to)
        elif kind == "disconnect":
            rows[data[0]].discard(data[1])


@given(observed_worlds())
@settings(max_examples=25, deadline=None)
def test_join_and_leave_events_match_the_ground_truth(cfg):
    # each join's targets are the new node's out row at that moment; each
    # leave's orphans are the nodes whose row held the leaver, and each
    # replacement edge is in its orphan's row; from these and the edge calls
    # alone, an observer keeps every out row right to the end of the run
    w = MirroredWorld(cfg)
    w.run()
    assert w.mirror == w.topo.out


@given(observed_worlds())
@settings(max_examples=25, deadline=None)
def test_an_accepted_relay_is_in_the_view_when_delivered(cfg):
    # the relay's arrival is the one way an edge enters a monitor's view
    accepted = []

    def observe(now, kind, frm, to, data):
        if kind == "marker_to_monitor" and data[1]:
            accepted.append(frm)
            assert frm in w.monitors[to].outbound_row(data[0].target)

    w = World(cfg, observer=observe)
    w.run()
    assert accepted


def test_global_snapshot_matches_truth_in_honest_world():
    w = World(small())
    w.run()
    snap = w.global_snapshot()
    assert snap.edges == w.topo.peer_edges()


def test_snapshot_observer_gets_per_monitor_and_global_lines():
    sink = io.StringIO()
    w = World(small(duration_ms=5_000), observer=TextArtifacts(snapshots=sink))
    w.run()
    lines = sink.getvalue().splitlines()
    tags = [ln.split("\t")[1] for ln in lines]
    assert tags == ["m0", "m1", "global"]
    assert all(ln.split("\t")[0] == "5000" for ln in lines)


def test_silent_relay_peer_gets_disconnected_banned_and_replaced():
    cfg = small(f_init=1, duration_ms=15_000, probe_every_ms=15_000)
    w = World(cfg)
    mole = max(w.nodes, key=lambda n: (len(w.topo.inb[n]), -n))
    w.convert_to_malicious(mole, SingleBehavior(6, drop_for=frozenset({0, 1})))
    had_mole_out = [n for n, row in w.topo.out.items() if mole in row]
    assert had_mole_out, "fixture needs at least one inbound edge at the mole"
    w.run()
    for n in had_mole_out:
        if n not in w.topo.out:
            continue
        assert mole not in w.topo.out[n]
        assert mole in w.topo.banned[n]
        # lost slot got refilled
        assert len(w.topo.out[n]) == cfg.outbound_per_node
    assert not any(mole in (a, b) for a, b in w.topo.peer_edges())
    assert w.topo.audit() == []


def test_node_states_mirror_topology_under_churn():
    cfg = ExperimentConfig(
        nodes=30,
        monitors=3,
        variability_s=1.0,
        malicious_pct=0.2,
        duration_ms=60_000,
        probe_every_ms=60_000,
        seed=11,
    )
    w = World(cfg)
    w.run()
    assert w.topo.audit() == []
    alive = set(w.topo.peers_alive())
    assert set(w.nodes) == alive
    for n, handler in w.nodes.items():
        st = handler.state if isinstance(handler, Adversary) else handler
        assert st.outbound is w.topo.out[n]
        assert st.inbound is w.topo.inb[n]
    adversaries = {n for n, h in w.nodes.items() if isinstance(h, Adversary)}
    assert adversaries == set(w.topo.malicious_alive())


def test_every_node_shares_the_worlds_one_monitor_map():
    cfg = ExperimentConfig(nodes=20, monitors=3, variability_s=0.5, malicious_pct=0.3,
                           duration_ms=10_000, probe_every_ms=10_000, seed=5)
    w = World(cfg)

    def maps() -> list[dict[int, int]]:
        return [getattr(h, "state", h).monitors for h in w.nodes.values()]

    first = set(w.nodes)
    shared = maps()[0]
    assert shared == {0: 2, 1: 4, 2: 6}  # monitor id -> its pair's index in a record
    assert any(isinstance(h, Adversary) for h in w.nodes.values())
    assert all(m is shared for m in maps())
    w.run()
    assert set(w.nodes) - first, "fixture needs a churn join"
    assert all(m is shared for m in maps())


def test_converting_a_node_that_is_not_live_names_it():
    w = World(small())
    with pytest.raises(ValueError, match="node 999 is not a live honest node"):
        w.convert_to_malicious(999)
    assert 999 not in w.nodes and 999 not in w.topo.roles


def test_manual_edge_close_disappears_from_monitor_views():
    w = World(small(f_init=1, duration_ms=6_000, probe_every_ms=6_000))
    a, b = next(iter(sorted(w.topo.peer_edges())))
    w.engine.on("test_close", lambda: w.close_edge(a, b))
    w.engine.schedule(2_500, "test_close")
    w.run()
    assert all((a, b) not in m.edges for m in w.monitors.values())


def test_manual_edge_open_appears_in_monitor_views():
    w = World(small(f_init=1, duration_ms=6_000, probe_every_ms=6_000))
    a, b = unlinked_pair(w)
    w.engine.on("test_open", lambda: w.open_edge(a, b))
    w.engine.schedule(2_500, "test_open")
    w.run()
    assert all((a, b) in m.edges for m in w.monitors.values())


# Joins open min(outbound_per_node, live peers) edges, so a population smaller
# than the outbound slots still churns.
@pytest.mark.parametrize(
    "kw", [{"nodes": 1}, {"nodes": 2}, {"nodes": 3}, {"nodes": 3, "outbound_per_node": 5}]
)
def test_small_population_runs_under_churn(kw):
    w = World(ExperimentConfig(variability_s=1.0, duration_ms=60_000, **kw))
    w.run()
    assert w.engine.now == 60_000
    assert w.topo.audit() == []
    assert w.topo.new_id() > w.cfg.monitors + w.cfg.nodes  # churn added nodes


@st.composite
def idle_worlds(draw) -> ExperimentConfig:
    """Small static honest worlds whose round timeout outlasts a relay's three
    hops (monitor -> target -> peer -> monitor), so every relay lands in its
    round; with a shorter timeout late relays miss the close and rows flap."""
    f_min, f_init, f_max = sorted(draw(st.lists(st.integers(1, 12), min_size=3, max_size=3)))
    lo, hi = sorted(draw(st.lists(st.integers(0, 300), min_size=2, max_size=2)))
    return ExperimentConfig(
        nodes=draw(st.integers(1, 25)),
        monitors=draw(st.integers(1, 5)),
        variability_s=0.0,
        malicious_pct=0.0,
        duration_ms=60_000,
        probe_every_ms=60_000,
        latency_ms_range=(lo, hi),
        round_timeout_ms=draw(st.integers(3 * hi + 1, 3 * hi + 2_000)),
        f_min=f_min,
        f_init=f_init,
        f_max=f_max,
        scheduling_mode=draw(st.sampled_from(SCHEDULING_MODES)),
        seed=draw(st.integers(0, 2**16)),
    )


@given(idle_worlds())
@settings(max_examples=60, deadline=None)
def test_idle_rows_slow_down_one_step_per_round_to_f_max(cfg):
    # the paper's adaptive scanning: once a row's round sees no change, no
    # later round does, and its frequency climbs by one per round to f_max
    w = World(cfg)
    rounds: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for mon in w.monitors.values():
        def adjust(target, c, mon=mon, inner=mon.adjust_frequency):
            before = mon.freq[target]
            inner(target, c)
            rounds.setdefault((mon.id, target), []).append((c, before, mon.freq[target]))
        mon.adjust_frequency = adjust
    w.run()
    assert len(rounds) == cfg.nodes * cfg.monitors  # every row closed a round
    for log in rounds.values():
        idle = next((i for i, (c, _, _) in enumerate(log) if c == 0), len(log))
        for c, before, after in log[idle:]:
            assert c == 0 and after == min(before + 1, cfg.f_max)


@st.composite
def honest_churn_worlds(draw) -> ExperimentConfig:
    """Small honest worlds under churn that meet the preconditions of
    `test_honest_churn_errors_end_within_the_error_window`."""
    f_init, f_max = sorted(draw(st.lists(st.integers(1, 10), min_size=2, max_size=2)))
    lo, hi = sorted(draw(st.lists(st.integers(0, 150), min_size=2, max_size=2)))
    return ExperimentConfig(
        nodes=draw(st.integers(1, 30)),
        monitors=draw(st.integers(1, 5)),
        variability_s=draw(st.floats(0.2, 3.0)),
        malicious_pct=0.0,
        duration_ms=15_000,
        probe_every_ms=15_000,
        latency_ms_range=(lo, hi),
        round_timeout_ms=draw(st.integers(3 * hi + 1, min(3 * hi + 1_000, 1000 * f_max))),
        f_init=f_init,
        f_max=f_max,
        scheduling_mode=draw(st.sampled_from(SCHEDULING_MODES)),
        seed=draw(st.integers(0, 2**16)),
    )


@given(honest_churn_worlds())
@settings(max_examples=100, deadline=None)
def test_honest_churn_errors_end_within_the_error_window(cfg):
    """The paper's staleness bound: in an honest run under churn, an edge on
    which the agreed view and the ground truth differ is set right within
    `1000 * max_error_window([f_max] * monitors) + round_timeout_ms +
    2 * latency_hi` ms. An error episode is timed from the first 50 ms step
    that sees it; one still open at the end is checked at its age.

    Preconditions, which the strategy draws:
    - `round_timeout_ms > 3 * latency_hi`, because a relay takes three hops
      (monitor -> target -> peer -> monitor). With a shorter timeout a relay
      can land after its round closed, so a row can miss a live edge round
      after round, and no window bounds the error.
    - `round_timeout_ms <= 1000 * f_max`. Past it, rounds are spaced by the
      timeout, and a closed edge can wait two timeouts to leave a row.
    """
    w = World(cfg)
    hi = cfg.latency_ms_range[1]
    bound = 1000 * max_error_window([cfg.f_max] * cfg.monitors) + cfg.round_timeout_ms + 2 * hi
    since: dict[tuple[int, int], int] = {}  # open episode -> first step that saw it
    for now in range(0, cfg.duration_ms + 1, 50):
        w.engine.run_until(now)
        wrong = w.global_snapshot().edges ^ w.topo.peer_edges()
        since = {e: since.get(e, now) for e in wrong}
        oldest = min(since.values(), default=now)
        assert now - oldest <= bound, (now, oldest, bound)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="Monitor.node_departed picks repair scans from the view's inb, so an orphan "
    "whose first round has not yet recorded the departed peer gets no repair scan",
)
def test_orphan_rewired_during_its_first_round_is_rescanned_at_once():
    """Node 5 leaves at 69 ms while every monitor's first round of node 7 is
    still open and has collected only 6. Orphan 7 rewires to 15 at 70 ms; a
    repair scan of row 7 would put 7->15 into the agreed view within one
    round timeout plus three hops."""
    cfg = ExperimentConfig(nodes=19, monitors=5, variability_s=1.739, round_timeout_ms=532,
                           f_init=10, f_max=10, scheduling_mode="fixed",
                           latency_ms_range=(7, 69), seed=16413)
    w = World(cfg)
    bound = cfg.round_timeout_ms + 3 * cfg.latency_ms_range[1]
    opened = None
    for now in range(0, 12_000, 10):
        w.engine.run_until(now)
        if opened is None and (7, 15) in w.topo.peer_edges():
            opened = now
        if opened is not None and (7, 15) in w.global_snapshot().edges:
            break
    else:
        pytest.fail("7->15 never reached both the truth and the agreed view")
    assert now - opened <= bound, (opened, now)


@st.composite
def valid_worlds(draw) -> ExperimentConfig:
    """Small configs that `validate()` accepts, drawn over every field a run
    reads: churn, colluders of every shape, and latencies past the timeout."""
    f_min, f_init, f_max = sorted(draw(st.lists(st.integers(1, 4), min_size=3, max_size=3)))
    lo, hi = sorted(draw(st.lists(st.integers(0, 400), min_size=2, max_size=2)))
    duration = draw(st.integers(1, 20_000))
    cfg = ExperimentConfig(
        nodes=draw(st.integers(1, 10)),
        monitors=draw(st.integers(1, 3)),
        outbound_per_node=draw(st.integers(0, 4)),
        variability_s=draw(st.sampled_from([0.0, 0.001, 0.05, 0.4, 2.0])),
        malicious_pct=draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])),
        duration_ms=duration,
        probe_every_ms=draw(st.integers(1, duration)),
        round_timeout_ms=draw(st.sampled_from([1, 7, 300, 1_000, 4_000])),
        f_init=f_init,
        f_min=f_min,
        f_max=f_max,
        safe_rounds=draw(st.integers(0, 3)),
        scheduling_mode=draw(st.sampled_from(SCHEDULING_MODES)),
        seed=draw(st.integers(0, 2**16)),
        latency_ms_range=(lo, hi),
        full_hiding=draw(st.booleans()),
        share_hops=draw(st.integers(1, 2)),
        second_hop_p=draw(st.sampled_from([0.0, 0.5, 1.0])),
        malicious_refill=draw(st.booleans()),
        adaptive=draw(st.booleans()),
    )
    assert cfg.validate() == []
    return cfg


@given(valid_worlds())
@settings(max_examples=150, deadline=None)
def test_event_count_stays_within_the_closed_form_bound(cfg):
    """Events fired by a run of N = nodes, M = monitors, o = outbound_per_node,
    T = round_timeout_ms, D = duration_ms, P = probe_every_ms, with J joins
    by churn:

    - probe: one at each multiple of P up to D, so D // P.
    - churn: each tick is a join or a leave. The population starts at N and a
      tick adds below N, removes above N and flips a coin at N, so it never
      falls below N - 1: leaves <= J + 1, and ticks <= 2J + 1.
    - round_start: a (monitor, node) pair opens its first round when the node
      joins, and starts lie at least T apart (the next start is scheduled no
      sooner than the close, T after the start, and a repair scan replaces
      only a waiting start), so a pair has at most D // T + 1 rounds. There
      are M (N + J) pairs. round_timeout: at most one per round_start.
    - deliver: every message comes from one round. Live colluders number at
      most C, where C = 0 without colluders and C = N + 1 (the population
      bound above) with them. A round delivers the marker and the list to
      the target (2); an honest target forwards to at most o outbound peers,
      each of which relays once if honest or fabricates at most C relays
      through the clique if malicious (o + o max(1, C)); a colluding target
      forwards to at most o honest peers, which relay once each, and its
      adjacent colluders fabricate at most C relays (2o + C). So a round
      delivers at most W = 2 + o + o max(1, C) + C messages.

    Hence events <= D // P + 2J + 1 + M (N + J) (D // T + 1) (2 + W).
    """
    w = World(cfg)
    fired = dict.fromkeys(("probe", "churn", "round_start", "round_timeout", "deliver"), 0)
    for kind, handler in list(w.engine._handlers.items()):
        def counted(*data, kind=kind, handler=handler):
            fired[kind] += 1
            handler(*data)
        w.engine.on(kind, counted)
    w.run()
    n, m, o, t, d = (cfg.nodes, cfg.monitors, cfg.outbound_per_node,
                     cfg.round_timeout_ms, cfg.duration_ms)
    joins = w.topo.new_id() - m - n  # ids rise and are never reused
    c = 0 if cfg.malicious_pct == 0 else n + 1
    rounds = m * (n + joins) * (d // t + 1)
    per_round = 2 + o + o * max(1, c) + c
    assert sum(fired.values()) == w.engine.events_processed
    assert fired["probe"] == d // cfg.probe_every_ms
    assert fired["churn"] <= 2 * joins + 1
    assert fired["round_timeout"] <= fired["round_start"] <= rounds
    assert fired["deliver"] <= rounds * per_round
    bound = d // cfg.probe_every_ms + 2 * joins + 1 + rounds * (2 + per_round)
    assert w.engine.events_processed <= bound


# Small valid worlds: churn fast enough to replace every node many times,
# colluders, and round timeouts longer than the shortest scan period, so
# repair scans land inside open rounds.
worlds = st.builds(
    ExperimentConfig,
    nodes=st.integers(1, 8),
    monitors=st.integers(1, 3),
    outbound_per_node=st.integers(0, 4),
    variability_s=st.sampled_from([0.0, 0.05, 0.4, 2.0]),
    malicious_pct=st.sampled_from([0.0, 0.25, 0.5]),
    duration_ms=st.just(40_000),
    probe_every_ms=st.just(10_000),
    round_timeout_ms=st.sampled_from([1, 800, 4_000, 15_000]),
    safe_rounds=st.integers(0, 3),
    scheduling_mode=st.sampled_from(SCHEDULING_MODES),
    f_min=st.just(1),
    f_init=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)


class WorldMachine(RuleBasedStateMachine):
    """A small world whose engine runs in drawn steps while churn, edge
    changes and conversions to colluders are applied between them."""

    @initialize(cfg=worlds)
    def build(self, cfg):
        self.w = World(cfg)
        self.now = 0

    @rule(step=st.integers(1, 6_000))
    def advance(self, step):
        w = self.w
        w.engine.run_until(w.engine.now + step)
        # every due entry has fired, so the rest lie strictly ahead; only a
        # join's first scan is scheduled at `now` (see the invariant)
        due = [w.engine.due(key) for key in w.pending.values()]
        assert all(d is not None and d[0] > w.engine.now for d in due)

    @rule(target_population=st.integers(1, 8))
    def join_or_leave(self, target_population):
        # what `_on_churn` does, without scheduling more churn
        w = self.w
        ev = w.topo.churn_tick(target_population, w.cfg.malicious_pct, w.rng_churn)
        if isinstance(ev, NodeAdded):
            w._node_joined(ev)
        else:
            w._node_left(ev)

    @rule(data=st.data())
    def close_edge(self, data):
        edges = sorted(self.w.topo.peer_edges())
        if edges:
            self.w.close_edge(*data.draw(st.sampled_from(edges)))

    @rule(data=st.data())
    def open_edge(self, data):
        topo = self.w.topo
        pairs = [(a, b) for a in topo.peers_alive() for b in topo.eligible_targets(a)]
        if pairs:
            self.w.open_edge(*data.draw(st.sampled_from(pairs)))

    @rule(data=st.data())
    def convert(self, data):
        w = self.w
        honest = [n for n in w.topo.peers_alive() if w.topo.roles[n] is Role.HONEST]
        if not honest:
            return
        someone = st.none() | st.sampled_from(w.topo.peers_alive())
        single = st.none() | st.builds(
            SingleBehavior,
            behavior=st.integers(1, 6),
            victim=someone,
            relay_via=someone,
            drop_for=st.frozensets(st.sampled_from(sorted(w.monitors))),
        )
        w.convert_to_malicious(data.draw(st.sampled_from(honest)), data.draw(single))

    @invariant()
    def world_is_consistent(self):
        w, topo = self.w, self.w.topo
        assert w.engine.now >= self.now
        self.now = w.engine.now
        assert topo.audit() == []
        live = topo.peers_alive()
        assert list(w.nodes) == live
        for n, handler in w.nodes.items():
            state = handler.state if isinstance(handler, Adversary) else handler
            assert state.outbound is topo.out[n]
            assert state.inbound is topo.inb[n]
        rescan = RescanRings(topo, w.policy.rng)
        for n in topo.malicious_alive():
            assert w.policy.rings(n) == rescan.rings(n)
        for mid, mon in w.monitors.items():
            assert mon.nodes == set(live)
            for rows in (mon.out, mon.inb):
                assert rows.keys() <= mon.nodes
                assert all(row <= mon.nodes for row in rows.values())
            pairs = {(a, b) for a, row in mon.out.items() for b in row}
            assert pairs == {(a, b) for b, col in mon.inb.items() for a in col}
            assert {k for k in w.pending if k[0] == mid} == {(mid, t) for t in live}
            for t in live:
                due = w.engine.due(w.pending[(mid, t)])
                assert due is not None  # neither fired nor cancelled
                fire_at, kind = due
                assert fire_at >= self.now  # a join schedules its first scan at delay 0
                assert kind == ("round_timeout" if t in mon.rounds else "round_start")


WorldMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
test_world_under_churn_edges_and_conversions = WorldMachine.TestCase
