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
from topomon.monitor import SCHEDULING_MODES
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
    assert w.engine.rng_latency.getstate() == ref.getstate()


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


def test_same_seed_reproduces_probe_rows_and_trace():
    def go():
        sink = io.StringIO()
        w = World(small(malicious_pct=0.25, seed=3), trace_sink=sink)
        return w.run(), sink.getvalue()

    a, ta = go()
    b, tb = go()
    assert a == b
    assert ta == tb
    assert ta.count("\n") > 100


def test_different_seeds_diverge():
    def trace_of(seed):
        sink = io.StringIO()
        World(small(seed=seed), trace_sink=sink).run()
        return sink.getvalue()

    assert trace_of(1) != trace_of(2)


def test_global_snapshot_matches_truth_in_honest_world():
    w = World(small())
    w.run()
    snap = w.global_snapshot()
    assert snap.edges == w.topo.peer_edges()
    assert snap.monitor_count == 2


def test_snapshot_sink_gets_per_monitor_and_global_lines():
    sink = io.StringIO()
    w = World(small(duration_ms=5_000), snapshot_sink=sink)
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


def test_manual_edge_close_disappears_from_monitor_views():
    w = World(small(f_init=1, duration_ms=6_000, probe_every_ms=6_000))
    a, b = next(iter(sorted(w.topo.peer_edges())))
    w.engine.on("test_close", lambda: w.close_edge(a, b))
    w.engine.schedule(2_500, "test_close")
    w.run()
    assert all((a, b) not in m.edges for m in w.monitors.values())


def test_manual_edge_open_appears_in_monitor_views():
    w = World(small(f_init=1, duration_ms=6_000, probe_every_ms=6_000))
    nodes = sorted(w.nodes)
    pair = next(
        (x, y)
        for x in nodes
        for y in nodes
        if x != y and y not in w.nodes[x].peers() and x not in w.nodes[y].peers()
    )
    a, b = pair
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
        ev = w.topo.churn_tick(target_population, w.cfg.malicious_pct, w.engine.rng_churn)
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
