"""Communication-Plane drivers: Ideal, Sampled (calibrated), SlotLevel."""

import random

import numpy as np
import pytest

from repro.core.system import HanConfig, execute_config
from repro.radio import DriftingClock, EnergyMeter, FloodMedium, flocklab26
from repro.sim import RandomStreams, Simulator
from repro.sim.kernel import PRIORITY_URGENT
from repro.st import IdealCP, SampledCP, SlotLevelCP
from repro.workloads.scenarios import paper_scenario


class ScriptedApp:
    """Minimal CpApplication: per-node outgoing items + delivery log."""

    def __init__(self, nodes):
        self.outbox = {n: None for n in nodes}
        self.deliveries = []          # (node, packets, round)
        self.payload_calls = 0

    def cp_payload(self, node, round_index):
        self.payload_calls += 1
        payload = self.outbox.get(node)
        if round_index == -1:
            return payload if payload is not None else f"state-{node}"
        self.outbox[node] = None
        return payload

    def cp_deliver(self, node, packets, round_index):
        self.deliveries.append((node, dict(packets), round_index))


def test_ideal_cp_delivers_to_all():
    sim = Simulator()
    app = ScriptedApp(range(4))
    cp = IdealCP(sim, app, list(range(4)), period=2.0)
    app.outbox[1] = "req"
    cp.start()
    sim.run(until=1.0)
    receivers = {node for node, packets, _ in app.deliveries
                 if packets.get(1) == "req"}
    assert receivers == {0, 1, 2, 3}


def test_ideal_cp_skips_empty_rounds():
    sim = Simulator()
    app = ScriptedApp(range(3))
    cp = IdealCP(sim, app, list(range(3)), period=2.0)
    cp.start()
    sim.run(until=10.0)
    assert app.deliveries == []
    assert cp.stats.rounds_total >= 5
    assert cp.stats.rounds_active == 0


def test_ideal_cp_respects_failed_nodes():
    sim = Simulator()
    app = ScriptedApp(range(3))
    cp = IdealCP(sim, app, list(range(3)), period=2.0)
    cp.fail_node(2)
    app.outbox[0] = "x"
    cp.start()
    sim.run(until=1.0)
    receivers = {node for node, _, _ in app.deliveries}
    assert 2 not in receivers
    cp.recover_node(2)
    app.outbox[0] = "y"
    sim.run(until=3.0)
    receivers = {node for node, packets, _ in app.deliveries
                 if "y" in packets.values()}
    assert 2 in receivers


def test_cp_cannot_start_twice():
    sim = Simulator()
    app = ScriptedApp(range(2))
    cp = IdealCP(sim, app, [0, 1])
    cp.start()
    with pytest.raises(RuntimeError):
        cp.start()


def _flood_medium(seed=3):
    streams = RandomStreams(seed)
    channel = flocklab26().make_channel(rng=streams.stream("channel"))
    return FloodMedium(channel, streams.stream("floods")), streams


def test_calibration_shape_and_quality():
    medium, _ = _flood_medium()
    calibration = SampledCP.calibrate(medium, list(range(26)), rounds=5)
    assert calibration.delivery_prob.shape == (26, 26)
    assert np.all(np.diag(calibration.delivery_prob) == 1.0)
    assert calibration.mean_delivery > 0.98
    assert calibration.round_duration > 0.0
    assert calibration.round_energy_j > 0.0


def test_sampled_cp_perfect_matrix_delivers_everything():
    sim = Simulator()
    nodes = list(range(5))
    app = ScriptedApp(nodes)
    cp = SampledCP(sim, app, nodes, np.ones((5, 5)),
                   RandomStreams(0).stream("cp"), period=2.0)
    app.outbox[2] = "req"
    cp.start()
    sim.run(until=1.0)
    receivers = {node for node, packets, _ in app.deliveries
                 if packets.get(2) == "req"}
    assert receivers == set(nodes)


def test_sampled_cp_zero_matrix_only_self_delivers():
    sim = Simulator()
    nodes = list(range(4))
    app = ScriptedApp(nodes)
    matrix = np.zeros((4, 4))
    cp = SampledCP(sim, app, nodes, matrix,
                   RandomStreams(0).stream("cp"), period=2.0,
                   refresh_every=1000)
    app.outbox[1] = "req"
    cp.start()
    sim.run(until=1.0)
    receivers = {node for node, packets, _ in app.deliveries
                 if packets.get(1) == "req"}
    assert receivers == {1}  # origin always holds its own item


def test_sampled_cp_refresh_heals_misses():
    """After a missed delivery, the refresh round re-shares state."""
    sim = Simulator()
    nodes = [0, 1]
    app = ScriptedApp(nodes)
    # 0 -> 1 never delivers on the first try... but refresh retries using
    # cp_payload(node, -1), which re-offers state indefinitely.
    matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
    cp = SampledCP(sim, app, nodes, matrix,
                   RandomStreams(0).stream("cp"), period=1.0,
                   refresh_every=2)
    app.outbox[0] = "v"
    cp.start()
    sim.run(until=10.0)
    # The miss marks _had_miss; refresh rounds keep re-sharing, so the
    # stats must show repeated attempts (misses accumulate).
    assert cp.stats.misses >= 2


def test_sampled_cp_rejects_bad_matrix_shape():
    sim = Simulator()
    app = ScriptedApp(range(3))
    with pytest.raises(ValueError):
        SampledCP(sim, app, [0, 1, 2], np.ones((2, 2)),
                  RandomStreams(0).stream("cp"))


def test_slot_level_cp_end_to_end():
    medium, streams = _flood_medium(seed=4)
    sim = Simulator()
    nodes = list(range(26))
    app = ScriptedApp(nodes)
    energy = {n: EnergyMeter() for n in nodes}
    clocks = {n: DriftingClock(sim, drift_ppm=float(
        streams.stream("drift").normal(0, 20))) for n in nodes}
    cp = SlotLevelCP(sim, app, nodes, medium, period=2.0,
                     clocks=clocks, sync_rng=streams.stream("sync"),
                     energy=energy)
    app.outbox[7] = "req"
    cp.start()
    sim.run(until=1.0)
    receivers = {node for node, packets, _ in app.deliveries
                 if packets.get(7) == "req"}
    assert len(receivers) >= 25  # all-to-all modulo rare flood losses
    assert cp.stats.duration_on_air > 0.0
    assert all(m.radio_on_time > 0 for m in energy.values())
    # sync applied: every synced clock agrees with node 0 within 100 us
    assert cp.sync is not None
    assert cp.sync.stats.samples > 0
    assert cp.sync.stats.max_abs_error < 100e-6


def test_slot_level_cp_single_node_noop():
    medium, _ = _flood_medium()
    sim = Simulator()
    app = ScriptedApp([0])
    cp = SlotLevelCP(sim, app, [0], medium, period=2.0)
    cp.fail_node(0)
    cp.start()
    sim.run(until=5.0)
    assert app.deliveries == []


# -- quiet-round fast-forward ----------------------------------------------


class TracingSimulator(Simulator):
    """Logs ``(time, priority, seq, label)`` of every event it processes."""

    __slots__ = ("trace", "ticker")

    def __init__(self):
        super().__init__()
        self.trace = []
        self.ticker = None

    def step(self):
        when, priority, seq, event = self._queue[0]
        label = "tick" if event is self.ticker else type(event).__name__
        self.trace.append((when, priority, seq, label))
        del event  # keep the Timeout free list as in an untraced run
        super().step()


class PendingApp(ScriptedApp):
    """ScriptedApp naming its may-share nodes, as ``HanSystem`` does."""

    def __init__(self, sim, nodes):
        super().__init__(nodes)
        self.sim = sim
        self.pending = set()
        self.log = []

    def cp_pending_nodes(self):
        return self.pending

    def share(self, node, item):
        self.outbox[node] = item
        self.pending.add(node)

    def cp_payload(self, node, round_index):
        self.log.append(("payload", self.sim.now, node, round_index))
        payload = super().cp_payload(node, round_index)
        if round_index != -1:
            self.pending.discard(node)
        return payload

    def cp_deliver(self, node, packets, round_index):
        self.log.append(("deliver", self.sim.now, node, sorted(packets),
                         round_index))


def _fast_forward_run(kind, seed, fast):
    """A seeded random schedule of shares and crashes around a CP.

    Events land on exact tick instants (timeouts from time 0 to a time
    built by the ticker's own additions) and between them, some with
    urgent priority; the run stops exactly on a tick instant, and a
    second leg follows a share made between the two runs.
    """
    rng = random.Random(seed)
    sim = TracingSimulator()
    nodes = sorted(rng.sample(range(40), rng.randint(2, 6)))
    app = PendingApp(sim, nodes)
    period = rng.choice([2.0, 0.7, 1.3])
    if kind == "ideal":
        cp = IdealCP(sim, app, nodes, period=period)
    else:
        matrix = np.array([[rng.choice([0.0, 0.5, 0.9, 1.0])
                            for _ in nodes] for _ in nodes])
        cp = SampledCP(sim, app, nodes, matrix,
                       RandomStreams(seed).stream("cp"), period=period,
                       refresh_every=rng.choice([1, 2, 3, 5, 15]))
    if not fast:
        cp.quiet_rounds_are_noops = False  # the tick-by-tick reference
    ticks = [0.0]
    for _ in range(80):
        ticks.append(ticks[-1] + period)
    horizon = ticks[rng.randint(20, 40)]

    def at(when, action):
        def wait():
            yield sim.timeout(when)
            action()
        sim.spawn(wait())

    for _ in range(rng.randint(3, 12)):
        when = (rng.choice(ticks[:45]) if rng.random() < 0.5
                else rng.uniform(0.0, ticks[45]))
        node = rng.choice(nodes)
        what = rng.choice(["share", "share", "urgent", "fail", "recover"])
        if what == "share":
            at(when, lambda node=node, when=when: app.share(node, when))
        elif what == "urgent":
            event = sim.event()
            event._value = None
            event.callbacks.append(
                lambda _event, node=node: app.share(node, "urgent"))
            sim._schedule(event, delay=when, priority=PRIORITY_URGENT)
        elif what == "fail":
            at(when, lambda node=node: cp.fail_node(node))
        else:
            at(when, lambda node=node: cp.recover_node(node))
    cp.start()
    sim.ticker = cp._ticker
    sim.run(until=horizon)
    app.share(nodes[0], "between runs")
    sim.run(until=ticks[rng.randint(41, 80)])
    return sim, cp, app


def _assert_same_run(reference, fast):
    (ref_sim, ref_cp, ref_app), (sim, cp, app) = reference, fast
    assert [entry for entry in sim.trace if entry[3] != "tick"] == \
        [entry for entry in ref_sim.trace if entry[3] != "tick"]
    ticks = [entry for entry in sim.trace if entry[3] == "tick"]
    assert set(ticks) <= set(ref_sim.trace)
    # Every round the fast run stepped past did nothing: the app saw
    # the same calls at the same instants and round numbers.
    assert app.log == ref_app.log
    assert cp.stats == ref_cp.stats
    assert cp.round_index == ref_cp.round_index
    assert sim.now == ref_sim.now
    assert sorted(key[:3] for key in sim._queue) == \
        sorted(key[:3] for key in ref_sim._queue)
    if isinstance(cp, SampledCP):
        assert cp._had_miss == ref_cp._had_miss
        assert cp.rng.bit_generator.state == ref_cp.rng.bit_generator.state
    return len(ref_sim.trace) - len(sim.trace)


@pytest.mark.parametrize("kind", ["ideal", "sampled"])
def test_fast_forward_matches_tick_by_tick_oracle(kind):
    skipped = 0
    for seed in range(60):
        reference = _fast_forward_run(kind, seed, fast=False)
        fast = _fast_forward_run(kind, seed, fast=True)
        skipped += _assert_same_run(reference, fast)
    assert skipped > 1000  # the oracle is not vacuous


def test_fast_forward_counts_the_tick_at_until():
    def run(fast):
        sim = TracingSimulator()
        app = PendingApp(sim, [0, 1])
        cp = IdealCP(sim, app, [0, 1], period=2.0)
        cp.quiet_rounds_are_noops = fast
        cp.start()
        sim.ticker = cp._ticker
        sim.run(until=10.0)  # the stop event (priority 2) after the tick
        return sim, cp, app

    reference, fast = run(False), run(True)
    _assert_same_run(reference, fast)
    assert fast[1].stats.rounds_total == 6  # ticks at 0, 2, ..., 10
    assert [entry[0] for entry in fast[0].trace] == [0.0, 10.0]


def test_fast_forward_stops_at_refresh_rounds_after_a_miss():
    def run(fast, fail_at=None):
        sim = TracingSimulator()
        nodes = [0, 1, 2]
        app = PendingApp(sim, nodes)
        cp = SampledCP(sim, app, nodes, np.eye(3),
                       RandomStreams(5).stream("cp"), period=2.0,
                       refresh_every=4)
        cp.quiet_rounds_are_noops = fast
        app.share(1, "req")
        if fail_at is not None:
            def crash_and_recover():
                yield sim.timeout(fail_at)
                cp.fail_node(2)
                yield sim.timeout(10.0)
                cp.recover_node(2)
            sim.spawn(crash_and_recover())
        cp.start()
        sim.ticker = cp._ticker
        sim.run(until=60.0)
        return sim, cp, app

    for fail_at in (None, 8.0, 9.0):
        reference, fast = run(False, fail_at), run(True, fail_at)
        _assert_same_run(reference, fast)
        sim, cp, _ = fast
        # An identity matrix misses every foreign delivery, so every
        # refresh-due round (index 0, 4, 8, ... at 8 s steps) heals.
        # A crash or recovery event stops the skip before it, too.
        stepped = [entry[0] for entry in sim.trace if entry[3] == "tick"]
        refresh = [8.0 * index for index in range(8)]
        assert set(refresh) <= set(stepped)
        if fail_at is None:
            assert stepped == refresh
        assert cp.stats.rounds_active == 8
        assert cp.stats.rounds_total == 31


def test_slot_level_cp_steps_every_round():
    medium, _ = _flood_medium()
    sim = TracingSimulator()
    nodes = list(range(4))
    app = PendingApp(sim, nodes)
    cp = SlotLevelCP(sim, app, nodes, medium, period=2.0)
    cp.start()
    sim.ticker = cp._ticker
    sim.run(until=40.0)
    ticks = [entry for entry in sim.trace if entry[3] == "tick"]
    assert len(ticks) == cp.stats.rounds_total == 21


def test_home_round_cycle_cp_totals():
    """The benchmark's first home-round cycle (seed 1), nine cold runs."""
    seeds = {"low": 2020945947, "moderate": 1071622555, "high": 1219739906}
    totals = [0, 0, 0]
    for rate, seed in seeds.items():
        for policy in ("coordinated", "uncoordinated", "centralized"):
            result = execute_config(HanConfig(
                scenario=paper_scenario(rate), policy=policy,
                cp_fidelity="round", seed=seed))
            if result.cp_stats is not None:
                stats = result.cp_stats
                totals[0] += stats.rounds_total
                totals[1] += stats.rounds_active
                totals[2] += stats.deliveries
    assert totals == [63006, 1590, 44525]
