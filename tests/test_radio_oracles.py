"""Reference oracles for the radio fast paths.

The flood-slot model, the CSMA delivery and the periodic CP tick are
evaluated on arrays, row lists and a re-armed event; the slow, obviously
correct per-listener / per-frame / per-generator versions they replaced
live here, verbatim in behaviour, and every test diffs the two on seeded
random inputs: equal receivers, slots, counts, meters, counters and the
same final RNG state.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.radio import Channel, CsmaMedium, EnergyMeter, FloodMedium, Frame
from repro.radio.channel import (
    dbm_to_mw,
    mw_to_dbm,
    prr_from_sinr,
    prr_steps,
)
from repro.radio.packet import BROADCAST
from repro.radio.phy import RadioConfig
from repro.sim import Simulator
from repro.st import IdealCP, SampledCP, SlotLevelCP
from repro.st.glossy import FloodResult, GlossyConfig, run_flood
from repro.st.minicast import MiniCast, MiniCastConfig, RoundOutcome


# -- the oracles --------------------------------------------------------------


def oracle_reception_probability(channel, receiver, senders, psdu_bytes):
    """One listener, one NumPy scalar per link, Python ``sum``."""
    if not senders:
        return 0.0
    combined_mw = float(sum(channel.rx_power_mw_table[s, receiver]
                            for s in senders))
    if combined_mw <= 0.0:
        return 0.0
    combined_dbm = mw_to_dbm(combined_mw)
    if combined_dbm < channel.config.sensitivity_dbm:
        return 0.0
    snr_db = combined_dbm - channel.config.noise_floor_dbm
    base = prr_from_sinr(snr_db, psdu_bytes)
    return base * channel.config.ci_derating ** (len(senders) - 1)


class OracleFloodMedium:
    """Per-listener flood slots with one scalar draw per audible listener."""

    def __init__(self, channel, rng):
        self.channel = channel
        self.rng = rng

    def flood_slot(self, senders, listeners, psdu_bytes):
        received = set()
        for listener in listeners:
            p = oracle_reception_probability(self.channel, listener,
                                             senders, psdu_bytes)
            if p > 0.0 and self.rng.random() < p:
                received.add(listener)
        return received


def oracle_run_flood(medium, initiator, participants,
                     config=GlossyConfig()):
    nodes = set(participants)
    if initiator not in nodes:
        raise ValueError(f"initiator {initiator} not among participants")
    result = FloodResult(initiator=initiator)
    tx_counts = {n: 0 for n in nodes}
    transmitters = {initiator}
    slot = 0
    while transmitters and slot < config.max_slots:
        listeners = [n for n in nodes
                     if n not in transmitters and tx_counts[n] < config.n_tx]
        received = medium.flood_slot(sorted(transmitters), listeners,
                                     config.psdu_bytes)
        for node in transmitters:
            tx_counts[node] += 1
        next_transmitters = set()
        for node in received:
            if node not in result.first_rx_slot and node != initiator:
                result.first_rx_slot[node] = slot
            next_transmitters.add(node)
        if tx_counts[initiator] < config.n_tx and initiator in transmitters:
            next_transmitters.discard(initiator)
        elif tx_counts[initiator] < config.n_tx:
            next_transmitters.add(initiator)
        transmitters = {n for n in next_transmitters
                        if tx_counts[n] < config.n_tx}
        slot += 1
    result.tx_counts = tx_counts
    result.slots_used = slot
    result.duration = slot * config.slot_length
    return result


def oracle_run_round(medium, config, participants, energy=None):
    """MiniCast round charging each meter per flood, per node."""
    nodes = sorted(set(participants))
    outcome = RoundOutcome()
    agg = max(config.aggregation, 1)
    elapsed = 0.0
    for i in range(0, len(nodes), agg):
        group = nodes[i:i + agg]
        flood = oracle_run_flood(medium, group[0], nodes, config.flood)
        outcome.floods.append(flood)
        for origin in group:
            outcome.delivered[origin] = (
                flood.receivers | set(group)) - {origin}
        elapsed += flood.duration + config.inter_flood_gap
        if energy is not None:
            slot = config.flood.slot_length
            for node in nodes:
                tx_time = flood.tx_counts.get(node, 0) * slot
                energy[node].add("tx", tx_time)
                energy[node].add("rx", max(flood.duration - tx_time, 0.0))
    outcome.duration = elapsed
    return outcome


def oracle_calibrate(medium, nodes, config, rounds):
    ordered = sorted(nodes)
    n = len(ordered)
    index = {node: i for i, node in enumerate(ordered)}
    hits = np.zeros((n, n))
    total_duration = 0.0
    energy = {node: EnergyMeter() for node in ordered}
    for _ in range(rounds):
        outcome = oracle_run_round(medium, config, ordered, energy)
        total_duration += outcome.duration
        for origin in ordered:
            for receiver in outcome.delivered.get(origin, ()):
                hits[index[origin], index[receiver]] += 1
    prob = hits / rounds
    np.fill_diagonal(prob, 1.0)
    mean_energy = float(np.mean(
        [m.energy_joules() for m in energy.values()])) / rounds
    return prob, total_duration / rounds, mean_energy


class OracleCsmaMedium(CsmaMedium):
    """CSMA carrier sense and delivery over NumPy scalar link lookups."""

    def _mw(self, src, dst):
        return float(self.channel.rx_power_mw_table[src, dst])

    def channel_busy(self, node):
        if not self._active:
            return False
        energy_mw = self.channel.noise_mw + sum(
            self._mw(t.source, node) for t in self._active)
        return mw_to_dbm(energy_mw) >= self.channel.config.cca_threshold_dbm

    def _deliver(self, transmission):
        channel = self.channel
        dbm_table = channel._rx_power_dbm
        frame = transmission.frame
        interferer_ids = [t.source for t in transmission.interferers]
        for node, callback in list(self._listeners.items()):
            if node == transmission.source:
                continue
            if not frame.is_broadcast and node != frame.destination:
                continue
            if node in self._transmitting:
                continue
            rx_dbm = float(dbm_table[transmission.source, node])
            if not rx_dbm >= channel.config.sensitivity_dbm:
                continue
            if interferer_ids:
                interference_mw = sum(self._mw(i, node)
                                      for i in interferer_ids)
                if interference_mw > 0.0:
                    sir_db = rx_dbm - mw_to_dbm(interference_mw)
                    if sir_db < channel.config.capture_threshold_db:
                        self.frames_lost_interference += 1
                        continue
            signal = channel.rx_power_mw_table[transmission.source, node]
            interference = channel.noise_mw + sum(
                channel.rx_power_mw_table[i, node]
                for i in interferer_ids if i != transmission.source)
            sinr = mw_to_dbm(signal) - mw_to_dbm(interference)
            p = prr_from_sinr(sinr, frame.psdu_bytes)
            if self.rng.random() < p:
                self.frames_delivered += 1
                callback(frame, rx_dbm)
            elif interferer_ids:
                self.frames_lost_interference += 1
            else:
                self.frames_lost_noise += 1


class OracleSampledCP(SampledCP):
    """Sampled rounds with one scalar draw per (receiver, origin) pair."""

    def _round(self):
        self.stats.rounds_total += 1
        payloads = self._gather_payloads()
        refresh_due = (self.round_index % self.refresh_every) == 0
        if not payloads and not (self._had_miss and refresh_due):
            return
        if not payloads and refresh_due:
            for node in sorted(self.alive):
                payload = self.app.cp_payload(node, -1)
                if payload is not None:
                    payloads[node] = payload
            if not payloads:
                self._had_miss = False
                return
        self.stats.rounds_active += 1
        self.stats.duration_on_air += self.round_duration
        self._had_miss = False
        origin_rows = {origin: self.delivery_prob[self._index[origin]]
                       for origin in payloads}
        for node in sorted(self.alive):
            j = self._index[node]
            packets = {}
            for origin, payload in payloads.items():
                if origin == node:
                    packets[origin] = payload
                    continue
                if self.rng.random() < origin_rows[origin][j]:
                    packets[origin] = payload
                    self.stats.deliveries += 1
                else:
                    self.stats.misses += 1
                    self._had_miss = True
            if packets:
                self.app.cp_deliver(node, packets, self.round_index)


def start_generator_cp(cp):
    """Start ``cp`` as the process loop the kernel tick replaced."""
    def rounds():
        while True:
            cp._round()
            cp.round_index += 1
            yield cp.sim.timeout(cp.period)
    cp._ticker = cp.sim.spawn(rounds(), name="cp-rounds")


# -- inputs -------------------------------------------------------------------


def clone(rng):
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def random_channel(n, sigma, derating, seed, far=()):
    """``n`` nodes in a 45 m square; ids in ``far`` 10 km away."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 45.0, size=(n, 2))
    for node in far:
        positions[node] = (1e4 + node, 1e4)
    return Channel(positions, config=RadioConfig(ci_derating=derating),
                   shadowing_sigma_db=sigma, rng=rng)


CHANNELS = [(n, sigma, derating)
            for n in (1, 2, 3, 26, 40)
            for sigma in (0.0, 3.0, 6.0)
            for derating in (0.9, 0.985, 1.0)]


# -- flood slots --------------------------------------------------------------


@pytest.mark.parametrize("n,sigma,derating", CHANNELS)
def test_reception_probabilities_match_per_listener_chain(n, sigma,
                                                          derating):
    seed = n * 1000 + int(sigma) * 10 + int(derating * 1000)
    channel = random_channel(n, sigma, derating, seed)
    medium = FloodMedium(channel, np.random.default_rng(0))
    rng = np.random.default_rng(seed)
    for _ in range(40):
        senders = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)),
                                    replace=False).tolist())
        listeners = rng.permutation(n).tolist()
        for psdu in (31, 40, 127):
            fast = medium.reception_probabilities(senders, listeners, psdu)
            slow = [oracle_reception_probability(channel, listener,
                                                 senders, psdu)
                    for listener in listeners]
            assert fast == slow
            for listener, p in zip(listeners[:3], slow):
                assert medium.reception_probability(
                    listener, senders, psdu) == p


def test_combined_power_is_the_left_to_right_sum():
    """Bit-equal to ``sum`` per node: a pairwise or reordered reduction
    differs from it in the last bit on a few sums in ten thousand."""
    channel = random_channel(40, 6.0, 0.985, 77)
    medium = FloodMedium(channel, np.random.default_rng(0))
    rng = np.random.default_rng(78)
    for _ in range(1500):
        senders = sorted(rng.choice(40, size=int(rng.integers(1, 41)),
                                    replace=False).tolist())
        combined = medium.combined_power_mw(senders)
        assert combined == [
            sum(channel.rx_power_mw_table[s, node] for s in senders)
            for node in range(40)]


@pytest.mark.parametrize("config", [
    RadioConfig(),
    RadioConfig(sensitivity_dbm=-93.995),  # the cut sits on a step edge
    RadioConfig(noise_floor_dbm=-95.3, sensitivity_dbm=-96.0)],
    ids=["default", "cut-on-edge", "cut-below-noise"])
def test_prr_steps_match_scalar_chain_at_the_edges(config):
    """Powers straddling every decision: sensitivity and 0.01 dB edges."""
    steps = prr_steps(config, 31)
    cut = dbm_to_mw(config.sensitivity_dbm)
    powers = [0.0, 1e-300] + [cut + k * math.ulp(cut) for k in range(-3, 4)]
    for snr_hundredths in range(-100, 2000, 7):
        for offset in (-0.5, -0.4999999, -1e-9, 0.0, 1e-9, 0.4999999, 0.5):
            dbm = config.noise_floor_dbm + (snr_hundredths + offset) / 100.0
            base = dbm_to_mw(dbm)
            for ulps in range(-3, 4):
                powers.append(base + ulps * math.ulp(base))
    powers += np.random.default_rng(3).uniform(1e-13, 1e-2, 5000).tolist()
    fast = steps.prrs(powers, range(len(powers)))
    slow = [steps.scalar_prr(mw) for mw in powers]
    assert fast == slow
    for mw, p in zip(powers, slow):
        dbm = mw_to_dbm(mw) if mw > 0.0 else -math.inf
        expected = (0.0 if dbm < config.sensitivity_dbm else prr_from_sinr(
            dbm - config.noise_floor_dbm, 31))
        assert p == expected


@pytest.mark.parametrize("n,sigma,derating", CHANNELS)
def test_flood_slot_matches_scalar_draws(n, sigma, derating):
    seed = 7 + n * 31 + int(sigma)
    channel = random_channel(n, sigma, derating, seed, far=range(0, n, 5))
    fast = FloodMedium(channel, np.random.default_rng(seed))
    slow = OracleFloodMedium(channel, clone(fast.rng))
    rng = np.random.default_rng(seed + 1)
    for _ in range(30):
        senders = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                    replace=False).tolist())
        listeners = [node for node in rng.permutation(n).tolist()
                     if node not in senders]
        got = fast.flood_slot(senders, listeners, 31)
        want = slow.flood_slot(senders, listeners, 31)
        assert got == want
        assert list(got) == list(want)
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


def assert_same_flood(fast: FloodResult, slow: FloodResult) -> None:
    assert fast.receivers == slow.receivers
    assert list(fast.first_rx_slot.items()) \
        == list(slow.first_rx_slot.items())
    assert list(fast.tx_counts.items()) == list(slow.tx_counts.items())
    assert (fast.slots_used, fast.duration) \
        == (slow.slots_used, slow.duration)


@pytest.mark.parametrize("n,sigma,derating", CHANNELS)
def test_run_flood_matches_oracle_with_dead_nodes(n, sigma, derating):
    seed = 11 + n * 17 + int(sigma * 3)
    channel = random_channel(n, sigma, derating, seed, far=range(1, n, 7))
    fast = FloodMedium(channel, np.random.default_rng(seed))
    slow = OracleFloodMedium(channel, clone(fast.rng))
    rng = np.random.default_rng(seed + 2)
    for n_tx in (1, 3):
        config = GlossyConfig(n_tx=n_tx)
        for _ in range(12):
            alive = [node for node in range(n) if rng.random() < 0.8]
            if not alive:
                continue
            initiator = int(rng.choice(alive))
            assert_same_flood(
                run_flood(fast, initiator, alive, config),
                oracle_run_flood(slow, initiator, alive, config))
            assert fast.rng.bit_generator.state \
                == slow.rng.bit_generator.state


@pytest.mark.parametrize("participants", [
    [3, 64, 130], [130, 64, 3], [130, 3, 64, 11, 19, 35, 139],
    [64, 128, 0, 8, 16, 200 - 61, 72]])
def test_run_flood_with_noncontiguous_ids(participants):
    """Set iteration order is not sorted order: the draw order follows it."""
    channel = random_channel(140, 3.0, 0.985, 5, far=[139])
    fast = FloodMedium(channel, np.random.default_rng(99))
    slow = OracleFloodMedium(channel, clone(fast.rng))
    for initiator in participants:
        assert_same_flood(run_flood(fast, initiator, participants),
                          oracle_run_flood(slow, initiator, participants))
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


@pytest.mark.parametrize("n,sigma,derating", [
    (26, 3.0, 0.985), (40, 6.0, 0.9), (3, 0.0, 1.0), (2, 6.0, 0.985)])
@pytest.mark.parametrize("aggregation", [1, 2, 3])
def test_minicast_round_and_meters_match_oracle(n, sigma, derating,
                                                aggregation):
    channel = random_channel(n, sigma, derating, n + aggregation,
                             far=[n - 1])
    config = MiniCastConfig(aggregation=aggregation)
    fast = FloodMedium(channel, np.random.default_rng(n))
    slow = OracleFloodMedium(channel, clone(fast.rng))
    minicast = MiniCast(fast, config)
    fast_energy = {node: EnergyMeter() for node in range(n)}
    slow_energy = {node: EnergyMeter() for node in range(n)}
    for _ in range(4):
        alive = [node for node in range(n) if node % 9 != 4]
        got = minicast.run_round(alive, energy=fast_energy)
        want = oracle_run_round(slow, config, alive, slow_energy)
        assert got.delivered == want.delivered
        assert got.duration == want.duration
        for a, b in zip(got.floods, want.floods):
            assert_same_flood(a, b)
    assert {node: m.seconds for node, m in fast_energy.items()} \
        == {node: m.seconds for node, m in slow_energy.items()}
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


def test_minicast_rejects_shared_meters():
    channel = random_channel(4, 0.0, 1.0, 1)
    minicast = MiniCast(FloodMedium(channel, np.random.default_rng(1)))
    shared = EnergyMeter()
    with pytest.raises(ValueError):
        minicast.run_round(range(4), energy={n: shared for n in range(4)})


@pytest.mark.parametrize("n,sigma,derating", [
    (26, 3.0, 0.985), (40, 6.0, 0.9), (3, 6.0, 1.0)])
def test_calibration_matches_oracle(n, sigma, derating):
    channel = random_channel(n, sigma, derating, 40 + n)
    nodes = list(range(n))
    fast = FloodMedium(channel, np.random.default_rng(5))
    slow = OracleFloodMedium(channel, clone(fast.rng))
    config = MiniCastConfig(aggregation=2)
    calibration = SampledCP.calibrate(fast, nodes, config, rounds=6)
    prob, duration, energy = oracle_calibrate(slow, nodes, config, 6)
    assert calibration.delivery_prob.tobytes() == prob.tobytes()
    assert (calibration.round_duration, calibration.round_energy_j) \
        == (duration, energy)
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


# -- CSMA delivery ------------------------------------------------------------


def csma_trace(medium_class, channel, seed, n_frames=60):
    """Random overlapping unicasts and broadcasts; every outcome logged."""
    sim = Simulator()
    medium = medium_class(sim, channel, np.random.default_rng(seed))
    log = []
    n = channel.n
    for node in range(n):
        if node % 6 != 5:  # some nodes never listen
            medium.register(node, lambda frame, rssi, node=node: log.append(
                (sim.now, node, frame.source, frame.payload, rssi)))
    plan = np.random.default_rng(seed + 1)

    def sender(start, source, frame):
        yield sim.timeout(start)
        log.append((sim.now, "busy", source, medium.channel_busy(source)))
        yield from medium.transmit(source, frame)

    for k in range(n_frames):
        source = int(plan.integers(0, n))
        destination = (BROADCAST if plan.random() < 0.4
                       else int(plan.integers(0, n)))
        frame = Frame(source=source, destination=destination, payload=k,
                      payload_bytes=int(plan.integers(0, 60)))
        sim.spawn(sender(float(plan.uniform(0.0, 0.05)), source, frame))
    sim.run()
    return log, (medium.frames_sent, medium.frames_delivered,
                 medium.frames_lost_interference, medium.frames_lost_noise,
                 medium.rng.bit_generator.state)


@pytest.mark.parametrize("n,sigma", [(2, 0.0), (3, 6.0), (26, 3.0),
                                     (40, 6.0)])
@pytest.mark.parametrize("seed", [1, 2])
def test_csma_delivery_matches_oracle(n, sigma, seed):
    channel = random_channel(n, sigma, 0.985, seed * 100 + n,
                             far=range(2, n, 9))
    assert csma_trace(CsmaMedium, channel, seed) \
        == csma_trace(OracleCsmaMedium, channel, seed)


def test_channel_row_lists_hold_the_table_doubles():
    channel = random_channel(26, 6.0, 0.985, 3)
    for src in range(26):
        for dst in range(26):
            assert channel.rx_power_mw(src, dst) \
                == float(channel.rx_power_mw_table[src, dst])
            assert channel.rx_power_dbm(src, dst) \
                == float(channel._rx_power_dbm[src, dst])


# -- CP tick ------------------------------------------------------------------


class LoggingApp:
    """Shares on a fixed schedule; logs every call with the clock."""

    def __init__(self, sim, nodes, log, echo_period):
        self.sim = sim
        self.nodes = nodes
        self.log = log
        self.echo_period = echo_period

    def cp_payload(self, node, round_index):
        if round_index % 3 == 1 and node == self.nodes[round_index % 2]:
            return f"item-{round_index}"
        return None

    def cp_deliver(self, node, packets, round_index):
        self.log.append((self.sim.now, "deliver", node, round_index,
                         tuple(sorted(packets))))
        if node == self.nodes[0]:
            # Events landing exactly on the next CP boundary, scheduled
            # before the CP re-arms: a timeout taken right here runs
            # before the next round, a spawned waiter after it.
            self.sim.timeout(self.echo_period).callbacks.append(
                lambda _event: self.log.append(
                    (self.sim.now, "direct", round_index)))
            self.sim.spawn(self._mark(round_index))

    def _mark(self, round_index):
        yield self.sim.timeout(self.echo_period)
        self.log.append((self.sim.now, "echo", round_index))


def cp_order_log(make_cp, start, period=2.0, until=13.0):
    sim = Simulator()
    log = []

    def boundary_process(label, first, step):
        yield sim.timeout(first)
        while True:
            log.append((sim.now, label))
            yield sim.timeout(step)

    # Scheduled before the CP starts (lower sequence numbers) ...
    sim.spawn(boundary_process("before", period, period))
    app = LoggingApp(sim, [0, 1, 2], log, period)
    cp = make_cp(sim, app)
    start(cp)
    # ... and after it (higher ones), both landing on every boundary.
    sim.spawn(boundary_process("after", 0.0, period))
    sim.spawn(boundary_process("minute", 0.0, 2 * period))
    sim.run(until=until)
    return log, cp.round_index, cp.stats


def _make_sampled(sim, app):
    prob = np.full((3, 3), 0.6)
    np.fill_diagonal(prob, 1.0)
    return SampledCP(sim, app, [0, 1, 2], prob, np.random.default_rng(4),
                     refresh_every=2)


def _make_slot(sim, app):
    channel = random_channel(3, 3.0, 0.985, 8)
    return SlotLevelCP(sim, app, [0, 1, 2],
                       FloodMedium(channel, np.random.default_rng(8)))


@pytest.mark.parametrize("make_cp", [
    lambda sim, app: IdealCP(sim, app, [0, 1, 2]),
    _make_sampled, _make_slot], ids=["ideal", "sampled", "slot"])
def test_cp_tick_orders_boundary_events_like_the_generator(make_cp):
    tick = cp_order_log(make_cp, lambda cp: cp.start())
    generator = cp_order_log(make_cp, start_generator_cp)
    assert tick[0] == generator[0]
    assert tick[1] == generator[1]
    assert tick[2] == generator[2]
    assert any(entry[1] == "echo" for entry in tick[0])
    assert any(entry[1] == "direct" for entry in tick[0])


def test_cp_start_twice_rejected():
    sim = Simulator()
    cp = IdealCP(sim, LoggingApp(sim, [0], [], 2.0), [0])
    cp.start()
    with pytest.raises(RuntimeError):
        cp.start()


class RandomApp:
    """Random sharers (some rounds many, some none); logs deliveries."""

    def __init__(self, nodes, seed):
        self.nodes = nodes
        self.plan = np.random.default_rng(seed)
        self.log = []

    def cp_payload(self, node, round_index):
        if round_index == -1:
            return f"state-{node}" if node % 4 else None
        if self.plan.random() < 0.15:
            return (node, round_index)
        return None

    def cp_deliver(self, node, packets, round_index):
        self.log.append((node, round_index, tuple(packets.items())))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_rounds_match_scalar_draws(seed):
    rng = np.random.default_rng(seed)
    nodes = [3, 64, 130, 0, 8, 21, 22]
    prob = rng.uniform(0.0, 1.0, size=(len(nodes), len(nodes)))
    logs = []
    for cls in (SampledCP, OracleSampledCP):
        sim = Simulator()
        app = RandomApp(nodes, seed)
        cp = cls(sim, app, nodes, prob, np.random.default_rng(seed),
                 refresh_every=3)
        cp.fail_node(21)
        cp.start()
        sim.run(until=20.0)
        cp.fail_node(8)
        cp.recover_node(21)
        sim.run(until=60.0)
        logs.append((app.log, cp.stats, cp.rng.bit_generator.state))
    assert logs[0] == logs[1]
    assert logs[0][1].misses > 0 and logs[0][1].deliveries > 0
