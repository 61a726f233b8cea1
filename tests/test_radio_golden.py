"""Bit-exact locks on the radio substrate of the paper's home run.

The flood-slot model (``FloodMedium`` under ``run_flood``/``MiniCast``),
the CSMA medium and the periodic CP rounds have fast paths; these
digests pin every output bit they feed: the calibrated delivery matrix
and the ``floods`` stream's final state, the round-fidelity home runs
of all three policies (load series, CP and MAC counters), and a
slot-fidelity run with clock synchronisation.  A digest that moves is
a behaviour change, not noise: the values were recorded before the
fast paths existed and must never be regenerated to make a speedup
pass.

Regenerate (only on a deliberate, versioned output change) with::

    PYTHONPATH=src python tests/test_radio_golden.py
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.system import HanConfig, HanSystem
from repro.radio import DriftingClock, FloodMedium, flocklab26
from repro.sim import RandomStreams
from repro.sim.units import MINUTE
from repro.st import SampledCP, SyncService
from repro.st.minicast import MiniCastConfig
from repro.workloads.scenarios import paper_scenario


def _digest(*parts) -> str:
    """sha256 over exact encodings: array bytes, ``repr`` otherwise."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _series(series) -> tuple[np.ndarray, np.ndarray]:
    return (np.asarray(series.times, dtype=np.float64),
            np.asarray(series.values, dtype=np.float64))


def _cp(stats) -> tuple:
    return (stats.rounds_total, stats.rounds_active, stats.deliveries,
            stats.misses, stats.duration_on_air)


def _energy(meters) -> tuple:
    return tuple((node, tuple(sorted(meter.seconds.items())))
                 for node, meter in sorted(meters.items()))


# -- calibration --------------------------------------------------------------


def calibration_digest(aggregation: int, seed: int) -> str:
    streams = RandomStreams(seed)
    channel = flocklab26().make_channel(rng=streams.stream("channel"))
    medium = FloodMedium(channel, streams.stream("floods"))
    nodes = list(range(channel.n))
    calibration = SampledCP.calibrate(
        medium, nodes, MiniCastConfig(aggregation=aggregation), rounds=20)
    return _digest(calibration.delivery_prob, calibration.round_duration,
                   calibration.round_energy_j,
                   medium.rng.bit_generator.state)


# -- home runs ----------------------------------------------------------------


def home_digest(policy: str, rate: str, seed: int) -> str:
    system = HanSystem(HanConfig(scenario=paper_scenario(rate),
                                 policy=policy, cp_fidelity="round",
                                 seed=seed))
    result = system.run()
    parts = [*_series(result.load_w), len(result.requests),
             result.completed_requests(),
             _cp(result.cp_stats) if result.cp_stats else None]
    if result.cp_calibration is not None:
        parts += [result.cp_calibration.delivery_prob,
                  result.cp_calibration.round_duration,
                  result.cp_calibration.round_energy_j]
    if result.at_stats is not None:
        at = result.at_stats
        medium = system.at_network.medium
        parts += [(at.reports_sent, at.reports_delivered,
                   at.dropped_channel_busy, at.dropped_no_ack,
                   tuple(at.report_latencies)),
                  (medium.frames_sent, medium.frames_delivered,
                   medium.frames_lost_interference,
                   medium.frames_lost_noise)]
    return _digest(*parts)


def slot_digest(seed: int) -> str:
    scenario = replace(paper_scenario("high"), horizon=8 * MINUTE)
    system = HanSystem(HanConfig(scenario=scenario, policy="coordinated",
                                 cp_fidelity="slot", seed=seed))
    clock_streams = RandomStreams(seed + 1000)
    drift = clock_streams.stream("drift")
    clocks = {node: DriftingClock(system.sim,
                                  drift_ppm=float(drift.normal(0.0, 20.0)))
              for node in system.device_ids}
    system.cp.sync = SyncService(clocks, clock_streams.stream("sync"),
                                 system.cp.minicast.config.flood)
    result = system.run()
    sync = system.cp.sync.stats
    return _digest(*_series(result.load_w), _cp(result.cp_stats),
                   _energy(result.st_energy),
                   (sync.samples, sync.max_abs_error, sync.sum_abs_error,
                    tuple(sorted(sync.unsynced_nodes))),
                   tuple(clock.local_time() for clock in clocks.values()))


# -- the locks ----------------------------------------------------------------

CALIBRATION = {
    (1, 1):
        "4a5982d9a1937a76f7dc577cc7c4586bf1134073b114f7260775df8bde8cda6f",
    (1, 7):
        "0124189a7d8f18573fc442a3003eed6739edbae586c13561a7f6e4dd6a119dc2",
    (2, 1):
        "cf9236bfd6bbd6e4b86760d1c9c0ed5e24cf9ad47798a3e0b1d2858206c1aa52",
    (2, 7):
        "f3c3a366cedb86f1d3b3092c69d56056d2797176a36499d64df244eea84ed947",
    (3, 1):
        "a90d5dba2a8ac1af1c477ce52b104b2e698f16c77ea96b67b1a7ad3859595c67",
    (3, 7):
        "2067c0f840f10914cef87128079415b84116dda2ab20e1ddff4a16e3138db4a3",
}

HOMES = {
    ("coordinated", "high", 1):
        "675f8a4d8b2a582544b500325b106ab7177c06f853a13c845094e523151a39f0",
    ("coordinated", "moderate", 3):
        "b7f86edec096c78a5d70f05bc8704caf1acda7521cc2db176af23526722654e9",
    ("uncoordinated", "high", 1):
        "e779bb92bf76e8ea099eab668f753912c6a1cc0e23904a8e03e921f407e9be9f",
    ("uncoordinated", "moderate", 3):
        "57bad48a92ee2890fb11eb4bd99a214ebab1e573ac614fec6afcabce43474c6a",
    ("centralized", "high", 1):
        "b9a647659861cc234b11b9c78fc0928778b8f2cbe5a2d5bc09f60ff1a10dfbb9",
    ("centralized", "moderate", 3):
        "db73cc6fc28965657f93c86a5fae686c8fd8ddfd0bab1ed68b7cec2fe45e97df",
}

SLOT = {
    1: "7e492ea55125715a968e6d2b2835a4c5c6e969eea350038f8ab4d7c2b5fa6e93",
}


@pytest.mark.parametrize("aggregation,seed", sorted(CALIBRATION))
def test_calibration_is_bit_exact(aggregation, seed):
    assert calibration_digest(aggregation, seed) \
        == CALIBRATION[aggregation, seed]


@pytest.mark.parametrize("policy,rate,seed", sorted(HOMES))
def test_round_fidelity_home_is_bit_exact(policy, rate, seed):
    assert home_digest(policy, rate, seed) == HOMES[policy, rate, seed]


@pytest.mark.parametrize("seed", sorted(SLOT))
def test_slot_fidelity_run_is_bit_exact(seed):
    assert slot_digest(seed) == SLOT[seed]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("CALIBRATION = {")
    for aggregation in (1, 2, 3):
        for seed in (1, 7):
            print(f"    ({aggregation}, {seed}):\n"
                  f"        \"{calibration_digest(aggregation, seed)}\",")
    print("}\n\nHOMES = {")
    for policy in ("coordinated", "uncoordinated", "centralized"):
        for rate, seed in (("high", 1), ("moderate", 3)):
            print(f"    (\"{policy}\", \"{rate}\", {seed}):\n"
                  f"        \"{home_digest(policy, rate, seed)}\",")
    print("}\n\nSLOT = {")
    print(f"    1: \"{slot_digest(1)}\",")
    print("}")
