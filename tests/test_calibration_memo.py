"""The round-CP calibration memo: exact hits, a locked key, shared reuse.

A round-fidelity home calibrates its CP from the seed's ``channel`` and
``floods`` streams and the radio knobs only, so ``HanSystem`` serves a
calibration from :func:`repro.st.rounds.cached_calibration` under a key
of exactly those inputs.  These tests lock the key (a field outside it
hits, a field inside it misses), check a served matrix cannot be
written, and check a sweep that shares seeds across rates and policies
calibrates once per seed with bit-identical cells.
"""

import dataclasses
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    ControlSpec,
    ExperimentSpec,
    ScenarioSpec,
    SweepSpec,
    run,
)
from repro.core import HanConfig, HanSystem, execute_config
from repro.sim.units import MINUTE
from repro.st import SampledCP, rounds
from repro.workloads import paper_scenario

SHORT = 30 * MINUTE


@pytest.fixture
def calibrations(monkeypatch):
    """Empty memo; the returned list logs every real calibration."""
    calls = []
    real = SampledCP.calibrate

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(SampledCP, "calibrate", staticmethod(counting))
    rounds._CALIBRATIONS.clear()
    yield calls
    rounds._CALIBRATIONS.clear()


def base_config(**kwargs):
    return HanConfig(scenario=paper_scenario("high"), policy="coordinated",
                     cp_fidelity="round", seed=11, calibration_rounds=2,
                     **kwargs)


def assert_same_calibration(one, other):
    assert one.delivery_prob.tobytes() == other.delivery_prob.tobytes()
    assert (one.round_duration, one.round_energy_j) == \
        (other.round_duration, other.round_energy_j)


OUTSIDE_KEY = {
    "policy": {"policy": "uncoordinated"},
    "cp_period": {"cp_period": 3.0},
    "refresh_every": {"refresh_every": 4},
    "controller_id": {"controller_id": 5},
    "rate": {"scenario": paper_scenario("low")},
    "horizon": {"scenario": replace(paper_scenario("high"),
                                    horizon=90 * MINUTE)},
}

INSIDE_KEY = {
    "seed": {"seed": 12},
    "topology_name": {"topology_name": "grid"},
    "device count": {"scenario": replace(paper_scenario("high"),
                                         n_devices=20)},
    "shadowing_sigma_db": {"shadowing_sigma_db": 4.0},
    "path_loss_exponent": {"path_loss_exponent": 3.1},
    "ci_derating": {"ci_derating": 0.95},
    "aggregation": {"aggregation": 3},
    "calibration_rounds": {"calibration_rounds": 3},
}


@pytest.mark.parametrize("field", sorted(OUTSIDE_KEY))
def test_field_outside_the_key_hits(calibrations, field):
    base = HanSystem(base_config()).cp_calibration
    config = replace(base_config(), **OUTSIDE_KEY[field])
    served = HanSystem(config).cp_calibration
    assert len(calibrations) == 1
    assert served is base
    # ... and what it serves is what this config calibrates to.
    rounds._CALIBRATIONS.clear()
    assert_same_calibration(HanSystem(config).cp_calibration, served)


@pytest.mark.parametrize("field", sorted(INSIDE_KEY))
def test_field_inside_the_key_misses(calibrations, field):
    HanSystem(base_config())
    HanSystem(replace(base_config(), **INSIDE_KEY[field]))
    assert len(calibrations) == 2


def test_every_config_field_is_classified():
    """A new HanConfig field must be put inside or outside the key."""
    classified = {"scenario", "cp_fidelity", *OUTSIDE_KEY, *INSIDE_KEY}
    assert {f.name for f in dataclasses.fields(HanConfig)} <= classified


def test_served_calibration_is_read_only(calibrations):
    system = HanSystem(base_config())
    calibration = system.cp_calibration
    with pytest.raises(ValueError):
        calibration.delivery_prob[0, 1] = 0.5
    with pytest.raises(ValueError):
        system.cp.delivery_prob[0, 1] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        calibration.round_duration = 1.0
    assert np.all(HanSystem(base_config()).cp_calibration.delivery_prob
                  == calibration.delivery_prob)


def test_portable_result_round_trips_through_pickle(calibrations):
    result = execute_config(base_config(), until=SHORT)
    back = pickle.loads(pickle.dumps(result.portable()))
    assert_same_calibration(back.cp_calibration, result.cp_calibration)
    assert back.cp_stats == result.cp_stats
    assert back.load_w.times == result.load_w.times
    assert back.load_w.values == result.load_w.values
    assert back.bursts == result.bursts
    assert back.config == result.config


def test_memo_is_bounded_least_recently_used_first():
    rounds._CALIBRATIONS.clear()
    made = []

    def calibrate(tag):
        def make():
            made.append(tag)
            return rounds.CpCalibration(np.ones((1, 1)), 0.0, 0.0)
        return make

    size = rounds.CALIBRATION_MEMO_SIZE
    for key in range(size):
        rounds.cached_calibration(key, calibrate(key))
    rounds.cached_calibration(0, calibrate("again"))  # 0 is now newest
    rounds.cached_calibration(size, calibrate(size))  # evicts 1
    assert len(rounds._CALIBRATIONS) == size
    rounds.cached_calibration(0, calibrate("again"))
    rounds.cached_calibration(1, calibrate(1))
    assert made == [*range(size), size, 1]
    rounds._CALIBRATIONS.clear()


def _cell_digest(result):
    return (result.config, result.load_w.times, result.load_w.values,
            [(r.request_id, r.arrival_time, r.completed_at)
             for r in result.requests],
            result.cp_stats, result.cp_calibration.delivery_prob.tobytes(),
            result.cp_calibration.round_duration,
            result.cp_calibration.round_energy_j, result.bursts)


def test_sweep_calibrates_once_per_seed(calibrations):
    spec = ExperimentSpec(
        name="memo-sweep", kind="sweep",
        scenario=ScenarioSpec(preset="paper-low"),
        control=ControlSpec(cp_fidelity="round", calibration_rounds=3),
        seeds=(21, 22), until_s=SHORT,
        sweep=SweepSpec(rates=(4.0, 18.0)))
    result = run(spec, jobs=1)
    assert len(result.runs) == 2 * 2 * 2
    assert len(calibrations) == 2
    for cell in result.runs:
        rounds._CALIBRATIONS.clear()
        alone = execute_config(cell.config, until=SHORT)
        assert _cell_digest(alone) == _cell_digest(cell)
    assert len(calibrations) == 2 + 8
