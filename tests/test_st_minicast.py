"""MiniCast all-to-all rounds."""

import pytest

from repro.radio import EnergyMeter, FloodMedium, flocklab26
from repro.sim import RandomStreams
from repro.st import MiniCast, MiniCastConfig


@pytest.fixture
def medium():
    streams = RandomStreams(2)
    channel = flocklab26().make_channel(rng=streams.stream("channel"))
    return FloodMedium(channel, streams.stream("floods"))


def test_round_all_to_all_delivery(medium):
    minicast = MiniCast(medium)
    outcome = minicast.run_round(range(26))
    assert outcome.delivery_ratio(list(range(26))) > 0.99


def test_round_reached_semantics(medium):
    minicast = MiniCast(medium)
    outcome = minicast.run_round(range(26))
    # every node trivially "reaches" itself
    assert outcome.reached(5, 5)
    # high-probability pair on this topology
    assert outcome.reached(0, 1)


def test_aggregation_reduces_flood_count(medium):
    one = MiniCast(medium, MiniCastConfig(aggregation=1))
    two = MiniCast(medium, MiniCastConfig(aggregation=2))
    floods_one = len(one.run_round(range(26)).floods)
    floods_two = len(two.run_round(range(26)).floods)
    assert floods_one == 26
    assert floods_two == 13


def test_group_members_share_items(medium):
    """With aggregation 2, a group member's item rides its peer's flood."""
    minicast = MiniCast(medium, MiniCastConfig(aggregation=2))
    outcome = minicast.run_round([0, 1])
    assert outcome.reached(1, 0)  # item of node 1 in node 0's flood group


def test_round_duration_within_period(medium):
    """A 26-node round must fit comfortably inside the 2 s MiniCast period."""
    minicast = MiniCast(medium)
    outcome = minicast.run_round(range(26))
    assert 0.0 < outcome.duration < 1.0


def test_round_duration_estimate_upper_bounds_actual(medium):
    minicast = MiniCast(medium)
    outcome = minicast.run_round(range(26))
    assert minicast.round_duration(26) >= outcome.duration


def test_round_charges_energy(medium):
    minicast = MiniCast(medium)
    meters = {i: EnergyMeter() for i in range(26)}
    outcome = minicast.run_round(range(26), energy=meters)
    for meter in meters.values():
        assert meter.radio_on_time > 0.0
        # nobody is on longer than the round itself
        assert meter.radio_on_time <= outcome.duration + 1e-9


def test_delivery_ratio_single_node(medium):
    minicast = MiniCast(medium)
    outcome = minicast.run_round([0])
    assert outcome.delivery_ratio([0]) == 1.0
