"""Channel model: path loss, BER curve, PRR, connectivity."""

import networkx as nx
import numpy as np
import pytest

from repro.radio import Channel, ber_oqpsk, prr_from_sinr
from repro.sim import RandomStreams


def line_channel(distances, **kwargs):
    """Nodes on a line at cumulative distances from node 0."""
    xs = np.concatenate([[0.0], np.cumsum(distances)])
    positions = np.column_stack([xs, np.zeros_like(xs)])
    return Channel(positions, **kwargs)


def test_ber_is_half_at_very_low_sinr():
    assert ber_oqpsk(-30.0) == pytest.approx(0.5, abs=0.05)


def test_ber_vanishes_at_high_sinr():
    assert ber_oqpsk(10.0) < 1e-12


def test_ber_monotone_decreasing():
    sinrs = np.linspace(-10, 10, 41)
    bers = [ber_oqpsk(float(s)) for s in sinrs]
    assert all(a >= b - 1e-15 for a, b in zip(bers, bers[1:]))


def test_prr_decreases_with_frame_length():
    assert prr_from_sinr(2.0, 20) > prr_from_sinr(2.0, 120)


def test_prr_transition_region():
    """The classic 802.15.4 DSSS waterfall sits between about −4 and +1 dB."""
    assert prr_from_sinr(-4.0, 40) < 0.01
    assert 0.05 < prr_from_sinr(-2.0, 40) < 0.5
    assert prr_from_sinr(1.0, 40) > 0.99


def test_rx_power_decreases_with_distance():
    channel = line_channel([10.0, 20.0, 40.0])
    p1 = channel.rx_power_dbm(0, 1)
    p2 = channel.rx_power_dbm(0, 2)
    p3 = channel.rx_power_dbm(0, 3)
    assert p1 > p2 > p3


def test_link_prr_perfect_close_dead_far():
    channel = line_channel([5.0, 200.0])
    assert channel.link_prr(0, 1, 40) > 0.999
    assert channel.link_prr(0, 2, 40) == 0.0


def test_no_self_link():
    channel = line_channel([10.0])
    assert channel.rx_power_dbm(0, 0) == float("-inf")
    assert not channel.audible(0, 0)


def test_shadowing_is_symmetric():
    rng = RandomStreams(1).stream("chan")
    channel = line_channel([30.0, 30.0], rng=rng, shadowing_sigma_db=6.0)
    assert channel.rx_power_dbm(0, 1) == pytest.approx(
        channel.rx_power_dbm(1, 0))
    assert channel.rx_power_dbm(1, 2) == pytest.approx(
        channel.rx_power_dbm(2, 1))


def test_shadowing_zero_without_rng():
    a = line_channel([25.0])
    b = line_channel([25.0])
    assert a.rx_power_dbm(0, 1) == b.rx_power_dbm(0, 1)


def test_sinr_with_interferer_lower_than_clean():
    channel = line_channel([20.0, 20.0])
    clean = channel.snr_db(0, 1)
    interfered = channel.sinr_db(1, 0, interferers=[2])
    assert interfered < clean


def test_sinr_ignores_self_in_interferers():
    channel = line_channel([20.0, 20.0])
    assert channel.sinr_db(1, 0, interferers=[0]) == pytest.approx(
        channel.snr_db(0, 1))


def test_combined_power_adds():
    from repro.radio import FloodMedium
    channel = line_channel([20.0, 20.0])
    medium = FloodMedium(channel, np.random.default_rng(0))
    combined = medium.combined_power_mw([0, 2])[1]
    assert combined == pytest.approx(
        channel.rx_power_mw(0, 1) + channel.rx_power_mw(2, 1))


def test_connectivity_graph_line():
    channel = line_channel([30.0, 30.0, 30.0])
    graph = channel.connectivity_graph(prr_threshold=0.5)
    assert graph.has_edge(0, 1)
    assert graph.has_edge(1, 2)
    assert not graph.has_edge(0, 3)
    assert nx.is_connected(graph)


def test_connectivity_edges_carry_etx():
    channel = line_channel([20.0])
    graph = channel.connectivity_graph()
    prr = graph[0][1]["prr"]
    assert graph[0][1]["etx"] == pytest.approx(1.0 / prr)


def test_neighbours_bidirectional():
    channel = line_channel([30.0, 30.0])
    assert channel.neighbours(1) == [0, 2]


def test_positions_must_be_2d():
    with pytest.raises(ValueError):
        Channel(np.zeros((3, 3)))
