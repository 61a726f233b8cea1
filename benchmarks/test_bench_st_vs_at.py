"""ABL-ST-VS-AT — the introduction's motivation, quantified.

Synchronous-transmission CP vs the traditional asynchronous stack on the
same 26-node topology: radio energy, request-dissemination latency and
behaviour under a synchronized request storm.
"""

from repro.experiments import st_vs_at


def test_st_vs_at(record_figure):
    figure = st_vs_at(seed=1)
    record_figure(figure)
    data = figure.data

    # AT keeps its radio always on; ST duty-cycles rounds.
    assert data["energy_ratio"] > 3.0
    # One ST round moves all 25 requests; AT needs per-report unicasts.
    assert data["st_all_informed_s"] < 0.5
    assert data["st_delivery"] > 0.99
    # A simultaneous request storm collapses CSMA collection.
    assert data["at_storm_delivered"] < data["at_jittered_delivered"]
    assert data["at_storm_delivered"] <= 15
