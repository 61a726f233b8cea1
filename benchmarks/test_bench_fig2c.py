"""FIG2C — Figure 2(c): average load ± load deviation vs arrival rate.

The paper's error bars are the load's standard deviation over time; the
claim is that coordination keeps the average while shrinking the bars
(by up to 58%).
"""

import pytest

from repro.experiments import fig2c

SEEDS = (1, 2, 3)


def test_fig2c(record_figure):
    figure = fig2c(seeds=SEEDS, cp_fidelity="round")
    record_figure(figure)

    rates = figure.data["rates"]
    for rate, entry in rates.items():
        with_mean, with_dev = entry["with"]
        wo_mean, wo_dev = entry["without"]
        # average load preserved (the paper: "keeping average load the
        # same") — coordination defers, it does not shed energy
        assert with_mean == pytest.approx(wo_mean, rel=0.12), rate
        # deviation (error bar) shrinks at every rate
        assert with_dev < wo_dev, rate
    # average load grows with the arrival rate
    assert rates[4.0]["with"][0] < rates[18.0]["with"][0] \
        < rates[30.0]["with"][0]

    best = figure.data["best_reduction_pct"]
    assert best >= 20.0
