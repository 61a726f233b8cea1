"""FIG2B — Figure 2(b): peak load vs arrival rate (4/18/30 per hour).

The paper reports peak-load reduction "up to 50%"; this bench regenerates
the same bars (mean ± seed-std) and records the measured best reduction.
"""

from repro.experiments import fig2b

SEEDS = (1, 2, 3)


def test_fig2b(record_figure):
    figure = fig2b(seeds=SEEDS, cp_fidelity="round")
    record_figure(figure)

    rates = figure.data["rates"]
    assert set(rates) == {4.0, 18.0, 30.0}
    for rate, entry in rates.items():
        with_mean = entry["with"][0]
        without_mean = entry["without"][0]
        # coordination must win at every rate
        assert with_mean < without_mean, rate
        # peak grows with the arrival rate in both systems
    assert rates[4.0]["without"][0] < rates[18.0]["without"][0] \
        < rates[30.0]["without"][0]
    assert rates[4.0]["with"][0] < rates[18.0]["with"][0] \
        < rates[30.0]["with"][0]

    best = figure.data["best_reduction_pct"]
    # the paper claims "up to 50%"; the reproduced shape lands in the
    # 25-55% band depending on seed (see benchmarks/results/fig2b.txt)
    assert best >= 25.0
