"""ABL-CP-PERIOD — sensitivity to the 2 s MiniCast period.

Admission latency tracks the CP period, but the load shape barely moves
even at a 60 s period: the paper's 2 s choice is comfortably conservative
for 15-minute duty-cycle slots.
"""

from repro.experiments import cp_period_sweep
from repro.sim.units import MINUTE

HORIZON = 180 * MINUTE
PERIODS = (0.5, 2.0, 10.0, 60.0)


def test_cp_period_sweep(record_figure):
    figure = cp_period_sweep(periods=PERIODS, seeds=(1, 2),
                             horizon=HORIZON)
    record_figure(figure)
    data = figure.data

    # Admission latency is bounded by (and grows with) the period.
    for period in PERIODS:
        assert data[period]["admission_latency_s"] <= 2 * period + 1e-6
    assert data[60.0]["admission_latency_s"] > \
        data[2.0]["admission_latency_s"]
    # The load shape is insensitive across 0.5 s .. 60 s.
    peaks = [data[p]["peak_kw"] for p in PERIODS]
    assert max(peaks) - min(peaks) <= 1.5
