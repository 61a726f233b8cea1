"""ABL-SCALE — does the benefit survive beyond 26 devices?

Fleet-size sweep at constant per-device request rate; the coordinated
advantage must not vanish as the HAN grows past the paper's testbed size.
"""

from repro.experiments import scale_sweep
from repro.sim.units import MINUTE

HORIZON = 180 * MINUTE
COUNTS = (10, 26, 40, 60)


def test_scale_sweep(record_figure):
    figure = scale_sweep(device_counts=COUNTS, seeds=(1, 2),
                         horizon=HORIZON)
    record_figure(figure)
    data = figure.data

    for n in COUNTS:
        # coordination wins at every size
        assert data[n]["peak_with"] < data[n]["peak_wo"], n
        assert data[n]["peak_reduction_pct"] > 10.0, n
    # absolute peaks scale with the fleet
    assert data[60]["peak_wo"] > data[10]["peak_wo"]
