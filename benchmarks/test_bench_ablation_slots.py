"""ABL-SLOTS — sensitivity to the minDCD/maxDCP working point.

The paper fixes 15/30 minutes; this sweep shows the mechanism is not an
artefact of that ratio (more slack -> more smoothing headroom).
"""

from repro.experiments import slots_sweep
from repro.sim.units import MINUTE

HORIZON = 180 * MINUTE
SPECS = ((15, 30), (10, 30), (15, 45), (5, 30))


def test_slots_sweep(record_figure):
    figure = slots_sweep(specs=SPECS, seeds=(1, 2), horizon=HORIZON)
    record_figure(figure)
    data = figure.data

    for spec in SPECS:
        assert data[spec]["peak_reduction_pct"] > 0.0, spec
        assert data[spec]["std_reduction_pct"] > 0.0, spec
    # smaller duty fraction (5/30) leaves more staggering headroom than
    # the paper's 15/30 point
    assert data[(5, 30)]["peak_reduction_pct"] >= \
        data[(15, 30)]["peak_reduction_pct"] - 5.0
