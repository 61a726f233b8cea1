"""FIG2A — Figure 2(a): total load vs time at the high arrival rate.

Regenerates the paper's 350-minute load traces (with vs without
coordination, 26 x 1 kW devices, Poisson 30 requests/hour) over the
calibrated (``round``) Communication Plane.
"""

import pytest

from repro.experiments import fig2a


def test_fig2a(record_figure):
    figure = fig2a(seed=1, cp_fidelity="round")
    record_figure(figure)

    stats = figure.data["stats"]
    with_coordination = stats["with_coordination"]
    without = stats["wo_coordination"]

    # The paper's Figure 2(a) shape: coordination lowers the peak and
    # smooths the trace while leaving the mean essentially unchanged.
    assert with_coordination.peak_kw < without.peak_kw
    assert with_coordination.std_kw < without.std_kw
    assert with_coordination.mean_kw == pytest.approx(without.mean_kw,
                                                      rel=0.10)
    # load moves in (near-)single-device steps under coordination
    assert with_coordination.max_step_kw <= 2.0
    assert without.max_step_kw >= 1.0
