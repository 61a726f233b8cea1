"""ABL-VARIANTS — scheduler placement variants + SPOF comparison.

Stagger-with-full-period-latitude is the primary mode; the grid variant
synchronises switching at slot boundaries and the strict-deferral variant
halves the smoothing headroom.  Also regenerates the single-point-of-
failure comparison the introduction argues from.
"""

from repro.experiments import scheduler_variants, spof_comparison
from repro.sim.units import MINUTE

HORIZON = 180 * MINUTE


def test_scheduler_variants(record_figure):
    figure = scheduler_variants(seeds=(1, 2), horizon=HORIZON)
    record_figure(figure)
    data = figure.data

    for variant in ("stagger/period", "stagger/strict", "grid"):
        assert data[variant]["peak_reduction_pct"] > 0.0, variant
    # the primary mode smooths at least as well as the grid variant
    assert data["stagger/period"]["std_kw"] <= data["grid"]["std_kw"] + 0.2
    # strict deferral never waits longer than period deferral allows
    assert data["stagger/strict"]["wait_min"] <= \
        data["stagger/period"]["wait_min"] + 1e-6


def test_spof(record_figure):
    figure = spof_comparison(fail_at=60 * MINUTE, seed=3,
                             horizon=240 * MINUTE)
    record_figure(figure)
    data = figure.data

    assert data["centralized"]["admitted_after_failure"] == 0.0
    assert data["coordinated"]["admitted_after_failure"] > 0.95
