"""NBHD-COORD — does cross-home staggering lift the diversity factor?

Runs the feeder-level collaboration plane
(:mod:`repro.neighborhood.coordination`) across fleet mixes and sizes and
asserts the beyond-paper claim: coordination strictly lifts the diversity
factor while conserving energy exactly (it moves load, never sheds it).
Shortened horizon and small fleets keep the bench in the tier-1 budget;
the full-scale artefact regenerates via ``repro regen NBHD-COORD``.
"""

from repro.experiments import neighborhood_coordination
from repro.sim.units import MINUTE

HORIZON = 150 * MINUTE
COUNTS = (4, 8)
MIXES = ("suburb", "mixed")


def test_neighborhood_coordination(record_figure):
    figure = neighborhood_coordination(n_homes=COUNTS, mixes=MIXES,
                                       seed=1, horizon=HORIZON)
    record_figure(figure)
    data = figure.data

    for cell, row in data.items():
        # Rotation conserves every home's energy; the feeder totals agree
        # to float rounding.
        assert row["energy_drift_pct"] < 1e-6, cell
        # The guard never lets the plane regress the feeder.
        assert row["df_coordinated"] >= row["df_independent"] - 1e-9, cell
        assert row["peak_reduction_pct"] >= -1e-9, cell
    # Staggering finds real headroom in at least one cell per mix.
    for mix in MIXES:
        assert any(row["diversity_uplift"] > 1.005
                   for cell, row in data.items() if cell[0] == mix), mix
