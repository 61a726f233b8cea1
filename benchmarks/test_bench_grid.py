"""GRID-10K — 10,000 homes on 20 feeders, end-to-end under a minute.

The fleet-of-fleets acceptance path of PR 7: twenty 500-home feeders
under one substation, executed through the sharded engine with worker-
side envelope pre-reduction, per-feeder CP rounds, and feeder-level
envelope negotiation at the substation tier
(:func:`repro.neighborhood.grid.execute_grid`), run once as the 10k
scale lock.

The 10-minute horizon with ideal CP is the budget that fits the 1-core
bench box inside 60 seconds; the artefact this regenerates is the
committed golden lock ``benchmarks/results/grid-10k.txt`` (digest
included), so a bits-level regression fails the diff, not just the
assertions below.
"""

from repro.experiments.ablations import grid_uplift

FEEDERS = 20
HOMES_PER_FEEDER = 500


def test_grid_10k_substation_smoke(record_figure):
    figure = grid_uplift()
    record_figure(figure)
    data = figure.data

    assert data["n_feeders"] == FEEDERS
    assert data["n_homes"] == FEEDERS * HOMES_PER_FEEDER
    # Rotation conserves energy exactly; the guard never lets either
    # tier regress the substation it coordinates.
    assert data["energy_drift_pct"] < 1e-6
    assert data["peak_reduction_pct"] >= -1e-9
    assert data["df_coordinated"] >= data["df_independent"] - 1e-9
    # The flagship claim: two-tier coordination finds real headroom at
    # substation scale.  At N=10k the 20 statistically-identical
    # feeders peak near-simultaneously (DF_indep ~ 1.000), so the
    # uplift ratio stays close to 1 — the headroom shows up as the
    # coincident-peak reduction itself.
    assert data["diversity_uplift"] >= 1.0 - 1e-9
    assert data["peak_reduction_pct"] > 10.0
    assert data["applied"]
