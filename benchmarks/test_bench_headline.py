"""HEADLINE — the abstract's numbers: peak ↓ up to 50%, variation ↓ up to
58%, average load unchanged."""

from repro.experiments import headline_numbers

SEEDS = (1, 2, 3, 4, 5)


def test_headline(record_figure):
    figure = headline_numbers(seeds=SEEDS, cp_fidelity="round")
    record_figure(figure)
    data = figure.data

    # Directionally the claims must reproduce decisively:
    assert data["peak_reduction_max_pct"] >= 30.0
    assert data["peak_reduction_mean_pct"] >= 20.0
    assert data["std_reduction_max_pct"] >= 30.0
    assert data["std_reduction_mean_pct"] >= 15.0
    # "keeping average load the same"
    assert data["mean_drift_mean_pct"] <= 8.0
