"""NBHD-ONLINE — per-epoch online coordination against forecasts.

The telemetry + forecast plane acceptance path of PR 8: 500 homes run
once, then the same realized results replay through the online epoch
loop (:func:`repro.neighborhood.online.coordinate_fleet_online`) under
progressively degraded predictions.  The flagship assertions pin the
subsystem's contract:

* the oracle-driven incremental loop recovers >= 80% of the hindsight
  ceiling (cold full replan on realized envelopes every epoch);
* rotation conserves energy *exactly* (fsum-correct, not approximately);
* the per-epoch guard never raises any epoch's peak over independent;
* prediction noise degrades recovery gracefully, never below
  independent;
* epoch 2+ incremental replans cost far less CP traffic than cold
  replans — the sub-linear-in-unchanged-homes claim, checked both at
  the fleet level (the deliveries ratio) and directly on
  :func:`~repro.neighborhood.coordination.renegotiate_offsets`.

The artefact this regenerates is the committed golden lock
``benchmarks/results/nbhd-online.txt`` (profile digest included), so a
bits-level regression fails the diff, not just the assertions below.
"""

import pytest

from repro.experiments.ablations import online_uplift

HOMES = 500


def test_online_uplift_smoke(record_figure):
    figure = online_uplift()
    record_figure(figure)
    data = figure.data

    assert data["n_homes"] == HOMES
    assert data["n_epochs"] >= 2
    # Rotation permutes segments; fsum makes the integral exact, so the
    # drift is zero to the bit, not merely small.
    assert data["oracle_energy_drift_wh"] == 0.0
    # The acceptance bar: committing each epoch's offsets before that
    # epoch's telemetry exists costs the oracle at most 20% of what the
    # same actuator achieves with hindsight and unlimited CP traffic.
    assert data["oracle_recovery"] >= 0.8
    # Graceful degradation: noisy predictions recover less than exact
    # ones, and the per-epoch guard keeps every run at or above the
    # independent baseline (recovery can never go negative).
    recoveries = [entry["recovery"]
                  for label, entry in data["sweep"].items()]
    assert all(recovery >= -1e-9 for recovery in recoveries)
    noisy = [entry["recovery"] for label, entry in data["sweep"].items()
             if label.startswith("oracle+")]
    assert all(recovery <= data["oracle_recovery"] + 1e-9
               for recovery in noisy)
    # Incremental replanning: the diff loop's total CP deliveries stay
    # far below cold per-epoch renegotiation (n^2 per round, every
    # round, every epoch).
    ratio = data["oracle_cp_deliveries"] / data["ceiling_cp_deliveries"]
    assert ratio < 0.2


@pytest.mark.parametrize("changed", [4, 32])
def test_online_replan_cost(changed):
    """Incremental replan cost scales with |changed|, not with n^2.

    Builds one converged 256-home claim plane, perturbs ``changed``
    envelopes, and runs the re-negotiation alone — the exact
    epoch-boundary work of the online loop.  Deliveries are asserted
    (``sweeps * changed * n``: one gateway's updated envelope and claim
    to n gateways per round, only changed homes holding tokens) so the
    sub-linear claim
    is a measured contract, not a wall-clock accident.
    """
    import numpy as np

    from repro.neighborhood.coordination import (
        FeederConfig,
        FeederPlane,
        negotiate_offsets,
        renegotiate_offsets,
    )
    from repro.sim.rng import RandomStreams

    n, bins = 256, 16
    streams = RandomStreams(7)
    envelopes = {
        home: tuple(streams.stream(f"bench/env-{home}")
                    .uniform(0.0, 1e3, bins).tolist())
        for home in range(n)}
    config = FeederConfig()
    claims, _stats, _sweeps = negotiate_offsets(
        FeederPlane(list(range(n)), envelopes, bins), config)
    moved = list(range(0, 4 * changed, 4))[:changed]
    perturbed = {
        home: tuple((np.asarray(envelopes[home]) * 1.5).tolist())
        for home in moved}

    def replan():
        plane = FeederPlane(list(range(n)), envelopes, bins,
                            claims=dict(claims))
        for home in moved:
            plane.update_envelope(home, perturbed[home])
        return renegotiate_offsets(plane, moved, config)

    new_claims, stats, sweeps = replan()
    assert stats.deliveries == sweeps * changed * n
    assert stats.deliveries < n * n
    # Unchanged homes keep their claims — the diff touched nobody else.
    untouched = set(range(n)) - set(moved)
    assert all(new_claims[home] == claims[home] for home in untouched)
