"""Golden locks for the online plane: exact digests, not approximations.

Three locks, all over the profile *bits* (sha256 of the run's
coordinated series, per-epoch offsets and telemetry journal digest —
see :func:`repro.experiments.ablations.online_uplift`):

* a small 12-home online run executes here and must reproduce its
  committed digest and recovery exactly — any change to forecasting,
  epoch tiling, window rotation or incremental renegotiation
  arithmetic fails this file first;
* the same-sized fleet runs under two telemetry fault plans (a
  drop/delay/dup storm, and every batch dropped) with three
  forecasters, and must reproduce a digest that also covers the stale
  prediction and fault counts — any change to the staleness ladder,
  late-batch recovery or fault accounting fails here;
* the committed 500-home flagship artefact (``benchmarks/results/
  nbhd-online.txt``, regenerated by ``benchmarks/test_bench_online.py``)
  must still carry the digest and headline numbers locked below, so
  the expensive run can't silently drift between regenerations.

Updating either constant is a deliberate act: rerun, eyeball the delta,
justify it in the PR (see docs/regression-policy.md).
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.ablations import online_uplift
from repro.faults import FaultPlan, fault_scope
from repro.neighborhood import (
    FeederConfig,
    ForecastConfig,
    build_fleet,
    coordinate_fleet_online,
    execute_fleet,
)
from repro.sim.units import MINUTE

#: Exact profile digest + headline numbers of the 12-home online smoke.
SMOKE_DIGEST = \
    "36a8bc36d7e16b8202098b03690176a3fff74a85299d62d23cf92eee89548b58"
SMOKE_RECOVERY = 1.0
SMOKE_REQUESTS = 321
SMOKE_EPOCHS = 5

#: Telemetry fault plans of the faulted locks (fault seed 11).
FAULT_PLANS = {
    "storm": {"telemetry_drop": 0.2, "telemetry_delay": 0.2,
              "telemetry_dup": 0.2},
    "all-dropped": {"telemetry_drop": 1.0},
}
#: Exact digest of each faulted 12-home 60-min run (5-min epochs).
FAULTED_DIGESTS = {
    ("storm", "oracle"):
        "c21c8273606f587849d3602243b84099669d37d9a64615e2ec9e3ee39235654b",
    ("storm", "persistence"):
        "a4a9ec41f8904ce89712d1ac161dc773a83e350e4a9dbe2d2b68d7bebc8d33d4",
    ("storm", "ewma"):
        "503de1438adc31d07fe7e45c307e7dd1e7784ca5218b860ebd3bafb2aead0a73",
    ("all-dropped", "oracle"):
        "62f659252a6057f54333d7721983a8424271798de546fc37ba48a9f53ed93cc2",
    ("all-dropped", "persistence"):
        "acb1fa46f8a8aae16d61cf204d802d13d4b9021e4809029db74593eb3f2e8e08",
    ("all-dropped", "ewma"):
        "acb1fa46f8a8aae16d61cf204d802d13d4b9021e4809029db74593eb3f2e8e08",
}
FAULTED_HOMES = 12
FAULTED_HORIZON = 60 * MINUTE

#: What the committed 500-home flagship artefact must still say.
FLAGSHIP_DIGEST_PREFIX = "d1d0e1b0c78533df"
FLAGSHIP_LINES = ("500 / 5", "peak hindsight ceiling",
                  "oracle energy drift", "0.00e+00 Wh")


@pytest.fixture(scope="module")
def smoke():
    return online_uplift(homes=12, seed=1, horizon=30 * MINUTE,
                         epoch=6 * MINUTE)


def test_smoke_online_reproduces_golden_digest(smoke):
    assert smoke.data["digest"] == SMOKE_DIGEST


def test_smoke_online_reproduces_golden_recovery(smoke):
    # Exact equality: recovery derives from the locked bits above, so
    # approximate comparison would only mask a digest break.
    assert smoke.data["oracle_recovery"] == SMOKE_RECOVERY
    assert smoke.data["requests"] == SMOKE_REQUESTS
    assert smoke.data["n_epochs"] == SMOKE_EPOCHS
    assert smoke.data["oracle_energy_drift_wh"] == 0.0


def test_committed_flagship_artefact_carries_the_lock():
    path = Path(__file__).parent.parent / "benchmarks" / "results" \
        / "nbhd-online.txt"
    text = path.read_text()
    assert FLAGSHIP_DIGEST_PREFIX in text
    for needle in FLAGSHIP_LINES:
        assert needle in text, needle


@pytest.fixture(scope="module")
def faulted_fleet():
    fleet = build_fleet(FAULTED_HOMES, mix="suburb", seed=1,
                        cp_fidelity="ideal", horizon=FAULTED_HORIZON)
    return fleet, execute_fleet(fleet, until=FAULTED_HORIZON).homes


def faulted_digest(plan):
    """sha256 over the coordinated bytes, the per-epoch offsets, the
    journal digest, the stale predictions and the fault counts."""
    hasher = hashlib.sha256()
    hasher.update(np.asarray(plan.coordinated_w.times, dtype=float)
                  .tobytes())
    hasher.update(np.asarray(plan.coordinated_w.values, dtype=float)
                  .tobytes())
    hasher.update(repr([outcome.offsets_s
                        for outcome in plan.epochs]).encode())
    hasher.update(plan.telemetry_digest.encode())
    hasher.update(repr((plan.stale_predictions, plan.telemetry_dropped,
                        plan.telemetry_delayed,
                        plan.telemetry_duplicated)).encode())
    return hasher.hexdigest()


@pytest.mark.parametrize("faults,forecaster", sorted(FAULTED_DIGESTS))
def test_faulted_online_reproduces_golden_digest(faulted_fleet, faults,
                                                 forecaster):
    fleet, results = faulted_fleet
    with fault_scope(FaultPlan(seed=11, **FAULT_PLANS[faults])):
        plan = coordinate_fleet_online(
            fleet, results, FAULTED_HORIZON,
            config=FeederConfig(epoch=5 * MINUTE),
            forecast=ForecastConfig(forecaster=forecaster))
    assert faulted_digest(plan) == FAULTED_DIGESTS[faults, forecaster]
    if faults == "all-dropped":
        # No home ever reports, so every epoch after the first predicts
        # every home off the staleness ladder.
        assert plan.stale_predictions \
            == FAULTED_HOMES * (plan.n_epochs - 1)
        assert plan.telemetry_dropped == FAULTED_HOMES * plan.n_epochs
