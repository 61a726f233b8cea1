"""FLEET — N=500 sharded, coordinated neighborhood smoke.

The fleet-scale acceptance path of PR 5: five hundred heterogeneous
homes behind one feeder, executed through the sharded engine (whole
shards per worker + batched series transport + one exact feeder sum in
the parent) with the feeder collaboration plane on top, run once as the
fleet scale lock (perfbench's fleet-100 workload does the timing).

The shortened horizon keeps the smoke inside the tier-1 budget; the
acceptance measurement at the full 120-minute window is recorded in
``benchmarks/results/perf-pr5.txt``.
"""

from repro.api import (
    ControlSpec,
    ExperimentSpec,
    FleetPlan,
    ScenarioSpec,
    run,
)
from repro.sim.units import MINUTE

N_HOMES = 500
HORIZON = 60 * MINUTE


def _spec() -> ExperimentSpec:
    return ExperimentSpec(
        name=f"fleet-{N_HOMES}-coordinated", kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=HORIZON),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(1,),
        fleet=FleetPlan(homes=N_HOMES, mix="suburb",
                        coordination="feeder"))


def test_fleet_500_coordinated_smoke(results_dir):
    result = run(_spec())
    neighborhood = result.neighborhood
    stats = neighborhood.feeder_stats()
    assert stats.n_homes == N_HOMES
    assert stats.diversity_factor >= 1.0 - 1e-9

    comparison = neighborhood.comparison()
    assert comparison is not None
    # The guard never lets the plane regress the feeder; rotation
    # conserves energy exactly.
    assert comparison.peak_reduction_pct >= -1e-9
    assert comparison.energy_drift_pct < 1e-6

    path = results_dir / "fleet-500.txt"
    path.write_text(
        "FLEET-500 smoke (60 min horizon, ideal CP, sharded engine)\n\n"
        + neighborhood.render() + "\n")
    print(f"\n[saved to {path}]")
