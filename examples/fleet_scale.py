#!/usr/bin/env python3
"""Fleet scale: a 500-home sharded, coordinated neighborhood, end to end.

Builds the neighborhood declaratively (one ``ExperimentSpec``), runs it
through the fleet-scale execution engine — the fleet is lowered into
per-shard sub-specs, each worker runs a whole shard and pre-reduces it
locally, per-home series come back as one batched frame per shard —
negotiates cross-home phase offsets on the
feeder collaboration plane, and prints the feeder report plus the
execution plan that produced it.

Results are bit-identical for every ``(shard_size, jobs)`` combination; sharding only changes how fast the answer arrives.

Usage::

    python examples/fleet_scale.py [--quick]

``--quick`` (what CI's docs job runs) scales the fleet down to 80 homes
and a 30-minute window; the default is the full 500-home, 2-hour run.
"""

import sys
import time

from repro.api import ControlSpec, ExperimentSpec, FleetPlan, \
    ScenarioSpec, run
from repro.api.compile import compile_shards
from repro.sim.units import MINUTE


def main() -> None:
    quick = "--quick" in sys.argv
    homes = 80 if quick else 500
    horizon = (30 if quick else 120) * MINUTE

    spec = ExperimentSpec(
        name=f"fleet-scale-{homes}", kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=horizon),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(1,),
        fleet=FleetPlan(homes=homes, mix="suburb",
                        coordination="feeder"))

    shards = compile_shards(spec)
    plan = f"{len(shards)} shards x ~{shards[0].fleet.n_homes} homes"
    print(f"executing {homes} homes ({plan}) ...")

    started = time.perf_counter()
    result = run(spec)
    elapsed = time.perf_counter() - started

    neighborhood = result.neighborhood
    stats = neighborhood.feeder_stats()
    comparison = neighborhood.comparison()
    print(f"\nwall time: {elapsed:.1f} s "
          f"({neighborhood.fleet.total_devices} devices, "
          f"{neighborhood.total_requests()} requests)")
    print(f"coincident peak: {stats.coincident_peak_kw:.1f} kW, "
          f"diversity factor {stats.diversity_factor:.3f}")
    if comparison is not None:
        print(f"coordination uplift: {comparison.diversity_uplift:.3f}x "
              f"diversity, {comparison.peak_reduction_pct:.1f}% peak "
              f"reduction, {comparison.energy_drift_pct:.2e}% energy "
              f"drift")
    print(f"provenance: spec {result.provenance.short_hash} "
          f"(repro {result.provenance.code_version})")


if __name__ == "__main__":
    main()
