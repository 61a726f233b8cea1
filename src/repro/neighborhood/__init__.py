"""Neighborhood layer: many heterogeneous HANs behind one feeder.

Eight modules, one pipeline (see ``docs/architecture.md``):

* :mod:`~repro.neighborhood.fleet` — deterministic heterogeneous fleet
  construction (:func:`build_fleet`);
* :mod:`~repro.neighborhood.federation` — fleet execution and result
  packaging (:func:`execute_fleet`);
* :mod:`~repro.neighborhood.shard` — the one fleet execution path:
  per-shard sub-specs of whole home runs (:func:`plan_shards`);
* :mod:`~repro.neighborhood.transport` — one batched series frame per
  shard between workers and the parent;
* :mod:`~repro.neighborhood.coordination` — the coordination loop every
  tier runs (:func:`coordinate_profiles`, :func:`coordinate_fleet`,
  ``docs/coordination.md``);
* :mod:`~repro.neighborhood.aggregate` — exact feeder summation and
  feeder statistics (:func:`feeder_stats`);
* :mod:`~repro.neighborhood.grid` — fleet of fleets: multi-feeder grids
  under one substation with two-tier coordination
  (:func:`execute_grid`, ``docs/grid.md``);
* :mod:`~repro.neighborhood.online` — per-epoch coordination against
  predicted envelopes from streaming telemetry
  (:func:`coordinate_fleet_online`, ``docs/online.md``).
"""

from repro.neighborhood.aggregate import (
    FeederComparison,
    FeederStats,
    SeriesPartial,
    combine_partials,
    feeder_stats,
    partial_sum,
    sum_series,
)
from repro.neighborhood.coordination import (
    EpochOutcome,
    FeederConfig,
    FeederCoordination,
    FeederPlane,
    coordinate_fleet,
    coordinate_profiles,
    negotiate_offsets,
    phase_envelope_window,
    renegotiate_offsets,
    rotate_series,
    rotate_window,
    snap_bin,
)
from repro.neighborhood.federation import (
    COORDINATION_MODES,
    NeighborhoodResult,
    execute_fleet,
)
from repro.neighborhood.fleet import (
    FleetSpec,
    HomeSpec,
    build_fleet,
    home_seed,
)
from repro.neighborhood.grid import (
    GRID_COORDINATION_MODES,
    GridResult,
    GridSpec,
    build_grid,
    execute_grid,
    feeder_seed,
)
from repro.neighborhood.online import (
    ForecastConfig,
    OnlineCoordination,
    coordinate_fleet_online,
    epoch_grid,
)
from repro.neighborhood.shard import (
    ShardSpec,
    plan_shards,
    shard_fleet,
)

__all__ = [
    "COORDINATION_MODES",
    "EpochOutcome",
    "FeederComparison",
    "FeederConfig",
    "FeederCoordination",
    "FeederPlane",
    "FeederStats",
    "FleetSpec",
    "ForecastConfig",
    "GRID_COORDINATION_MODES",
    "GridResult",
    "GridSpec",
    "HomeSpec",
    "NeighborhoodResult",
    "OnlineCoordination",
    "SeriesPartial",
    "ShardSpec",
    "build_fleet",
    "build_grid",
    "combine_partials",
    "coordinate_fleet",
    "coordinate_fleet_online",
    "coordinate_profiles",
    "epoch_grid",
    "execute_fleet",
    "execute_grid",
    "feeder_seed",
    "feeder_stats",
    "home_seed",
    "negotiate_offsets",
    "partial_sum",
    "phase_envelope_window",
    "plan_shards",
    "renegotiate_offsets",
    "rotate_series",
    "rotate_window",
    "shard_fleet",
    "snap_bin",
    "sum_series",
]
