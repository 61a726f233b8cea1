"""Shared test fixtures: hermetic cache, worker-pool hygiene, and serial
references for the sharded fleet path.

The result cache (:mod:`repro.api.cache`) defaults to ``~/.cache/repro``;
tests must never read results a previous run (or a previous code state)
left there, nor litter the user's cache.  Every test therefore gets
``REPRO_CACHE_DIR`` pointed at a fresh per-test directory — tests that
exercise the cache explicitly still construct ``ResultCache(tmp_path)``
with their own roots.

Worker pools are persistent by design (:mod:`repro.experiments.pool`);
shutting them down after each test keeps process accounting flat across
the suite (the next pooled test transparently respawns).
"""

import pytest


@pytest.fixture(autouse=True)
def _hermetic_result_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    # Same hygiene for the service plane: queues and artifact stores a
    # test creates must be per-test, never ~/.cache/repro-service.
    monkeypatch.setenv("REPRO_SERVICE_STORE",
                       str(tmp_path / "repro-service"))


@pytest.fixture
def close_pools_after():
    """Explicit opt-in teardown for tests that spawn shared pools."""
    yield
    from repro.experiments.pool import shutdown_all
    shutdown_all()


# -- serial references for the sharded execution path ----------------------
#
# Every fleet runs sharded; the invariance suites compare it against a
# reference built here, in the tests: each home run serially, then fed
# to the same aggregation and coordination functions.


def run_homes_serially(fleet):
    """Each home of ``fleet`` executed one by one, in fleet order."""
    from repro.core.system import execute_config
    return [execute_config(home.config(), until=None).portable()
            for home in fleet.homes]


def serial_fleet_result(fleet, coordination="independent", horizon=None):
    """A :class:`NeighborhoodResult` without the shard path."""
    from repro.neighborhood import (
        NeighborhoodResult,
        combine_partials,
        coordinate_fleet,
        partial_sum,
    )
    horizon = horizon if horizon is not None else fleet.horizon
    homes = run_homes_serially(fleet)
    if coordination == "feeder":
        plan = coordinate_fleet(fleet, homes, horizon)
        return NeighborhoodResult(fleet=fleet, homes=homes,
                                  feeder_w=plan.coordinated_w,
                                  horizon=horizon, coordination=plan)
    series = [home.load_w for home in homes]
    return NeighborhoodResult(
        fleet=fleet, homes=homes,
        feeder_w=combine_partials([partial_sum(series)], series),
        horizon=horizon)


def serial_grid_result(grid, coordination="independent"):
    """A :class:`GridResult` without the shard path."""
    from repro.neighborhood import (
        GridResult,
        combine_partials,
        coordinate_profiles,
        partial_sum,
        sum_series,
    )
    horizon = grid.horizon
    feeders = [serial_fleet_result(
        fleet, "independent" if coordination == "independent"
        else "feeder", horizon) for fleet in grid.feeders]
    series = [home.load_w for feeder in feeders for home in feeder.homes]
    independent_w = combine_partials([partial_sum(series)], series,
                                     name="substation")
    plan = None
    if coordination == "independent":
        substation_w = independent_w
    elif coordination == "feeder":
        substation_w = sum_series([feeder.feeder_w for feeder in feeders],
                                  name="substation")
    else:
        plan = coordinate_profiles(
            [feeder.feeder_w for feeder in feeders], horizon,
            epoch=max(home.scenario.max_dcp for fleet in grid.feeders
                      for home in fleet.homes))
        substation_w = plan.coordinated_w
    return GridResult(grid=grid, feeders=feeders, substation_w=substation_w,
                      independent_w=independent_w, horizon=horizon,
                      coordination_mode=coordination, coordination=plan)


@pytest.fixture
def serial_fleet():
    """:func:`serial_fleet_result`, as a fixture."""
    return serial_fleet_result


@pytest.fixture
def serial_grid():
    """:func:`serial_grid_result`, as a fixture."""
    return serial_grid_result
