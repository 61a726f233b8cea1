"""Randomized invariant suite for the fleet-of-fleets grid layer.

Three contracts lock :mod:`repro.neighborhood.grid` over seeded-random
topologies (every ``random.Random`` here is seeded — failures replay
exactly):

* **Exactness** — the substation's fully-independent profile is the
  correctly rounded (``math.fsum``-equal) per-event sum of *all* home
  series, and it is bit-identical for any shard size and any grouping
  of the same homes into feeders
  (:func:`repro.neighborhood.aggregate.sum_series` is correctly
  rounded).
* **Conservation** — coordination at either tier moves load, never
  sheds it: per-home and grid-total energy are conserved, and the
  realized-improvement guard means neither tier ever raises the peak
  it coordinates.
* **Flat-grid identity** — a single-feeder :class:`GridSpec` reproduces
  the existing ``neighborhood`` kind bit for bit
  (:func:`repro.neighborhood.grid.feeder_seed` of index 0 inherits the
  root seed), and the shard layout can never change a result bit
  relative to the serial reference.
"""

import hashlib
import math
import random
from dataclasses import replace

import pytest

from repro.api import (
    ControlSpec,
    ExperimentSpec,
    ScenarioSpec,
    run,
    spec_hash,
    validate,
)
from repro.api.spec import FeederPlan, FleetPlan, GridPlan
from repro.api.validate import SpecError
from repro.neighborhood import (
    GridSpec,
    build_fleet,
    build_grid,
    execute_fleet,
    execute_grid,
    feeder_seed,
)
from repro.sim.units import MINUTE

HORIZON = 40 * MINUTE
MIXES = ("suburb", "apartments", "mixed")


def random_plans(seed, max_feeders=4, max_homes=4):
    """A seeded-random grid topology (1..4 feeders of 1..4 homes)."""
    rng = random.Random(seed)
    return [FeederPlan(homes=rng.randint(1, max_homes),
                       mix=rng.choice(MIXES))
            for _ in range(rng.randint(1, max_feeders))]


def small_grid(seed=1, plans=None):
    return build_grid(plans if plans is not None
                      else [FeederPlan(homes=3),
                            FeederPlan(homes=2, mix="mixed")],
                      seed=seed, cp_fidelity="ideal", horizon=HORIZON)


def series_bits(series):
    return (tuple(series.times), tuple(series.values))


def grid_digest(result):
    """Value digest over everything a grid consumer can observe."""
    parts = []
    for feeder in result.feeders:
        parts.extend(series_bits(home.load_w) for home in feeder.homes)
        parts.append(series_bits(feeder.feeder_w))
        if feeder.coordination is not None:
            parts.append(feeder.coordination.offsets_s)
    parts.append(series_bits(result.substation_w))
    parts.append(series_bits(result.independent_w))
    if result.coordination is not None:
        parts.append(result.coordination.offsets_s)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def fsum_reference(result):
    """The correctly rounded per-event sum of every home series."""
    series = [home.load_w for feeder in result.feeders
              for home in feeder.homes]
    times = result.independent_w.times
    columns = [one.sample(times) for one in series]
    return [math.fsum(column[i] for column in columns)
            for i in range(len(times))]


# -- exactness: the substation aggregate is the fsum of all homes ---------

@pytest.mark.parametrize("topology_seed", [11, 23, 37])
def test_substation_aggregate_is_exact_fsum(topology_seed):
    grid = small_grid(seed=topology_seed,
                      plans=random_plans(topology_seed))
    result = execute_grid(grid, coordination="independent")
    assert list(result.independent_w.values) == fsum_reference(result)


@pytest.mark.parametrize("shard_size", [1, 2, 8, None])
def test_substation_aggregate_invariant_across_shard_sizes(
        shard_size, serial_grid, close_pools_after):
    grid = small_grid(seed=5)
    reference = serial_grid(grid, "independent")
    probe = execute_grid(grid, coordination="independent",
                         shard_size=shard_size)
    assert grid_digest(probe) == grid_digest(reference)
    assert list(probe.independent_w.values) == fsum_reference(probe)


@pytest.mark.parametrize("topology_seed", [3, 19])
def test_substation_aggregate_invariant_across_feeder_groupings(
        topology_seed):
    """Regrouping the *same built homes* never changes the aggregate.

    One 6-home pool, three hand-made partitions into feeders: the
    substation independent profile must be bit-identical — grouping is
    topology bookkeeping, not arithmetic.
    """
    pool = build_fleet(6, seed=topology_seed, cp_fidelity="ideal",
                       horizon=HORIZON)
    groupings = [
        (pool.homes,),                               # one feeder of 6
        (pool.homes[:2], pool.homes[2:]),            # 2 + 4
        tuple((home,) for home in pool.homes),       # 6 singletons
    ]
    profiles = []
    for grouping in groupings:
        feeders = tuple(
            replace(pool, name=f"group{index}", homes=tuple(homes))
            for index, homes in enumerate(grouping))
        grid = GridSpec(name="regrouped", seed=topology_seed,
                        feeders=feeders)
        result = execute_grid(grid, coordination="independent")
        profiles.append(series_bits(result.independent_w))
    assert profiles[0] == profiles[1] == profiles[2]


# -- conservation: coordination moves load, never sheds or regresses ------

@pytest.mark.parametrize("topology_seed", [7, 29])
def test_feeder_tier_conserves_every_home_energy(topology_seed):
    grid = small_grid(seed=topology_seed,
                      plans=random_plans(topology_seed))
    result = execute_grid(grid, coordination="feeder")
    for feeder in result.feeders:
        plan = feeder.coordination
        assert plan is not None
        for home, rotated in zip(feeder.homes, plan.contributions_w):
            original = home.load_w.integral(0.0, result.horizon)
            assert rotated.integral(0.0, result.horizon) == \
                pytest.approx(original, rel=1e-12)


@pytest.mark.parametrize("topology_seed", [7, 29])
def test_substation_tier_conserves_total_energy(topology_seed):
    grid = small_grid(seed=topology_seed,
                      plans=random_plans(topology_seed))
    result = execute_grid(grid, coordination="substation")
    independent = result.independent_w.integral(0.0, result.horizon)
    coordinated = result.substation_w.integral(0.0, result.horizon)
    assert coordinated == pytest.approx(independent, rel=1e-12)


@pytest.mark.parametrize("topology_seed", [13, 31, 41])
def test_neither_tier_ever_raises_the_realized_peak(topology_seed):
    grid = small_grid(seed=topology_seed,
                      plans=random_plans(topology_seed))
    result = execute_grid(grid, coordination="substation")
    horizon = result.horizon
    # Feeder tier: every feeder's realized peak <= its independent peak.
    for feeder in result.feeders:
        plan = feeder.coordination
        assert plan.coordinated_w.maximum(0.0, horizon) <= \
            plan.independent_w.maximum(0.0, horizon) + 1e-9
    # Substation tier: realized peak <= the pre-negotiation baseline
    # (sum of feeder-coordinated profiles) <= fully independent peak.
    plan = result.coordination
    baseline = plan.independent_w.maximum(0.0, horizon)
    assert plan.coordinated_w.maximum(0.0, horizon) <= baseline + 1e-9
    assert result.substation_w.maximum(0.0, horizon) <= \
        result.independent_w.maximum(0.0, horizon) + 1e-9


# -- flat-grid identity: one feeder == the neighborhood kind --------------

def test_feeder_seed_zero_inherits_the_root():
    assert feeder_seed(123, 0) == 123
    derived = {feeder_seed(123, index) for index in range(1, 8)}
    assert len(derived) == 7 and 123 not in derived


def assert_feeder_matches_fleet(feeder, flat, coordination):
    """One grid feeder equals ``execute_fleet`` on its fleet, bit for bit."""
    assert series_bits(feeder.feeder_w) == series_bits(flat.feeder_w)
    assert len(feeder.homes) == len(flat.homes)
    for grid_home, flat_home in zip(feeder.homes, flat.homes):
        assert series_bits(grid_home.load_w) == \
            series_bits(flat_home.load_w)
    if coordination == "feeder":
        assert feeder.coordination.offsets_s == \
            flat.coordination.offsets_s
    else:
        assert feeder.coordination is None and flat.coordination is None


@pytest.mark.parametrize("coordination", ["independent", "feeder"])
def test_flat_single_feeder_grid_matches_neighborhood(coordination):
    fleet = build_fleet(4, seed=9, cp_fidelity="ideal", horizon=HORIZON)
    grid = build_grid([FeederPlan(homes=4)], seed=9, cp_fidelity="ideal",
                      horizon=HORIZON)
    flat = execute_fleet(fleet, coordination=coordination)
    nested = execute_grid(grid, coordination=coordination)
    [feeder] = nested.feeders
    assert_feeder_matches_fleet(feeder, flat, coordination)

    # Every feeder of a multi-feeder grid — sharded, so its shards are
    # numbered globally across feeders — equals the neighborhood run of
    # its own fleet.
    grid = build_grid([FeederPlan(homes=3, mix=mix) for mix in MIXES],
                      seed=9, cp_fidelity="ideal", horizon=HORIZON)
    nested = execute_grid(grid, coordination=coordination, shard_size=2)
    assert nested.n_feeders == len(MIXES)
    for fleet, feeder in zip(grid.feeders, nested.feeders):
        flat = execute_fleet(fleet, coordination=coordination)
        assert_feeder_matches_fleet(feeder, flat, coordination)


def test_substation_mode_with_one_feeder_equals_feeder_mode():
    grid = build_grid([FeederPlan(homes=4)], seed=9, cp_fidelity="ideal",
                      horizon=HORIZON)
    feeder_only = execute_grid(grid, coordination="feeder")
    substation = execute_grid(grid, coordination="substation")
    # Negotiating over a single profile finds no improvement; the guard
    # declines, and the substation carries the feeder-tier profile.
    assert series_bits(substation.substation_w) == \
        series_bits(feeder_only.substation_w)


@pytest.mark.parametrize("coordination", ["feeder", "substation"])
def test_envelope_prereduction_never_changes_bits(
        coordination, serial_grid, close_pools_after):
    """The sharded run and the serial reference both compute per-home
    envelopes in the parent from the same series — the shard layout
    must not move a bit of the negotiated offsets or profiles."""
    grid = small_grid(seed=17)
    sharded = execute_grid(grid, coordination=coordination, shard_size=2)
    assert grid_digest(sharded) == \
        grid_digest(serial_grid(grid, coordination))


@pytest.mark.parametrize("shard_size", [None, 2])
def test_feeders_with_shorter_horizons_use_the_grid_window(shard_size):
    """A hand-built grid may mix feeder horizons; every feeder reports
    stats and negotiates envelopes over the grid window, exactly as if
    both were computed parent-side."""
    from repro.analysis.loadstats import load_stats
    from repro.neighborhood.coordination import coordinate_fleet
    fleets = [build_fleet(3, seed=feeder_seed(4, index),
                          cp_fidelity="ideal", horizon=horizon)
              for index, horizon in enumerate((30 * MINUTE, 60 * MINUTE))]
    grid = GridSpec(name="mixed-horizons", seed=4, feeders=tuple(fleets))
    result = execute_grid(grid, coordination="feeder",
                          shard_size=shard_size)
    assert result.horizon == grid.horizon == 60 * MINUTE
    for feeder in result.feeders:
        assert feeder.home_stats() == [
            load_stats(home.load_w, 0.0, grid.horizon)
            for home in feeder.homes]
        reference = coordinate_fleet(feeder.fleet, feeder.homes,
                                     grid.horizon)
        assert feeder.coordination.offsets_s == reference.offsets_s
        assert feeder.coordination.planned_offsets_s == \
            reference.planned_offsets_s
        assert series_bits(feeder.feeder_w) == \
            series_bits(reference.coordinated_w)


def test_lost_frame_in_a_later_feeder_reexecutes_its_own_shard(
        close_pools_after):
    """Grid shard indices run across feeders, so the frame-loss
    fallback must re-run the shard the frame came from — not look it up
    by global index in the current feeder's shard list."""
    from repro.faults import FaultPlan
    clean = grid_spec_document("feeder")
    lossy = replace(clean, faults=FaultPlan(seed=4, frame_loss=1.0))
    reference = grid_digest(run(clean, jobs=2, shard_size=1).grid)
    assert grid_digest(run(lossy, jobs=2, shard_size=1).grid) == reference


# -- the spec surface ------------------------------------------------------

def grid_spec_document(coordination="substation"):
    return ExperimentSpec(
        name="grid-invariants", kind="grid",
        scenario=ScenarioSpec(horizon_s=HORIZON),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(7,),
        grid=GridPlan(feeders=(FeederPlan(homes=2),
                               FeederPlan(homes=3, mix="mixed")),
                      coordination=coordination))


def test_grid_spec_json_round_trip_is_lossless():
    spec = grid_spec_document()
    validate(spec)
    loaded = ExperimentSpec.from_json(spec.to_json())
    assert loaded == spec
    assert spec_hash(loaded) == spec_hash(spec)


def test_grid_spec_rejects_bad_sections():
    spec = grid_spec_document()
    with pytest.raises(SpecError):
        validate(replace(spec, grid=None))
    with pytest.raises(SpecError):
        validate(replace(
            spec, grid=GridPlan(feeders=(FeederPlan(mix="nowhere"),))))
    with pytest.raises(SpecError):
        validate(replace(
            spec, grid=GridPlan(feeders=(FeederPlan(homes=0),))))
    with pytest.raises(SpecError):
        validate(replace(spec, grid=GridPlan(
            feeders=spec.grid.feeders, coordination="telepathy")))
    with pytest.raises(SpecError):
        validate(replace(spec, seeds=(1, 2)))


def test_grid_spec_runs_end_to_end():
    result = run(grid_spec_document())
    payload = result.grid
    assert payload.n_feeders == 2 and payload.n_homes == 5
    assert payload.coordination_mode == "substation"
    assert list(payload.independent_w.values) == fsum_reference(payload)
    assert "Substation aggregate" in result.render()


def test_execute_grid_rejects_unknown_mode():
    with pytest.raises(ValueError, match="coordination must be one of"):
        execute_grid(small_grid(), coordination="psychic")


def test_grid_render_smoke():
    result = execute_grid(small_grid(), coordination="substation")
    text = result.render()
    assert "feeder0" in text and "feeder1" in text
    assert "Substation aggregate" in text
    assert "Substation coordination" in text
