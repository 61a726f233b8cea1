"""The online coordination loop: determinism, conservation, guards.

The acceptance contract of the PR 8 online plane, as tests:

* **bit-determinism** — an online run's coordinated profile, per-epoch
  offsets and telemetry digest are identical across jobs counts and
  shard sizes (execution strategy never leaks into results);
* **conservation** — rotation permutes segments, so total energy is
  conserved *exactly* (fsum-correct, drift ``== 0.0``), whatever the
  forecaster;
* **per-epoch guard** — no epoch's coordinated peak ever exceeds that
  epoch's independent peak, for any forecaster including heavily noisy
  ones;
* **degenerate-epoch equivalence** — with one epoch spanning the whole
  horizon, the oracle online run reproduces the batch feeder plane
  bit-for-bit;
* **forecaster ladder** — each baseline's defining identity (zeros
  before history, persistence = previous window, alpha=1 EWMA =
  persistence, seeded noise keyed on (home, window) not call order);
* **epoch replanning** — a later epoch's planning pass over a grown or
  branched pending order, run with the memo warm, plans exactly what a
  cold pass plans.
"""

import hashlib

import pytest

from repro.core import CpItem, SchedulerConfig, SharedView, \
    plan_admissions
from repro.core.scheduler import reset_plan_caches
from repro.forecast import (
    EwmaForecaster,
    NoisyForecaster,
    PersistenceForecaster,
    SeasonalNaiveForecaster,
    make_forecaster,
)
from repro.faults import FaultPlan, fault_scope
from repro.neighborhood import (
    FeederConfig,
    FeederPlane,
    ForecastConfig,
    build_fleet,
    coordinate_fleet,
    coordinate_fleet_online,
    epoch_grid,
    execute_fleet,
    rotate_window,
    sum_series,
)
from repro.sim.monitor import StepSeries
from repro.sim.units import MINUTE

HORIZON = 20 * MINUTE
EPOCH = 5 * MINUTE


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(10, mix="suburb", seed=1, cp_fidelity="ideal",
                       horizon=HORIZON)


@pytest.fixture(scope="module")
def results(fleet):
    return execute_fleet(fleet, until=HORIZON).homes


def online(fleet, results, forecaster="oracle", noise=0.0, replan="diff",
           epoch=EPOCH, guard=True):
    return coordinate_fleet_online(
        fleet, results, HORIZON,
        config=FeederConfig(epoch=epoch, guard=guard),
        forecast=ForecastConfig(forecaster=forecaster, noise=noise),
        replan=replan)


def profile_digest(plan):
    hasher = hashlib.sha256()
    hasher.update(repr((tuple(plan.coordinated_w.times),
                        tuple(plan.coordinated_w.values))).encode())
    hasher.update(repr([outcome.offsets_s
                        for outcome in plan.epochs]).encode())
    hasher.update(plan.telemetry_digest.encode())
    return hasher.hexdigest()


# -- epoch_grid -------------------------------------------------------------


@pytest.mark.parametrize("horizon,epoch", [
    (1200.0, 300.0), (1000.0, 300.0), (1200.0, 1200.0), (1200.0, 7.0),
    (977.0, 250.0)])
def test_epoch_grid_tiles_horizon_contiguously(horizon, epoch):
    windows = epoch_grid(horizon, epoch)
    assert windows[0][0] == 0.0
    assert windows[-1][1] == horizon
    for (_, end), (start, _) in zip(windows, windows[1:]):
        assert end == start
    for start, end in windows:
        assert end > start
        # rotate_window's exact-span contract (Sterbenz subtraction).
        assert start == 0.0 or end <= 2 * start


def test_epoch_grid_never_returns_zero_windows():
    assert len(epoch_grid(100.0, 1e9)) == 1
    assert epoch_grid(100.0, 1e9) == [(0.0, 100.0)]


# -- forecaster ladder ------------------------------------------------------


def sawtooth_history():
    series = StepSeries("h")
    # Window [0, 100): 500 W then 0; window [100, 200): 800 W then 0.
    for time, value in [(0.0, 500.0), (50.0, 0.0), (100.0, 800.0),
                        (150.0, 0.0)]:
        series.record(time, value)
    return series


def test_persistence_is_zero_before_any_full_window():
    prediction = PersistenceForecaster().predict(
        0, StepSeries(), 0.0, 100.0, 25.0, 4)
    assert prediction == (0.0, 0.0, 0.0, 0.0)


def test_persistence_repeats_the_previous_window():
    prediction = PersistenceForecaster().predict(
        0, sawtooth_history(), 200.0, 300.0, 25.0, 4)
    assert prediction == (800.0, 800.0, 0.0, 0.0)


def test_seasonal_reads_one_season_back_and_falls_back():
    seasonal = SeasonalNaiveForecaster(season_epochs=2)
    history = sawtooth_history()
    assert seasonal.predict(0, history, 200.0, 300.0, 25.0, 4) \
        == (500.0, 500.0, 0.0, 0.0)
    # One window of history < one season: persistence fallback.
    assert seasonal.predict(0, history, 100.0, 200.0, 25.0, 4) \
        == (500.0, 500.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="season_epochs"):
        SeasonalNaiveForecaster(season_epochs=0)


def test_ewma_alpha_one_is_persistence():
    history = sawtooth_history()
    assert EwmaForecaster(alpha=1.0).predict(
        0, history, 200.0, 300.0, 25.0, 4) \
        == PersistenceForecaster().predict(
            0, history, 200.0, 300.0, 25.0, 4)
    with pytest.raises(ValueError, match="alpha"):
        EwmaForecaster(alpha=0.0)


def test_ewma_folds_past_windows_toward_recent():
    prediction = EwmaForecaster(alpha=0.5).predict(
        0, sawtooth_history(), 200.0, 300.0, 25.0, 4)
    assert prediction == (650.0, 650.0, 0.0, 0.0)


def test_noise_is_keyed_on_home_and_window_not_call_order():
    base = PersistenceForecaster()
    history = sawtooth_history()

    def predict(noisy, home, start):
        return noisy.predict(home, history, start, start + 100.0, 25.0, 4)

    forward = NoisyForecaster(base, 0.3, seed=9)
    first = [predict(forward, home, start)
             for home in (0, 1) for start in (100.0, 200.0)]
    backward = NoisyForecaster(base, 0.3, seed=9)
    second = [predict(backward, home, start)
              for home in (1, 0) for start in (200.0, 100.0)]
    assert first == [second[3], second[2], second[1], second[0]]
    assert predict(NoisyForecaster(base, 0.3, seed=10), 0, 100.0) \
        != first[0]
    assert all(value >= 0.0 for envelope in first for value in envelope)


def test_noise_zero_is_the_base_forecaster():
    history = sawtooth_history()
    assert NoisyForecaster(PersistenceForecaster(), 0.0).predict(
        0, history, 200.0, 300.0, 25.0, 4) \
        == PersistenceForecaster().predict(
            0, history, 200.0, 300.0, 25.0, 4)
    with pytest.raises(ValueError, match="noise"):
        NoisyForecaster(PersistenceForecaster(), -0.1)


def test_make_forecaster_rejections():
    with pytest.raises(ValueError, match="one of"):
        make_forecaster("orcale")
    with pytest.raises(ValueError, match="realized"):
        make_forecaster("oracle")


# -- the epoch loop ---------------------------------------------------------


def test_single_epoch_oracle_equals_batch_feeder(fleet, results):
    batch = coordinate_fleet(fleet, results, HORIZON,
                             config=FeederConfig(epoch=HORIZON))
    plan = online(fleet, results, epoch=HORIZON)
    assert plan.n_epochs == 1
    assert tuple(plan.coordinated_w.times) \
        == tuple(batch.coordinated_w.times)
    assert tuple(plan.coordinated_w.values) \
        == tuple(batch.coordinated_w.values)
    assert plan.epochs[0].offsets_s == batch.offsets_s


@pytest.mark.parametrize("forecaster,noise", [
    ("oracle", 0.0), ("oracle", 0.4), ("persistence", 0.0),
    ("seasonal", 0.0), ("ewma", 0.0)])
def test_energy_is_conserved_exactly(fleet, results, forecaster, noise):
    plan = online(fleet, results, forecaster=forecaster, noise=noise)
    independent = plan.independent_w.integral(0.0, HORIZON)
    coordinated = plan.coordinated_w.integral(0.0, HORIZON)
    assert coordinated == independent  # bit-exact, not approx


@pytest.mark.parametrize("forecaster,noise", [
    ("oracle", 0.0), ("oracle", 1.0), ("persistence", 0.0),
    ("ewma", 0.0)])
def test_guard_never_raises_any_epochs_peak(fleet, results, forecaster,
                                            noise):
    plan = online(fleet, results, forecaster=forecaster, noise=noise)
    assert plan.n_epochs == 4
    for outcome in plan.epochs:
        assert outcome.coordinated_peak_w <= outcome.independent_peak_w
        if not outcome.applied:
            assert outcome.offsets_s == tuple(
                0.0 for _ in outcome.offsets_s)


def test_declined_epochs_stitch_the_independent_window(fleet, results):
    # Guard off vs on: the guarded run is never worse than independent
    # in any epoch even where the unguarded run would have been.
    unguarded = online(fleet, results, forecaster="persistence",
                       guard=False)
    guarded = online(fleet, results, forecaster="persistence")
    for free, safe in zip(unguarded.epochs, guarded.epochs):
        assert safe.coordinated_peak_w <= safe.independent_peak_w
        assert safe.coordinated_peak_w <= free.coordinated_peak_w \
            or not free.applied


def test_cold_replan_renegotiates_every_home_every_epoch(fleet, results):
    cold = online(fleet, results, replan="cold")
    diff = online(fleet, results, replan="diff")
    assert all(outcome.changed_homes == fleet.n_homes
               for outcome in cold.epochs)
    # The diff path takes tokens only for moved envelopes after epoch 0.
    assert diff.replanned_homes <= cold.replanned_homes
    assert diff.epochs[0].changed_homes == fleet.n_homes
    assert cold.cp_stats.deliveries >= diff.cp_stats.deliveries


def test_replan_and_result_count_validation(fleet, results):
    with pytest.raises(ValueError, match="replan"):
        online(fleet, results, replan="warm")
    with pytest.raises(ValueError, match="results"):
        coordinate_fleet_online(fleet, results[:-1], HORIZON)


def test_online_metadata_shape(fleet, results):
    plan = online(fleet, results, forecaster="ewma")
    assert plan.forecaster == "ewma"
    assert plan.n_epochs == len(plan.epochs) == 4
    assert 0 <= plan.epochs_applied <= plan.n_epochs
    assert plan.telemetry_events > 0
    assert len(plan.telemetry_digest) == 64
    for index, outcome in enumerate(plan.epochs):
        assert outcome.index == index
        assert len(outcome.offsets_s) == fleet.n_homes


# -- the end-of-run stitch ----------------------------------------------------


def _bits(series):
    """A series' recordings as raw bytes: signed zeros count."""
    times, values = series._data()
    return times.tobytes(), values.tobytes()


#: (forecaster, replan, telemetry fault plan) of the stitch runs
STITCH_RUNS = [
    ("oracle", "diff", None),
    ("oracle", "cold", None),
    ("persistence", "diff", None),
    ("ewma", "diff", None),
    ("oracle", "diff", FaultPlan(seed=3, telemetry_drop=0.3,
                                 telemetry_delay=0.25,
                                 telemetry_dup=0.25)),
]


@pytest.fixture(scope="module")
def stitch_plans(fleet, results):
    plans = []
    for forecaster, replan, faults in STITCH_RUNS:
        with fault_scope(faults):
            plans.append(online(fleet, results, forecaster=forecaster,
                                replan=replan))
    return plans


def test_stitch_runs_decline_and_apply_epochs(stitch_plans):
    outcomes = [outcome for plan in stitch_plans for outcome in plan.epochs]
    assert any(outcome.applied for outcome in outcomes)
    assert any(not outcome.applied for outcome in outcomes)
    assert stitch_plans[-1].telemetry_dropped \
        + stitch_plans[-1].telemetry_delayed > 0


@pytest.mark.parametrize("run", range(len(STITCH_RUNS)))
def test_stitched_feeder_equals_sum_of_contributions(stitch_plans, run):
    """The per-epoch sums, stitched, are the full-horizon sum of the
    contributions, bit for bit, declined epochs included."""
    plan = stitch_plans[run]
    assert _bits(plan.coordinated_w) == _bits(sum_series(
        plan.contributions_w))


@pytest.mark.parametrize("run", range(len(STITCH_RUNS)))
def test_stitched_contributions_equal_appended_windows(stitch_plans,
                                                       results, run):
    """Each contribution is what appending every epoch's
    ``rotate_window`` output one epoch at a time records."""
    plan = stitch_plans[run]
    for home, (result, contribution) in enumerate(
            zip(results, plan.contributions_w)):
        reference = StepSeries(result.load_w.name)
        for outcome in plan.epochs:
            window = rotate_window(result.load_w, outcome.offsets_s[home],
                                   outcome.start_s, outcome.end_s)
            reference.append(window.times, window.values)
        assert contribution.name == reference.name
        assert _bits(contribution) == _bits(reference), home


def test_cold_replan_builds_one_claim_plane_per_epoch(fleet, results,
                                                      monkeypatch):
    """A cold epoch negotiates on the plane it then carries forward."""
    expected = online(fleet, results, replan="cold")
    builds = []
    original = FeederPlane.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FeederPlane, "__init__", counting)
    plan = online(fleet, results, replan="cold")
    assert len(builds) == plan.n_epochs == 4
    assert plan.cp_stats == expected.cp_stats
    assert plan.sweeps == expected.sweeps
    assert [outcome.offsets_s for outcome in plan.epochs] \
        == [outcome.offsets_s for outcome in expected.epochs]


# -- determinism across execution strategies --------------------------------


def online_digest(jobs, shard_size):
    result = execute_fleet(
        build_fleet(12, mix="suburb", seed=3, cp_fidelity="ideal",
                    horizon=HORIZON),
        jobs=jobs, until=HORIZON, shard_size=shard_size,
        coordination="online",
        feeder=FeederConfig(epoch=EPOCH),
        forecast=ForecastConfig(forecaster="ewma", noise=0.2,
                                noise_seed=5))
    return profile_digest(result.coordination)


@pytest.fixture(scope="module")
def reference_digest():
    return online_digest(jobs=1, shard_size=None)


@pytest.mark.parametrize("jobs,shard_size", [(1, 1), (1, 8), (4, 4),
                                             (4, 12)])
def test_online_bit_identical_across_jobs_and_shards(jobs, shard_size,
                                                     reference_digest):
    assert online_digest(jobs, shard_size) == reference_digest


def test_feeder_mode_unchanged_by_forecast_plumbing(fleet, results):
    # Passing a forecast config to a non-online run must not perturb it.
    plain = coordinate_fleet(fleet, results, HORIZON)
    again = coordinate_fleet(fleet, results, HORIZON)
    assert tuple(plain.coordinated_w.values) \
        == tuple(again.coordinated_w.values)
    assert plain.offsets_s == again.offsets_s


# -- epoch replanning: warm memo vs cold pass --------------------------------


def _sched_config():
    from repro.han.dutycycle import DutyCycleSpec
    return SchedulerConfig(spec=DutyCycleSpec(min_dcd=900.0,
                                              max_dcp=1800.0))


def _announcement(request_id, device_id, arrival=0.0):
    from repro.han.requests import RequestAnnouncement
    return RequestAnnouncement(request_id=request_id,
                               device_id=device_id,
                               arrival_time=arrival, demand_cycles=1,
                               power_w=1000.0)


def _view(n_devices, n_pending, versions=None):
    from repro.core import DeviceStatus
    built = SharedView()
    for device in range(1, n_devices + 1):
        version = versions.get(device, 1) if versions else 1
        built.merge_item(CpItem(DeviceStatus(
            device_id=device, version=version, active=False,
            remaining_cycles=0, assigned_slot=None, power_w=1000.0,
            burst_start=None, last_admitted_request=0)))
    for index in range(n_pending):
        built.pending[100 + index] = _announcement(
            100 + index, 1 + index % n_devices, arrival=float(index))
    return built


def test_trace_reuses_shared_prefix_and_plans_only_the_tail():
    config, view = _sched_config(), _view
    reset_plan_caches()
    first = plan_admissions(view(6, 4), config, now=0.0)
    second = plan_admissions(view(6, 6), config, now=0.0)
    assert [d.request_id for d in first] == [100, 101, 102, 103]
    assert [d.request_id for d in second] == list(range(100, 106))
    # Bit-identical to planning from scratch, by purity.
    reset_plan_caches()
    assert plan_admissions(view(6, 6), config, now=0.0) == second
    reset_plan_caches()
    assert plan_admissions(view(6, 4), config, now=0.0) == first
    # One-by-one admission: the grown order extends the shorter plan.
    assert second[:len(first)] == first


def test_divergent_pending_tail_branches_from_checkpoint():
    config, view = _sched_config(), _view
    reset_plan_caches()
    base = view(4, 3)
    base_plan = plan_admissions(base, config, now=0.0)
    # Same first two announcements, different third.
    branched = view(4, 3)
    del branched.pending[102]
    branched.pending[150] = _announcement(150, 4, arrival=9.0)
    branched_plan = plan_admissions(branched, config, now=0.0)
    assert [d.request_id for d in branched_plan] == [100, 101, 150]
    assert branched_plan[:2] == base_plan[:2]
    reset_plan_caches()
    assert plan_admissions(branched, config, now=0.0) == branched_plan
    # The branch left the base order's plan untouched.
    assert plan_admissions(base, config, now=0.0) == base_plan
