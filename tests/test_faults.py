"""The fault plane's contracts: seeding, activation, spec wiring, retry,
and the cost of a clean run.

Unit-level locks for :mod:`repro.faults` and
:mod:`repro.service.retry` — the integration invariants (bit-identical
schedules across executors, energy exactness, exactly-once completion)
live in ``tests/test_fault_matrix.py``.
"""

import time

import pytest

from repro.api.spec import ExperimentSpec, FleetPlan, ForecastPlan
from repro.api.validate import SpecError, validate
from repro.faults import (
    RATE_FIELDS,
    SITES,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    fault_scope,
    get_injector,
    last_injector,
)
from repro.service.retry import RetryPolicy


def plan(**rates):
    return FaultPlan(seed=rates.pop("seed", 3), **rates)


# -- the seeding contract ---------------------------------------------------


def test_decisions_are_pure_in_seed_site_key():
    first = FaultInjector(plan(telemetry_drop=0.5))
    second = FaultInjector(plan(telemetry_drop=0.5))
    keys = [f"e{epoch}:{home}" for epoch in range(6) for home in range(8)]
    forward = [first.fire("telemetry.drop", key) for key in keys]
    backward = [second.fire("telemetry.drop", key)
                for key in reversed(keys)]
    assert forward == list(reversed(backward))  # call-order free
    assert any(forward) and not all(forward)


def test_distinct_seeds_give_distinct_schedules():
    keys = [f"e{epoch}:{home}" for epoch in range(10)
            for home in range(10)]

    def fired(seed):
        injector = FaultInjector(FaultPlan(seed=seed, telemetry_drop=0.3))
        return [injector.fire("telemetry.drop", key) for key in keys]

    assert fired(1) != fired(2)
    assert fired(1) == fired(1)


def test_rate_bounds_never_and_always():
    injector = FaultInjector(plan(telemetry_drop=1.0))
    assert all(injector.fire("telemetry.drop", f"k{i}")
               for i in range(50))
    zero = FaultInjector(plan(telemetry_dup=1.0))  # drop stays 0.0
    assert not any(zero.fire("telemetry.drop", f"k{i}")
                   for i in range(50))


def test_sites_are_independent_streams():
    injector = FaultInjector(plan(telemetry_drop=0.5, telemetry_dup=0.5))
    keys = [f"e0:{home}" for home in range(64)]
    drops = [injector.fire("telemetry.drop", key) for key in keys]
    dups = [injector.fire("telemetry.dup", key) for key in keys]
    assert drops != dups  # same keys, decorrelated decisions


def test_unknown_site_is_a_loud_error():
    injector = FaultInjector(plan(telemetry_drop=0.5))
    with pytest.raises(KeyError, match="unknown injection site"):
        injector.fire("telemetry.typo", "k")


def test_delay_epochs_bounded_and_deterministic():
    injector = FaultInjector(plan(telemetry_delay=1.0,
                                  max_delay_epochs=3))
    extents = {injector.delay_epochs(f"e0:{home}") for home in range(64)}
    assert extents <= {1, 2, 3} and len(extents) > 1
    again = FaultInjector(plan(telemetry_delay=1.0, max_delay_epochs=3))
    assert [injector.delay_epochs(f"e0:{h}") for h in range(10)] \
        == [again.delay_epochs(f"e0:{h}") for h in range(10)]


def test_occurrence_counts_per_site_key_pair():
    injector = FaultInjector(plan(cache_corrupt=0.5))
    assert injector.occurrence("cache.corrupt", "d1") == 0
    assert injector.occurrence("cache.corrupt", "d1") == 1
    assert injector.occurrence("cache.corrupt", "d2") == 0


def test_schedule_is_sorted_deduped_and_prefix_filterable():
    injector = FaultInjector(plan(telemetry_drop=1.0, worker_crash=1.0))
    injector.fire("worker.crash", "j:a0")
    injector.fire("telemetry.drop", "e1:4")
    injector.fire("telemetry.drop", "e0:2")
    injector.fire("telemetry.drop", "e0:2")  # re-probe records once
    assert injector.schedule() == (
        ("telemetry.drop", "e0:2"), ("telemetry.drop", "e1:4"),
        ("worker.crash", "j:a0"))
    assert injector.schedule("telemetry.") == (
        ("telemetry.drop", "e0:2"), ("telemetry.drop", "e1:4"))
    assert injector.schedule_digest() != injector.schedule_digest(
        "telemetry.")


def test_injected_fault_names_site_and_key():
    fault = InjectedFault("worker.crash", "job:a1")
    assert fault.site == "worker.crash" and fault.key == "job:a1"
    assert "worker.crash" in str(fault)


# -- plan -------------------------------------------------------------------


def test_plan_enabled_iff_any_rate_positive():
    assert not FaultPlan().enabled
    assert not FaultPlan(seed=9, max_delay_epochs=5).enabled
    for name in RATE_FIELDS:
        assert FaultPlan(**{name: 0.1}).enabled


def test_every_site_maps_to_a_rate_field():
    assert sorted(SITES.values()) == sorted(RATE_FIELDS)
    enabled = FaultPlan(**{field: 0.25 for field in RATE_FIELDS})
    for site in SITES:
        assert enabled.rate_of(site) == 0.25


# -- activation scope -------------------------------------------------------


def test_scope_installs_and_restores():
    assert get_injector() is None
    with fault_scope(plan(telemetry_drop=0.5)) as injector:
        assert injector is not None
        assert get_injector() is injector
    assert get_injector() is None
    assert last_injector() is injector  # survives for inspection


def test_disabled_plans_activate_nothing():
    with fault_scope(None) as injector:
        assert injector is None and get_injector() is None
    with fault_scope(FaultPlan()) as injector:
        assert injector is None and get_injector() is None


def test_reentrant_scope_shares_one_injector():
    shared = plan(telemetry_drop=0.5)
    with fault_scope(shared) as outer:
        outer.occurrence("cache.corrupt", "d")
        with fault_scope(shared) as inner:
            assert inner is outer
            # Shared occurrence counters: the inner scope continues the
            # outer's sequence instead of restarting it.
            assert inner.occurrence("cache.corrupt", "d") == 1
        assert get_injector() is outer  # inner exit didn't deactivate


def test_nested_different_plan_restores_the_outer():
    with fault_scope(plan(telemetry_drop=0.5)) as outer:
        with fault_scope(plan(seed=99, worker_crash=0.5)) as inner:
            assert inner is not outer
            assert get_injector() is inner
        assert get_injector() is outer
    assert get_injector() is None


# -- spec + validation wiring -----------------------------------------------


def faulted_spec(**rates):
    return ExperimentSpec(
        name="faulted", kind="neighborhood", seeds=(1,),
        fleet=FleetPlan(homes=4, coordination="online"),
        forecast=ForecastPlan(forecaster="persistence"),
        faults=plan(**rates))


def test_fault_plan_rides_the_spec_json_round_trip():
    spec = faulted_spec(telemetry_drop=0.25, max_delay_epochs=4)
    assert ExperimentSpec.from_json(spec.to_json()) == spec
    # Int-written rates coerce to float like every other float field.
    data = spec.to_dict()
    data["faults"]["telemetry_drop"] = 1
    assert ExperimentSpec.from_dict(data).faults.telemetry_drop == 1.0


def test_specs_without_faults_keep_their_canonical_json():
    bare = ExperimentSpec(name="plain", kind="neighborhood", seeds=(1,),
                          fleet=FleetPlan(homes=4))
    assert "faults" not in bare.to_dict()  # pre-existing hashes stable


def test_validator_rejects_out_of_range_rates():
    spec = faulted_spec(telemetry_drop=0.5)
    data = spec.to_dict()
    data["faults"]["telemetry_drop"] = 1.5
    with pytest.raises(SpecError, match="faults.telemetry_drop"):
        ExperimentSpec.from_dict(data)
    data["faults"]["telemetry_drop"] = -0.1
    with pytest.raises(SpecError, match="faults.telemetry_drop"):
        ExperimentSpec.from_dict(data)
    data["faults"]["telemetry_drop"] = 0.5
    data["faults"]["surprise"] = 1
    with pytest.raises(SpecError, match="faults.surprise"):
        ExperimentSpec.from_dict(data)


def test_validator_rejects_faults_on_kinds_without_sites():
    single = ExperimentSpec(name="s", kind="single",
                            faults=plan(worker_crash=0.5))
    with pytest.raises(SpecError, match="only valid for kinds"):
        validate(single)


def test_validator_rejects_telemetry_rates_off_the_online_plane():
    offline = ExperimentSpec(
        name="off", kind="neighborhood", seeds=(1,),
        fleet=FleetPlan(homes=4),  # coordination: independent
        faults=plan(telemetry_drop=0.5))
    with pytest.raises(SpecError, match="online"):
        validate(offline)
    # Non-telemetry sites are fine on any fleet shape.
    validate(ExperimentSpec(
        name="ok", kind="neighborhood", seeds=(1,),
        fleet=FleetPlan(homes=4), faults=plan(frame_loss=0.5)))


# -- retry policy -----------------------------------------------------------


def test_retry_intervals_grow_exponentially_to_the_cap():
    policy = RetryPolicy(initial_s=0.1, factor=2.0, max_s=1.0,
                         jitter=0.0)
    assert [policy.interval(n) for n in range(5)] \
        == [0.1, 0.2, 0.4, 0.8, 1.0]


def test_retry_jitter_is_bounded_deterministic_and_key_spread():
    policy = RetryPolicy(initial_s=0.1, factor=2.0, max_s=5.0,
                         jitter=0.25)
    for attempt in range(8):
        base = min(0.1 * 2.0 ** attempt, 5.0)
        value = policy.interval(attempt, key="job-a")
        assert base * 0.75 <= value <= base * 1.25
        assert value == policy.interval(attempt, key="job-a")
    # Distinct keys decorrelate (thundering-herd avoidance).
    assert policy.interval(3, key="job-a") != policy.interval(
        3, key="job-b")


def test_retry_policy_validates_its_shape():
    with pytest.raises(ValueError, match="initial_s"):
        RetryPolicy(initial_s=0.0)
    with pytest.raises(ValueError, match="factor"):
        RetryPolicy(factor=0.5)
    with pytest.raises(ValueError, match="max_s"):
        RetryPolicy(initial_s=1.0, max_s=0.5)
    with pytest.raises(ValueError, match="jitter"):
        RetryPolicy(jitter=1.0)


# -- a clean run pays (almost) nothing for the probes ------------------------

#: Armed but unfirable: enabled (so every probe hashes) at odds no
#: schedule ever realizes — the most expensive clean run possible.
NEVER = FaultPlan(seed=1, telemetry_drop=1e-300, telemetry_delay=1e-300,
                  telemetry_dup=1e-300, frame_loss=1e-300)


def test_disabled_injector_overhead():
    """Every hot path in the fleet pipeline carries fault probes; on a
    clean run each is one module-global read returning ``None``.  A
    clean online pass, a disabled-plan pass and an armed never-firing
    pass (one SHA-256 per probe, the most any site can cost) are timed
    interleaved, each sample a fixed batch of calls; the bounds are
    loose because shared CI boxes jitter single timings far more than
    the overhead itself."""
    from repro.neighborhood import (
        FeederConfig,
        ForecastConfig,
        build_fleet,
        coordinate_fleet_online,
        execute_fleet,
    )
    from repro.sim.units import HOUR

    horizon = 3 * HOUR  # four 45-min CP epochs on the suburb mix
    fleet = build_fleet(30, mix="suburb", seed=1, cp_fidelity="ideal",
                        horizon=horizon)
    results = execute_fleet(fleet, until=horizon).homes

    def online():
        return coordinate_fleet_online(
            fleet, results, horizon, config=FeederConfig(),
            forecast=ForecastConfig(forecaster="persistence"))

    # calls per timed sample: one call takes about 35 ms, short enough
    # that a single scheduler stall moves the median of nine samples
    batch = 3

    def timed(arm):
        start = time.perf_counter()
        plans = [online() for _ in range(batch)] if arm is None else None
        if arm is not None:
            with fault_scope(arm):
                plans = [online() for _ in range(batch)]
        elapsed = time.perf_counter() - start
        assert all(plan.n_epochs > 1 for plan in plans)
        return elapsed

    def median(samples):
        return sorted(samples)[len(samples) // 2]

    timed(None), timed(NEVER)  # warm caches before measuring
    arms = ((None, []), (FaultPlan(seed=1), []), (NEVER, []))
    # Interleaved so load spikes hit all three; the arm that runs first
    # rotates each round, so no arm always pays (or dodges) the slot
    # after the previous round's last run.  FaultPlan(seed=1) is the
    # disabled plan: no injector at all.
    for round_index in range(9):
        for offset in range(len(arms)):
            arm, samples = arms[(round_index + offset) % len(arms)]
            samples.append(timed(arm))
    (_, clean), (_, zero), (_, armed) = arms
    disabled_ratio = median(zero) / median(clean)
    armed_ratio = median(armed) / median(clean)
    assert disabled_ratio < 1.10  # typically < 1.01; bound is CI noise
    assert armed_ratio < 1.35
