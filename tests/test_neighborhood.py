"""Neighborhood layer: fleet construction, feeder aggregation, and the
parallel runner's determinism and failure surfacing.

The randomized invariant tests draw whole fleets from seeds: whatever the
composition, every admitted device keeps its duty-cycle guarantees, the
feeder is exactly the sum of its homes, and worker count never changes a
single bit of the results.
"""

import math
from dataclasses import replace

import pytest

from repro.experiments.runner import ParallelRunner, RunSpec, WorkerFailure
from repro.neighborhood import (
    FleetSpec,
    build_fleet,
    home_seed,
    execute_fleet,
    sum_series,
)
from repro.sim.monitor import StepSeries
from repro.sim.units import MINUTE
from repro.workloads import FLEET_MIXES, paper_scenario

HORIZON = 60 * MINUTE


def small_fleet(seed=5, n=4, mix="mixed", fidelity="ideal",
                horizon=HORIZON):
    return build_fleet(n, mix=mix, seed=seed, cp_fidelity=fidelity,
                       horizon=horizon)


# -- fleet construction -------------------------------------------------------

def test_fleet_build_is_deterministic():
    first = build_fleet(8, mix="suburb", seed=3)
    again = build_fleet(8, mix="suburb", seed=3)
    assert first == again
    assert build_fleet(8, mix="suburb", seed=4) != first


def test_fleet_members_do_not_depend_on_fleet_size():
    """Home i is the same home in a 4-home and a 12-home fleet."""
    small = build_fleet(4, mix="suburb", seed=7)
    large = build_fleet(12, mix="suburb", seed=7)
    assert large.homes[:4] == small.homes


def test_fleet_is_heterogeneous():
    fleet = build_fleet(12, mix="mixed", seed=1)
    compositions = {(h.scenario.n_devices, h.scenario.device_power_w,
                     h.scenario.arrival_rate_per_hour)
                    for h in fleet.homes}
    assert len(compositions) > 1
    assert len({h.archetype for h in fleet.homes}) > 1


def test_home_seeds_are_independent():
    seeds = [home_seed(1, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert home_seed(1, 0) != home_seed(2, 0)


def test_unknown_mix_rejected():
    with pytest.raises(KeyError, match="unknown fleet mix"):
        build_fleet(4, mix="metropolis")


@pytest.mark.parametrize("mix", sorted(FLEET_MIXES))
def test_every_mix_builds(mix):
    fleet = build_fleet(5, mix=mix, seed=2)
    assert fleet.n_homes == 5
    assert fleet.total_devices >= 10


# -- feeder aggregation -------------------------------------------------------

def test_sum_series_exact():
    a = StepSeries("a")
    b = StepSeries("b")
    a.record(0.0, 1.0)
    a.record(10.0, 3.0)
    b.record(5.0, 2.0)
    b.record(10.0, 0.0)
    total = sum_series([a, b])
    assert total.at(0.0) == 1.0
    assert total.at(5.0) == 3.0
    assert total.at(10.0) == 3.0
    assert total.at(12.0) == 3.0


def test_feeder_equals_sum_of_member_homes():
    """At every step event — and between them — feeder == Σ homes."""
    result = execute_fleet(small_fleet(), jobs=1)
    probe_times = list(result.feeder_w.times)
    probe_times += [t + 7.5 for t in probe_times[:200]]
    for t in probe_times:
        expected = math.fsum(home.load_w.at(t) for home in result.homes)
        assert result.feeder_w.at(t) == pytest.approx(expected, abs=1e-9)


def test_feeder_stats_diversity_bounds():
    result = execute_fleet(small_fleet(), jobs=1)
    stats = result.feeder_stats()
    assert stats.n_homes == 4
    assert stats.coincident_peak_kw == pytest.approx(stats.feeder.peak_kw)
    assert stats.sum_home_peaks_kw >= stats.coincident_peak_kw - 1e-9
    assert stats.diversity_factor >= 1.0 - 1e-9
    assert stats.coincidence_factor <= 1.0 + 1e-9
    assert stats.load_variation_kw == pytest.approx(stats.feeder.std_kw)


# -- randomized invariants ----------------------------------------------------

@pytest.mark.parametrize("fleet_seed", [11, 23])
def test_fleet_wide_duty_cycle_invariants(fleet_seed):
    """For any fleet: closed bursts >= minDCD, and while a device serves a
    request it executes at least one burst per maxDCP window."""
    fleet = small_fleet(seed=fleet_seed, n=5)
    result = execute_fleet(fleet, jobs=1)
    for spec, home in zip(fleet.homes, result.homes):
        scenario = spec.scenario
        assert home.bursts, scenario.name
        for bursts in home.bursts.values():
            for on_at, off_at in bursts:
                if off_at is not None:
                    assert off_at - on_at >= scenario.min_dcd - 1e-6, \
                        scenario.name
        for request in home.requests:
            if request.first_burst_at is None or request.extended_existing:
                continue
            # Liveness: first execution within maxDCP (+ one CP round).
            wait = request.first_burst_at - request.arrival_time
            assert wait <= scenario.max_dcp + 2.0 + 1e-6, scenario.name
        for request in home.requests:
            if request.completed_at is None or request.first_burst_at is None:
                continue
            starts = sorted(
                on_at for on_at, _off in home.bursts[request.device_id]
                if request.first_burst_at - 1e-6 <= on_at
                <= request.completed_at + 1e-6)
            # >= one burst per maxDCP window during service.
            for earlier, later in zip(starts, starts[1:]):
                assert later - earlier <= scenario.max_dcp + 1e-6, \
                    scenario.name


def test_admitted_requests_complete_or_stay_open():
    result = execute_fleet(small_fleet(seed=31), jobs=1)
    for home in result.homes:
        for request in home.requests:
            if request.completed_at is None:
                continue
            assert request.admitted_at is not None
            assert request.first_burst_at is not None


# -- parallel determinism -----------------------------------------------------

def test_identical_seed_bit_identical_1_vs_n_workers():
    fleet = small_fleet(seed=9, n=5)
    serial = execute_fleet(fleet, jobs=1)
    fanned = execute_fleet(fleet, jobs=3)
    assert serial.feeder_w.times == fanned.feeder_w.times
    assert serial.feeder_w.values == fanned.feeder_w.values
    for a, b in zip(serial.homes, fanned.homes):
        assert a.load_w.times == b.load_w.times
        assert a.load_w.values == b.load_w.values
        assert a.bursts == b.bursts
        assert a.stats() == b.stats()


def test_parallel_sweep_matches_serial():
    from repro.api import (
        ControlSpec,
        ExperimentSpec,
        SweepSpec,
        run,
        spec_from_scenario,
    )
    spec = ExperimentSpec(
        name="low-6dev-sweep", kind="sweep",
        scenario=spec_from_scenario(
            replace(paper_scenario("low"), n_devices=6)),
        control=ControlSpec(cp_fidelity="ideal"), seeds=(1, 2),
        until_s=HORIZON, sweep=SweepSpec(rates=()))
    serial = run(spec, jobs=1).by_policy()
    fanned = run(spec, jobs=2).by_policy()
    assert set(serial) == set(fanned) == {"coordinated", "uncoordinated"}
    for policy in serial:
        assert [r.stats() for r in serial[policy].results] \
            == [r.stats() for r in fanned[policy].results]


# -- failure surfacing --------------------------------------------------------

def poisoned_fleet(index=2, n=4):
    fleet = small_fleet(seed=13, n=n)
    victim = fleet.homes[index]
    bad = replace(victim, scenario=replace(victim.scenario,
                                           arrival_kind="bogus"))
    homes = list(fleet.homes)
    homes[index] = bad
    return FleetSpec(name=fleet.name, seed=fleet.seed, homes=tuple(homes))


def test_worker_failure_names_the_failing_home():
    with pytest.raises(WorkerFailure, match="home002"):
        execute_fleet(poisoned_fleet(index=2), jobs=2)


def test_worker_failure_carries_traceback_detail():
    try:
        execute_fleet(poisoned_fleet(index=1), jobs=1)
    except WorkerFailure as failure:
        assert failure.name.startswith("home001-")
        assert "bogus" in failure.detail
    else:  # pragma: no cover
        pytest.fail("expected WorkerFailure")


def test_parallel_runner_rejects_bad_jobs():
    with pytest.raises(ValueError):
        ParallelRunner(jobs=0)


def test_parallel_runner_empty_batch():
    assert ParallelRunner(jobs=4).run([]) == []


def test_run_spec_results_are_picklable():
    import pickle
    spec = RunSpec(name="x", config=small_fleet(n=1).homes[0].config(),
                   until=HORIZON)
    results = ParallelRunner(jobs=1).run([spec])
    assert len(pickle.dumps(results[0])) > 0
