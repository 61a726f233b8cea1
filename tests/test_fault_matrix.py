"""The fault matrix: injected chaos never changes what runs produce.

The acceptance contract of the fault-injection plane, as tests:

* **schedule reproducibility** — one ``FaultPlan`` seed realizes a
  bit-identical fault schedule (and final result digest) across jobs
  counts, shard sizes, and the in-process vs service executors;
* **energy exactness** — under every injected telemetry schedule the
  online plane's coordinated profile integrates to *exactly* the
  independent energy (drift ``== 0.0`` Wh);
* **never-raise-peak** — no epoch's coordinated peak exceeds that
  epoch's independent peak, whatever was dropped/delayed/duplicated;
* **exactly-once** — worker crashes and lease abandonments end with
  every job completed exactly once (one ``done`` journal event) and
  the artifact bit-identical to a fault-free run;
* **hardening regressions** — the lease keeper's raising-heartbeat fix
  (re-verify before publish), the client's typed timeout, frame-loss
  fallback, and corrupt-artifact recompute.
"""

import gc
import hashlib
import multiprocessing
import os
import time
from dataclasses import replace

import pytest

import repro.service.worker as worker_module
from repro.api.cache import ResultCache
from repro.api.run import run
from repro.api.spec import (
    ControlSpec,
    ExperimentSpec,
    FleetPlan,
    ForecastPlan,
    ScenarioSpec,
    spec_hash,
)
from repro.faults import FaultInjector, FaultPlan, fault_scope, \
    last_injector
from repro.service import ServiceStore, WorkerDaemon
from repro.service.client import JobTimeoutError, ServiceClient, \
    ServiceError
from repro.sim.units import HOUR, MINUTE

# Four CP epochs: suburb fleets negotiate on the largest maxDCP
# (45 min), and the horizon tiles it exactly.
HORIZON = 3 * HOUR
STORM = {"telemetry_drop": 0.3, "telemetry_delay": 0.25,
         "telemetry_dup": 0.25}


def chaos_spec(fault_seed=11, homes=6, seed=1, name="chaos", **rates):
    """An online fleet under a telemetry fault storm (by default)."""
    faults = FaultPlan(seed=fault_seed, **(rates or STORM))
    return ExperimentSpec(
        name=name, kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=HORIZON),
        control=ControlSpec(cp_fidelity="ideal"), seeds=(seed,),
        fleet=FleetPlan(homes=homes, mix="suburb",
                        coordination="online"),
        forecast=ForecastPlan(forecaster="persistence"), faults=faults)


def tiny_spec(fault_seed=None, **rates):
    """A cheap three-home fleet spec, optionally under a fault plan.

    Fleet-shaped because fault sections only validate on the kinds
    whose execution paths carry injection sites.
    """
    faults = None if fault_seed is None \
        else FaultPlan(seed=fault_seed, **rates)
    return ExperimentSpec(
        name="chaos-tiny", kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=15 * MINUTE),
        control=ControlSpec(cp_fidelity="ideal"), seeds=(1,),
        fleet=FleetPlan(homes=3, mix="suburb"), faults=faults)


def online_digest(result):
    """Fingerprint of everything a faulted online run realized."""
    plan = result.neighborhood.coordination
    hasher = hashlib.sha256()
    hasher.update(repr((tuple(plan.coordinated_w.times),
                        tuple(plan.coordinated_w.values))).encode())
    hasher.update(repr([outcome.offsets_s
                        for outcome in plan.epochs]).encode())
    hasher.update(plan.telemetry_digest.encode())
    hasher.update(repr((plan.telemetry_dropped, plan.telemetry_delayed,
                        plan.telemetry_duplicated,
                        plan.stale_predictions)).encode())
    return hasher.hexdigest()


def result_digest(result):
    """Value digest of any Result's observable series."""
    parts = []
    for one in result.runs:
        times, values = one.load_w._data()
        parts.append(times.tobytes() + values.tobytes())
    if result.neighborhood is not None:
        times, values = result.neighborhood.feeder_w._data()
        parts.append(times.tobytes() + values.tobytes())
        parts.append(repr(result.neighborhood.home_stats()).encode())
    return hashlib.sha256(b"".join(parts)).hexdigest()


@pytest.fixture
def store(tmp_path):
    return ServiceStore(tmp_path / "store")


# -- schedule + result reproducibility across execution shapes --------------


def test_fault_schedule_bit_identical_across_execution_shapes(store):
    spec = chaos_spec(fault_seed=11)
    digests, schedules = [], []

    def observe(result):
        injector = last_injector()
        schedules.append((injector.schedule("telemetry."),
                          injector.schedule_digest("telemetry.")))
        digests.append(online_digest(result))

    for jobs, shard_size in [(1, None), (4, None), (1, 3), (4, 2)]:
        observe(run(spec, jobs=jobs, shard_size=shard_size))
    client = ServiceClient(store)
    job_id = client.submit(spec)
    report = WorkerDaemon(store).step()
    assert report.state == "done"
    observe(client.result(job_id, timeout=10.0))

    assert len(set(digests)) == 1
    assert len(set(schedules)) == 1
    fired = schedules[0][0]
    assert fired, "storm rates must realize at least one fault"
    assert all(site.startswith("telemetry.") for site, _ in fired)


def test_distinct_fault_seeds_realize_distinct_schedules():
    run(chaos_spec(fault_seed=11))
    first = last_injector().schedule()
    run(chaos_spec(fault_seed=12))
    assert last_injector().schedule() != first


def test_all_zero_plan_is_bit_identical_to_no_plan():
    spec = chaos_spec(fault_seed=5)
    clean = replace(spec, faults=None)
    armed_off = replace(spec, faults=FaultPlan(seed=5))  # all rates 0
    baseline = run(clean)
    shadow = run(armed_off)
    assert online_digest(shadow) == online_digest(baseline)
    plan = shadow.neighborhood.coordination
    assert (plan.telemetry_dropped, plan.telemetry_delayed,
            plan.telemetry_duplicated, plan.stale_predictions) \
        == (0, 0, 0, 0)


# -- the online invariants, under every schedule ----------------------------


@pytest.mark.parametrize("fault_seed", [0, 1, 2, 3])
def test_energy_drift_is_exactly_zero_under_faults(fault_seed):
    plan = run(chaos_spec(fault_seed=fault_seed)) \
        .neighborhood.coordination
    fired = (plan.telemetry_dropped + plan.telemetry_delayed
             + plan.telemetry_duplicated)
    assert fired > 0, "storm rates must actually disturb telemetry"
    independent = plan.independent_w.integral(0.0, HORIZON)
    coordinated = plan.coordinated_w.integral(0.0, HORIZON)
    assert coordinated == independent  # exact, not approx


@pytest.mark.parametrize("fault_seed", [0, 1, 2, 3])
def test_guard_never_raises_any_epochs_peak_under_faults(fault_seed):
    plan = run(chaos_spec(fault_seed=fault_seed)) \
        .neighborhood.coordination
    for outcome in plan.epochs:
        assert outcome.coordinated_peak_w <= outcome.independent_peak_w


def test_storms_drive_homes_down_the_degradation_ladder():
    plan = run(chaos_spec(fault_seed=2, homes=8,
                          telemetry_drop=0.6)) \
        .neighborhood.coordination
    assert plan.n_epochs > 1  # staleness only exists across epochs
    assert plan.telemetry_dropped > 0
    assert plan.stale_predictions > 0
    assert plan.stale_predictions == sum(outcome.stale_homes
                                         for outcome in plan.epochs)


# -- worker-plane faults: exactly-once completion ---------------------------


def seed_firing_once(site, spec_of):
    """A fault seed whose site fires on attempt 1 but not attempt 2.

    Searched against the *actual* job id (= spec hash, which covers the
    fault plan itself), using the same pure hash the injector uses —
    so the test drives a deterministic crash-then-recover schedule.
    """
    for fault_seed in range(500):
        spec = spec_of(fault_seed)
        job_id = spec_hash(spec)
        probe = FaultInjector(spec.faults)
        if probe.fire(site, f"{job_id}:a1") \
                and not probe.fire(site, f"{job_id}:a2"):
            return spec
    raise AssertionError(f"no {site} seed below 500 fires once")


def journal_counts(queue, job_id):
    events = [entry["event"] for entry in queue.journal_events()
              if entry["job_id"] == job_id]
    return {event: events.count(event) for event in set(events)}


def test_injected_crash_burns_one_attempt_then_completes_once(store):
    spec = seed_firing_once(
        "worker.crash",
        lambda s: tiny_spec(fault_seed=s, worker_crash=0.5))
    queue = store.queue(max_attempts=3)
    job_id, _ = queue.submit(spec)
    daemon = WorkerDaemon(store, max_attempts=3)
    first = daemon.step()
    assert first.state == "failed" and "worker.crash" in first.error
    assert queue.job(job_id).state == "pending"  # retry budget left
    second = daemon.step()
    assert second.state == "done"
    assert queue.job(job_id).state == "done"
    counts = journal_counts(queue, job_id)
    assert counts.get("done") == 1 and counts.get("lease") == 2
    stored = store.cache().get_object(job_id)
    assert result_digest(stored) == result_digest(run(tiny_spec()))


def test_lease_abandonment_is_recovered_by_takeover_exactly_once(store):
    spec = seed_firing_once(
        "worker.lease",
        lambda s: tiny_spec(fault_seed=s, lease_expiry=0.5))
    job_id, _ = store.queue().submit(spec)
    first = WorkerDaemon(store, worker_id="w1", lease_ttl=0.2).step()
    assert first.state == "aborted"
    assert not store.cache().has(job_id)  # died before publishing
    queue = store.queue()
    assert queue.job(job_id).state == "running"  # lease must expire
    deadline = time.monotonic() + 10.0
    second = None
    while second is None and time.monotonic() < deadline:
        second = WorkerDaemon(store, worker_id="w2").step()
        if second is None:
            time.sleep(0.05)
    assert second is not None and second.state == "done"
    counts = journal_counts(queue, job_id)
    assert counts.get("done") == 1 and counts.get("expire") == 1
    assert counts.get("lease") == 2
    stored = store.cache().get_object(job_id)
    assert result_digest(stored) == result_digest(run(tiny_spec()))


# -- lease keeper hardening (raising heartbeats) ----------------------------


def _raising_heartbeat(*args, **kwargs):
    raise OSError("injected store hiccup")


def test_raising_heartbeat_with_lost_lease_skips_publication(
        store, monkeypatch):
    queue = store.queue()
    job_id, _ = queue.submit(tiny_spec())
    daemon = WorkerDaemon(store, worker_id="victim", lease_ttl=0.2)
    monkeypatch.setattr(daemon.queue, "heartbeat", _raising_heartbeat)

    def slow_and_stolen(spec, **kwargs):
        time.sleep(0.2)  # several keeper intervals: the latch fires
        # The lease meanwhile expires and moves to a rival (the takeover
        # a dead-but-still-running worker must never publish over).
        taken = queue.lease("rival", now=time.time()
                            + queue.lease_ttl + 1.0)
        assert taken is not None
        return run(tiny_spec())

    monkeypatch.setattr(worker_module, "execute_job", slow_and_stolen)
    report = daemon.step()
    assert report.state == "stale"
    assert not store.cache().has(job_id)  # no double-publish race


def test_raising_heartbeat_with_healthy_lease_still_publishes(
        store, monkeypatch):
    queue = store.queue()
    job_id, _ = queue.submit(tiny_spec())
    daemon = WorkerDaemon(store, worker_id="victim", lease_ttl=0.2)
    monkeypatch.setattr(daemon.queue, "heartbeat", _raising_heartbeat)

    def slow(spec, **kwargs):
        time.sleep(0.2)  # keeper latches lost, but the lease is ours
        return run(tiny_spec())

    monkeypatch.setattr(worker_module, "execute_job", slow)
    report = daemon.step()
    assert report.state == "done"
    assert store.cache().has(job_id)


# -- client timeout hardening -----------------------------------------------


def test_result_timeout_is_typed_and_names_the_state(store):
    client = ServiceClient(store)
    job_id = client.submit(tiny_spec())  # no workers: stays pending
    with pytest.raises(JobTimeoutError) as caught:
        client.result(job_id, timeout=0.05)
    assert caught.value.state == "pending"
    assert isinstance(caught.value, ServiceError)  # old handlers hold


# -- transport + artifact-store faults --------------------------------------


def test_frame_loss_falls_back_to_bit_identical_reexecution():
    clean = ExperimentSpec(
        name="frames", kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=HORIZON),
        control=ControlSpec(cp_fidelity="ideal"), seeds=(1,),
        fleet=FleetPlan(homes=12, mix="suburb"))
    lossy = replace(clean,
                    faults=FaultPlan(seed=4, frame_loss=1.0))
    baseline = result_digest(run(clean, jobs=2, shard_size=4))
    faulted = run(lossy, jobs=2, shard_size=4)
    assert result_digest(faulted) == baseline
    fired = last_injector().schedule("transport.")
    assert fired, "sharded cross-process run must probe the frame site"


def test_corrupt_artifact_reads_degrade_to_recompute(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    spec = tiny_spec(fault_seed=6, cache_corrupt=1.0)
    first = run(spec, cache=cache)
    second = run(spec, cache=cache)  # stored hit injected corrupt
    assert result_digest(second) == result_digest(first)
    assert last_injector().schedule("cache.")
    # Outside any fault scope the store is healthy again: the recompute
    # re-published a readable object.
    digest = spec_hash(spec)
    assert cache.get(spec, spec_digest=digest) is not None


def test_corruption_is_per_read_not_per_digest(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    spec = tiny_spec()
    stored = run(spec, cache=cache)
    digest = spec_hash(spec)
    outcomes = []
    with fault_scope(FaultPlan(seed=0, cache_corrupt=0.5)):
        for _ in range(8):
            # Corrupt reads discard the object, so re-store each round.
            cache.put(spec, stored, spec_digest=digest)
            outcomes.append(cache.get(spec, spec_digest=digest)
                            is not None)
    # Occurrence-keyed decisions: some reads corrupt, some survive — a
    # digest is never *permanently* poisoned (which would deadlock
    # artifact polling).
    assert any(outcomes) and not all(outcomes)


# -- resource hygiene ---------------------------------------------------------


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _shm_listing():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_chaos_run_leaves_no_children_segments_or_fds(capsys):
    """A cross-process ``repro chaos run`` cleans up after itself: no
    live pool worker, no /dev/shm segment, no extra open descriptor."""
    from repro.cli import main
    argv = ["chaos", "run", "--homes", "6", "--jobs", "2",
            "--horizon-min", "60", "--fault-seed", "11",
            "--fault-rate", "0.3", "--fault-rate", "frame_loss=0.5"]
    gc.collect()
    shm_before, fds_before = _shm_listing(), _open_fds()
    assert main(argv) == 0
    assert "faults fired" in capsys.readouterr().out
    gc.collect()
    assert multiprocessing.active_children() == []
    assert _shm_listing() == shm_before
    assert _open_fds() <= fds_before
