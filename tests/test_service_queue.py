"""The durable job queue: dedup, leases, expiry, crash-recovery states.

Pure queue-protocol tests (no execution): every transition takes an
injected ``now`` timestamp, so lease expiry and FIFO ordering are exact
rather than sleep-based.
"""

import json
import threading

import pytest

from repro.api.spec import (
    ControlSpec,
    ExperimentSpec,
    ScenarioSpec,
    spec_hash,
)
from repro.service.queue import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    JobQueue,
)
from repro.sim.units import MINUTE


def tiny_spec(seed=1, name="queued"):
    return ExperimentSpec(
        name=name, scenario=ScenarioSpec(preset="paper-low"),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(seed,), until_s=45 * MINUTE)


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "queue", lease_ttl=10.0, max_attempts=3)


def events(queue, kind=None):
    names = [entry["event"] for entry in queue.journal_events()]
    return names if kind is None else [n for n in names if n == kind]


# -- submission and dedup -------------------------------------------------

def test_submit_is_content_addressed(queue):
    job_id, created = queue.submit(tiny_spec(), now=1.0)
    assert created
    assert job_id == spec_hash(tiny_spec())
    again, created_again = queue.submit(tiny_spec(), now=2.0)
    assert again == job_id and not created_again
    assert len(queue.jobs()) == 1
    record = queue.job(job_id)
    assert record.state == "pending"
    assert record.submitted == 1.0  # resubmission changed nothing
    assert record.spec() == tiny_spec()


def test_concurrent_submits_create_exactly_one_job(queue):
    spec = tiny_spec(name="raced")
    created_flags = []
    barrier = threading.Barrier(8)

    def submitter():
        barrier.wait()
        created_flags.append(queue.submit(spec)[1])

    threads = [threading.Thread(target=submitter) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert created_flags.count(True) == 1
    assert len(queue.jobs()) == 1
    assert len(events(queue, "submit")) == 1


def test_fifo_by_submission_time(queue):
    first, _ = queue.submit(tiny_spec(seed=1), now=10.0)
    second, _ = queue.submit(tiny_spec(seed=2), now=20.0)
    record, _lease = queue.lease("w1", now=30.0)
    assert record.job_id == first
    record, _lease = queue.lease("w2", now=30.0)
    assert record.job_id == second
    assert queue.lease("w3", now=30.0) is None


# -- the lease protocol ---------------------------------------------------

def test_lease_marks_running_and_is_exclusive(queue):
    job_id, _ = queue.submit(tiny_spec(), now=0.0)
    record, lease = queue.lease("alpha", now=1.0)
    assert record.state == "running" and record.attempts == 1
    assert lease.worker == "alpha"
    assert lease.deadline == 1.0 + queue.lease_ttl
    # Live lease: nobody else can take the job.
    assert queue.lease("beta", now=2.0) is None
    assert queue.counts() == {"pending": 0, "running": 1,
                              "done": 0, "failed": 0}


def test_heartbeat_extends_only_for_the_holder(queue):
    job_id, _ = queue.submit(tiny_spec(), now=0.0)
    queue.lease("alpha", now=0.0)
    assert queue.heartbeat(job_id, "alpha", now=8.0)
    lease = queue.lease_of(job_id)
    assert lease.deadline == 8.0 + queue.lease_ttl
    assert lease.beats == 1
    assert not queue.heartbeat(job_id, "imposter", now=9.0)
    assert not queue.heartbeat("no-such-job", "alpha", now=9.0)


def test_complete_finishes_and_releases(queue):
    job_id, _ = queue.submit(tiny_spec(), now=0.0)
    queue.lease("alpha", now=0.0)
    assert queue.complete(job_id, "alpha", now=5.0)
    assert queue.job(job_id).state == "done"
    assert queue.lease_of(job_id) is None
    assert queue.lease("beta", now=6.0) is None  # done jobs don't lease
    assert events(queue) == ["submit", "lease", "done"]


def test_expired_lease_is_taken_over(queue):
    job_id, _ = queue.submit(tiny_spec(), now=0.0)
    queue.lease("alpha", now=0.0)
    # Heartbeats stopped; past the deadline another worker takes over.
    record, lease = queue.lease("beta", now=queue.lease_ttl + 0.5)
    assert record.job_id == job_id and record.attempts == 2
    assert lease.worker == "beta"
    assert "expire" in events(queue)
    # Alpha's late completion is stale: rejected, job stays with beta.
    assert not queue.complete(job_id, "alpha", now=11.0)
    assert queue.job(job_id).state == "running"
    assert queue.complete(job_id, "beta", now=12.0)
    assert queue.job(job_id).state == "done"
    assert "stale-done" in events(queue)


def test_expiry_exhausts_attempts_to_failed(queue):
    job_id, _ = queue.submit(tiny_spec(), now=0.0)
    now = 0.0
    for attempt in range(1, queue.max_attempts + 1):
        record, _lease = queue.lease(f"w{attempt}", now=now)
        assert record.attempts == attempt
        now += queue.lease_ttl + 1.0  # every holder goes dark
    assert queue.lease("w-final", now=now) is None
    record = queue.job(job_id)
    assert record.state == "failed"
    assert "lease expired" in record.error
    assert "gave-up" in events(queue)


def test_fail_retries_until_attempts_exhausted(queue):
    job_id, _ = queue.submit(tiny_spec(), now=0.0)
    for attempt in range(1, queue.max_attempts):
        queue.lease(f"w{attempt}", now=float(attempt))
        assert queue.fail(job_id, f"w{attempt}", "boom", now=float(attempt))
        record = queue.job(job_id)
        assert record.state == "pending"  # attempts remain
        assert record.error == "boom"
    queue.lease("w-last", now=99.0)
    assert queue.fail(job_id, "w-last", "boom again", now=99.5)
    assert queue.job(job_id).state == "failed"


def test_requeue_resets_failed_and_done_jobs(queue):
    job_id, _ = queue.submit(tiny_spec(), now=0.0)
    queue.lease("alpha", now=0.0)
    queue.complete(job_id, "alpha", now=1.0)
    assert queue.requeue(job_id)
    record = queue.job(job_id)
    assert record.state == "pending" and record.attempts == 0
    assert not queue.requeue("no-such-job")


def test_invalid_construction_rejected(tmp_path):
    with pytest.raises(ValueError, match="lease_ttl"):
        JobQueue(tmp_path, lease_ttl=0.0)
    with pytest.raises(ValueError, match="max_attempts"):
        JobQueue(tmp_path, max_attempts=0)
    defaults = JobQueue(tmp_path)
    assert defaults.lease_ttl == DEFAULT_LEASE_TTL
    assert defaults.max_attempts == DEFAULT_MAX_ATTEMPTS


def test_journal_survives_torn_tail_line(queue):
    queue.submit(tiny_spec(), now=0.0)
    with open(queue.journal_path, "a") as journal:
        journal.write('{"event": "half-writ')  # crash mid-append
    assert events(queue) == ["submit"]  # torn line skipped, not fatal


def test_journal_survives_torn_first_line(queue):
    # A crash can tear the *head* exactly like the tail — e.g. the very
    # first append cut mid-write, leaving bytes that are not even valid
    # UTF-8.  Replay must skip it, not crash on decode.
    queue.journal_path.parent.mkdir(parents=True, exist_ok=True)
    queue.journal_path.write_bytes(b'{"event": "ha\xff\xfe\n')
    queue.submit(tiny_spec(), now=0.0)
    assert events(queue) == ["submit"]


def test_records_are_whole_json_files(queue):
    job_id, _ = queue.submit(tiny_spec(), now=0.0)
    queue.lease("alpha", now=0.0)
    # Atomic publishes: both records parse as complete JSON documents.
    job_data = json.loads((queue.jobs_dir / f"{job_id}.json").read_text())
    lease_data = json.loads(
        (queue.leases_dir / f"{job_id}.json").read_text())
    assert job_data["state"] == "running"
    assert lease_data["worker"] == "alpha"


# -- garbled records ------------------------------------------------------

#: Records that parse as JSON objects but not as a job or lease: each
#: must degrade like a truncated file, never stall the queue.
GARBLED = {
    "missing-job-id": ("job", lambda job_id: {"name": "x",
                                              "state": "pending"}),
    "non-int-attempts": ("job", lambda job_id: {"job_id": job_id,
                                                "attempts": "many"}),
    "non-dict-spec": ("job", lambda job_id: {"job_id": job_id,
                                             "spec": "garbled"}),
    "lease-without-worker": ("lease", lambda job_id: {"job_id": job_id,
                                                      "deadline": 1e9}),
}


@pytest.mark.parametrize("target,garbled", GARBLED.values(), ids=GARBLED)
def test_garbled_records_are_skipped_like_truncated_ones(queue, target,
                                                         garbled):
    first, _ = queue.submit(tiny_spec(seed=1), now=10.0)
    second, _ = queue.submit(tiny_spec(seed=2), now=20.0)
    if target == "job":
        (queue.jobs_dir / f"{first}.json").write_text(
            json.dumps(garbled(first)))
        assert queue.job(first) is None
        assert [record.job_id for record in queue.jobs()] == [second]
        assert queue.counts()["pending"] == 1
    else:
        queue.lease("w1", now=30.0)
        (queue.leases_dir / f"{first}.json").write_text(
            json.dumps(garbled(first)))
        assert queue.lease_of(first) is None
        assert not queue.heartbeat(first, "w1", now=31.0)
        # An unreadable lease is a missing one: the running job is
        # taken over like any lost lease, then the queue moves on.
        record, _lease = queue.lease("w2", now=32.0)
        assert (record.job_id, record.attempts) == (first, 2)
    record, _lease = queue.lease("w3", now=40.0)
    assert record.job_id == second
