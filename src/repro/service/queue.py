"""Durable, crash-safe job queue of experiment specs on a filesystem.

The queue half of a :class:`~repro.service.store.ServiceStore`: a plain
directory that any number of submitters and worker daemons share with no
broker process.  Durability and concurrency-safety come from three file
idioms only — so the queue works on any POSIX filesystem, survives
``kill -9`` at every point, and recovers leases from crashed workers:

* **atomic publish** — job and lease records are JSON files written to a
  per-thread temp name and ``os.replace``-d into place; readers see a
  complete old record or a complete new one, never a torn write;
* **atomic create** — submission materializes the job file via
  ``os.link`` (fails if the job already exists), which is what
  deduplicates concurrent identical submissions: the job id *is* the
  spec hash, so two racing ``submit()`` calls of one spec converge on
  one job with exactly one winner;
* **advisory ``flock``** — every state transition (lease, heartbeat,
  complete, fail) runs under an exclusive lock on ``<root>/lock``, so
  two workers can never lease the same job; where ``fcntl`` is missing
  the lock degrades to an ``O_EXCL`` spin file.

Leases carry an expiry deadline: a worker that stops heartbeating
(crashed, wedged, unplugged) loses the job when its deadline passes and
the next :meth:`JobQueue.lease` call re-leases it — up to
``max_attempts`` executions, after which the job is marked ``failed``.
Because execution results are content-addressed and runs are
bit-deterministic, a re-leased job reproduces the crashed attempt's
result exactly.

Every transition is additionally appended to ``journal.jsonl`` — an
append-only audit log (one JSON object per line) that tests and
operators use to answer "how many times did this actually execute?".
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, TypeVar, Union

try:  # pragma: no cover - exercised per-platform
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.api.cache import writer_tag
from repro.api.spec import ExperimentSpec, spec_hash

_T = TypeVar("_T")

#: Seconds a lease stays valid between heartbeats before the job is
#: considered abandoned and eligible for re-lease.
DEFAULT_LEASE_TTL = 30.0
#: Executions (initial lease + expiry take-overs) before a job is
#: declared failed rather than re-leased again.
DEFAULT_MAX_ATTEMPTS = 3

#: The lifecycle states a job record can be in.
JOB_STATES = ("pending", "running", "done", "failed")


class QueueError(RuntimeError):
    """A queue operation could not be performed (corrupt/unknown job)."""


@dataclass(frozen=True)
class JobRecord:
    """One durable job: a spec waiting for (or done with) execution.

    ``job_id`` is the spec's content hash
    (:func:`~repro.api.spec.spec_hash`), which makes the queue
    content-addressed: identical specs are one job.  ``spec_data`` is
    the spec's dict form, so the record file alone regenerates the
    experiment.
    """

    job_id: str
    name: str
    kind: str
    spec_data: dict
    submitted: float
    state: str = "pending"
    attempts: int = 0
    error: Optional[str] = None

    def spec(self) -> ExperimentSpec:
        """Rebuild the submitted :class:`~repro.api.spec.ExperimentSpec`."""
        return ExperimentSpec.from_dict(self.spec_data)


@dataclass(frozen=True)
class LeaseRecord:
    """One worker's time-bounded claim on a running job."""

    job_id: str
    worker: str
    acquired: float
    deadline: float
    beats: int = 0

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the deadline passed (the job is eligible for re-lease)."""
        return (now if now is not None else time.time()) >= self.deadline


class JobQueue:
    """The durable queue over one directory (see module docstring).

    Instances are cheap and picklable (paths + two numbers); every
    operation re-reads the filesystem, so any number of processes can
    share one queue directory.
    """

    def __init__(self, root: Union[str, Path],
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS):
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.root = Path(root)
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)

    # -- paths ------------------------------------------------------------

    @property
    def jobs_dir(self) -> Path:
        """Directory of the per-job record files."""
        return self.root / "jobs"

    @property
    def leases_dir(self) -> Path:
        """Directory of the per-job lease files."""
        return self.root / "leases"

    @property
    def journal_path(self) -> Path:
        """The append-only transition journal."""
        return self.root / "journal.jsonl"

    @property
    def lock_path(self) -> Path:
        """The advisory lock file serializing state transitions."""
        return self.root / "lock"

    def _job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _lease_path(self, job_id: str) -> Path:
        return self.leases_dir / f"{job_id}.json"

    def _mkdirs(self) -> None:
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.leases_dir.mkdir(parents=True, exist_ok=True)

    # -- locking / atomic files -------------------------------------------

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive advisory lock over every state transition."""
        self._mkdirs()
        fd = os.open(self.lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(fd, fcntl.LOCK_UN)
            else:  # pragma: no cover - non-POSIX spin fallback
                spin = self.root / "lock.spin"
                while True:
                    try:
                        spin_fd = os.open(spin,
                                          os.O_CREAT | os.O_EXCL | os.O_RDWR)
                        os.close(spin_fd)
                        break
                    except FileExistsError:
                        time.sleep(0.005)
                try:
                    yield
                finally:
                    try:
                        spin.unlink()
                    except OSError:
                        pass
        finally:
            os.close(fd)

    def _write_json(self, path: Path, data: dict) -> None:
        """Atomic record publish: per-thread temp + ``os.replace``."""
        tmp = path.with_name(f"{path.name}.{writer_tag()}.tmp")
        tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
        os.replace(tmp, path)

    @staticmethod
    def _read_json(path: Path) -> Optional[dict]:
        try:
            data = json.loads(path.read_text())
            return data if isinstance(data, dict) else None
        except (OSError, ValueError):
            return None

    @classmethod
    def _load(cls, path: Path, parse: Callable[[dict], _T]) -> Optional[_T]:
        """``parse`` of the record at ``path``; ``None`` when it is
        missing, truncated, or parses into a garbled record."""
        data = cls._read_json(path)
        if data is None:
            return None
        try:
            return parse(data)
        except (KeyError, TypeError, ValueError):
            return None

    def _journal(self, event: str, job_id: str,
                 worker: Optional[str] = None,
                 now: Optional[float] = None, **extra) -> None:
        """Append one transition line (best-effort; audit, not state)."""
        entry = {"t": now if now is not None else time.time(),
                 "event": event, "job_id": job_id}
        if worker is not None:
            entry["worker"] = worker
        entry.update(extra)
        try:
            with open(self.journal_path, "a") as journal:
                journal.write(json.dumps(entry, sort_keys=True) + "\n")
        except OSError:  # pragma: no cover - audit only
            pass

    # -- record (de)serialisation -----------------------------------------

    @staticmethod
    def _job_from(data: dict) -> JobRecord:
        spec_data = data.get("spec", {})
        if not isinstance(spec_data, dict):
            raise TypeError("job spec is not a JSON object")
        return JobRecord(
            job_id=str(data["job_id"]), name=str(data.get("name", "?")),
            kind=str(data.get("kind", "?")),
            spec_data=dict(spec_data),
            submitted=float(data.get("submitted", 0.0)),
            state=str(data.get("state", "pending")),
            attempts=int(data.get("attempts", 0)),
            error=data.get("error"))

    @staticmethod
    def _job_to(record: JobRecord) -> dict:
        return {"job_id": record.job_id, "name": record.name,
                "kind": record.kind, "spec": record.spec_data,
                "submitted": record.submitted, "state": record.state,
                "attempts": record.attempts, "error": record.error}

    @staticmethod
    def _lease_from(data: dict) -> LeaseRecord:
        return LeaseRecord(
            job_id=str(data["job_id"]), worker=str(data["worker"]),
            acquired=float(data.get("acquired", 0.0)),
            deadline=float(data.get("deadline", 0.0)),
            beats=int(data.get("beats", 0)))

    @staticmethod
    def _lease_to(lease: LeaseRecord) -> dict:
        return {"job_id": lease.job_id, "worker": lease.worker,
                "acquired": lease.acquired, "deadline": lease.deadline,
                "beats": lease.beats}

    # -- submission --------------------------------------------------------

    def submit(self, spec: ExperimentSpec,
               now: Optional[float] = None) -> tuple[str, bool]:
        """Enqueue ``spec``; returns ``(job_id, created)``.

        The job id is the spec hash, and creation is atomic
        (``os.link``), so concurrent submissions of an identical spec
        all receive the same id and exactly one of them creates the job
        — the dedup guarantee the front door builds on.  Re-submitting
        an already-known spec returns ``created=False`` and changes
        nothing (use :meth:`requeue` to retry a failed job).
        """
        job_id = spec_hash(spec)
        path = self._job_path(job_id)
        if path.exists():
            return job_id, False
        stamp = now if now is not None else time.time()
        record = JobRecord(job_id=job_id, name=spec.name, kind=spec.kind,
                           spec_data=spec.to_dict(), submitted=stamp)
        self._mkdirs()
        tmp = path.with_name(f"{path.name}.{writer_tag()}.tmp")
        tmp.write_text(json.dumps(self._job_to(record), indent=1,
                                  sort_keys=True))
        try:
            os.link(tmp, path)  # atomic create-if-absent
        except FileExistsError:
            return job_id, False
        finally:
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - racing cleaner
                pass
        self._journal("submit", job_id, now=stamp, name=spec.name)
        return job_id, True

    def requeue(self, job_id: str, now: Optional[float] = None) -> bool:
        """Return a ``failed``/``done`` job to ``pending`` (fresh attempts).

        Used when a job must execute again — its artifact was evicted,
        or a failed job should be retried.  Returns ``False`` for
        unknown jobs and no-ops on jobs already pending/running.
        """
        with self._locked():
            record = self.job(job_id)
            if record is None:
                return False
            if record.state in ("pending", "running"):
                return True
            fresh = JobRecord(
                job_id=record.job_id, name=record.name, kind=record.kind,
                spec_data=record.spec_data, submitted=record.submitted,
                state="pending", attempts=0, error=None)
            self._write_json(self._job_path(job_id), self._job_to(fresh))
            self._journal("requeue", job_id, now=now)
            return True

    # -- inspection --------------------------------------------------------

    def job(self, job_id: str) -> Optional[JobRecord]:
        """The job record, or ``None`` for unknown/corrupt ids."""
        return self._load(self._job_path(job_id), self._job_from)

    def lease_of(self, job_id: str) -> Optional[LeaseRecord]:
        """The current lease on a job, if any (may be expired)."""
        return self._load(self._lease_path(job_id), self._lease_from)

    def jobs(self) -> list[JobRecord]:
        """Every job record, oldest submission first."""
        records = []
        if self.jobs_dir.is_dir():
            for path in self.jobs_dir.glob("*.json"):
                record = self._load(path, self._job_from)
                if record is not None:
                    records.append(record)
        records.sort(key=lambda record: (record.submitted, record.job_id))
        return records

    def counts(self) -> dict[str, int]:
        """Job tally by state (every state present, zero-filled)."""
        tally = {state: 0 for state in JOB_STATES}
        for record in self.jobs():
            tally[record.state] = tally.get(record.state, 0) + 1
        return tally

    def journal_events(self) -> list[dict]:
        """Every parseable journal line, in append order.

        Torn lines are skipped wherever they sit: a crash (or a
        truncating copy) can shear the *head* of the file as easily as
        the tail, and a sheared head may not even decode as UTF-8 —
        so decoding happens per line, and an undecodable or unparseable
        line anywhere never takes down replay of the rest.
        """
        events = []
        try:
            raw = self.journal_path.read_bytes()
        except OSError:
            return events
        for line in raw.splitlines():
            try:
                entry = json.loads(line.decode())
            except (UnicodeDecodeError, ValueError):
                continue
            if isinstance(entry, dict):
                events.append(entry)
        return events

    # -- the worker protocol ----------------------------------------------

    def lease(self, worker: str, now: Optional[float] = None,
              ) -> Optional[tuple[JobRecord, LeaseRecord]]:
        """Claim the oldest runnable job for ``worker`` (or ``None``).

        Runnable means *pending*, or *running* with an **expired** lease
        (the holder stopped heartbeating — crash recovery).  Taking over
        an expired lease counts as a new attempt; a job whose attempts
        reach ``max_attempts`` is marked ``failed`` instead of leased
        again, so a spec that reliably kills workers cannot loop
        forever.  Atomic under the queue lock: one caller wins each job.
        """
        stamp = now if now is not None else time.time()
        with self._locked():
            for record in self.jobs():
                if record.state not in ("pending", "running"):
                    continue
                lease = self.lease_of(record.job_id)
                if lease is not None and not lease.expired(stamp):
                    continue
                if record.state == "running":
                    # The holder went dark: journal the expiry, then
                    # either retry or give up on the job.
                    self._journal("expire", record.job_id,
                                  worker=lease.worker if lease else None,
                                  now=stamp)
                    if record.attempts >= self.max_attempts:
                        failed = JobRecord(
                            job_id=record.job_id, name=record.name,
                            kind=record.kind, spec_data=record.spec_data,
                            submitted=record.submitted, state="failed",
                            attempts=record.attempts,
                            error=f"lease expired after "
                                  f"{record.attempts} attempt(s)")
                        self._write_json(self._job_path(record.job_id),
                                         self._job_to(failed))
                        try:
                            self._lease_path(record.job_id).unlink()
                        except OSError:
                            pass
                        self._journal("gave-up", record.job_id, now=stamp)
                        continue
                fresh_lease = LeaseRecord(
                    job_id=record.job_id, worker=worker, acquired=stamp,
                    deadline=stamp + self.lease_ttl)
                running = JobRecord(
                    job_id=record.job_id, name=record.name,
                    kind=record.kind, spec_data=record.spec_data,
                    submitted=record.submitted, state="running",
                    attempts=record.attempts + 1, error=None)
                self._write_json(self._lease_path(record.job_id),
                                 self._lease_to(fresh_lease))
                self._write_json(self._job_path(record.job_id),
                                 self._job_to(running))
                self._journal("lease", record.job_id, worker=worker,
                              now=stamp, attempt=running.attempts)
                return running, fresh_lease
        return None

    def heartbeat(self, job_id: str, worker: str,
                  now: Optional[float] = None) -> bool:
        """Extend ``worker``'s lease on a job by one TTL.

        Returns ``False`` — and extends nothing — when the lease is
        gone or now belongs to another worker (it expired and was
        re-leased): the caller lost the job and should stop treating
        its execution as authoritative.
        """
        stamp = now if now is not None else time.time()
        with self._locked():
            lease = self.lease_of(job_id)
            if lease is None or lease.worker != worker:
                return False
            extended = LeaseRecord(
                job_id=lease.job_id, worker=lease.worker,
                acquired=lease.acquired,
                deadline=stamp + self.lease_ttl, beats=lease.beats + 1)
            self._write_json(self._lease_path(job_id),
                             self._lease_to(extended))
            return True

    def complete(self, job_id: str, worker: str,
                 now: Optional[float] = None) -> bool:
        """Mark a job ``done`` and release ``worker``'s lease.

        Returns ``False`` for a stale completion (the lease moved to
        another worker after expiry) — the job record is left to the
        current holder.  A stale completion is harmless by design: the
        result already landed in the content-addressed artifact store,
        bit-identical to what the new holder will produce.
        """
        stamp = now if now is not None else time.time()
        with self._locked():
            lease = self.lease_of(job_id)
            if lease is None or lease.worker != worker:
                self._journal("stale-done", job_id, worker=worker,
                              now=stamp)
                return False
            record = self.job(job_id)
            if record is None:
                raise QueueError(f"job {job_id!r} has no record")
            done = JobRecord(
                job_id=record.job_id, name=record.name, kind=record.kind,
                spec_data=record.spec_data, submitted=record.submitted,
                state="done", attempts=record.attempts, error=None)
            self._write_json(self._job_path(job_id), self._job_to(done))
            try:
                self._lease_path(job_id).unlink()
            except OSError:  # pragma: no cover - racing cleaner
                pass
            self._journal("done", job_id, worker=worker, now=stamp)
            return True

    def fail(self, job_id: str, worker: str, error: str,
             now: Optional[float] = None) -> bool:
        """Record an execution failure and release ``worker``'s lease.

        The job returns to ``pending`` while attempts remain (the error
        text rides along for ``status()``), and becomes terminally
        ``failed`` once ``max_attempts`` executions have been burned.
        Stale failures (lease re-assigned) are ignored, like
        :meth:`complete`.
        """
        stamp = now if now is not None else time.time()
        with self._locked():
            lease = self.lease_of(job_id)
            if lease is None or lease.worker != worker:
                self._journal("stale-fail", job_id, worker=worker,
                              now=stamp)
                return False
            record = self.job(job_id)
            if record is None:
                raise QueueError(f"job {job_id!r} has no record")
            state = "failed" if record.attempts >= self.max_attempts \
                else "pending"
            updated = JobRecord(
                job_id=record.job_id, name=record.name, kind=record.kind,
                spec_data=record.spec_data, submitted=record.submitted,
                state=state, attempts=record.attempts, error=error)
            self._write_json(self._job_path(job_id),
                             self._job_to(updated))
            try:
                self._lease_path(job_id).unlink()
            except OSError:  # pragma: no cover - racing cleaner
                pass
            self._journal("fail", job_id, worker=worker, now=stamp,
                          terminal=state == "failed")
            return True
