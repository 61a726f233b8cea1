"""Worker daemons: lease jobs, execute them, publish artifacts.

A :class:`WorkerDaemon` is the execution half of the service plane — any
number of them (processes, machines) point at one
:class:`~repro.service.store.ServiceStore` and drain its queue:

* **lease** the oldest runnable job (:meth:`JobQueue.lease <
  repro.service.queue.JobQueue.lease>` — atomic, so two daemons never
  run the same job);
* **heartbeat** on a background thread (:class:`_LeaseKeeper`) for the
  whole execution, so long runs keep their lease while a ``kill -9``-ed
  worker silently stops beating and loses it;
* **execute** through exactly the same compile/fan-out path as an
  in-process :func:`repro.api.run.run` — runs are bit-deterministic, so
  a service-produced result is indistinguishable from a local one;
* **publish** the portable :class:`~repro.api.run.Result` into the
  store's artifact cache under the job id (= spec hash), then mark the
  job done.

Neighborhood jobs additionally **checkpoint per shard**: every shard
sub-spec has a stable content address
(:func:`repro.api.compile.shard_sub_hash`), and its outcome (the home
runs) is stored as it completes — a worker that crashes 80 shards into a
100-shard fleet loses nothing; the re-leasing worker replays the 80 from
the artifact store and executes only the remaining 20.  Because shard
planning is deterministic in ``(fleet, shard_size, jobs)`` and outcomes
are bit-identical however produced, resume cannot change a single bit of
the final result.
"""

from __future__ import annotations

import functools
import os
import socket
import threading
import time
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.api.cache import ResultCache
from repro.api.compile import shard_sub_hash
from repro.api.run import Result, _execute, provenance_of
from repro.api.spec import ExperimentSpec
from repro.api.validate import validate
from repro.faults import InjectedFault, fault_scope
from repro.service.queue import JobQueue
from repro.service.retry import RetryPolicy
from repro.service.store import ServiceStore

#: Idle-queue polling period of :meth:`WorkerDaemon.run_forever`.
WORKER_POLL_S = 0.5
#: Heartbeats fire every ``lease_ttl * HEARTBEAT_FRACTION`` seconds —
#: several beats per TTL, so one delayed beat never loses the lease.
HEARTBEAT_FRACTION = 0.25


def default_worker_id() -> str:
    """A worker identity unique per process: ``<host>.<pid>``."""
    return f"{socket.gethostname()}.{os.getpid()}"


@dataclass(frozen=True)
class WorkerReport:
    """What one :meth:`WorkerDaemon.step` did with the job it leased.

    ``state`` is one of ``"done"`` (executed and published),
    ``"cached"`` (the artifact already existed — completed without
    executing), ``"failed"`` (execution raised; the queue decides
    retry vs terminal), ``"stale"`` (executed, but the lease had
    expired and moved — publication is skipped; the new holder
    publishes the bit-identical artifact), or ``"aborted"`` (an
    injected ``worker.lease`` fault abandoned the job after execution,
    before publishing — the lease expires and the job is re-leased).
    """

    job_id: str
    state: str
    error: Optional[str] = None


class _LeaseKeeper(threading.Thread):
    """Background heartbeat for one leased job.

    Beats until :meth:`stop` — or until a beat is rejected, which means
    the lease expired and was re-assigned; ``lost`` latches so the
    worker knows its completion will be stale.  Daemonic: a crashing
    worker takes its keeper with it, which is precisely what lets the
    lease expire and the job move on.
    """

    def __init__(self, queue: JobQueue, job_id: str, worker: str,
                 interval: float):
        super().__init__(daemon=True, name=f"lease-{job_id[:8]}")
        self.queue = queue
        self.job_id = job_id
        self.worker = worker
        self.interval = interval
        self.lost = False
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                beating = self.queue.heartbeat(self.job_id, self.worker)
            except Exception:
                # A raising heartbeat (store unreachable, corrupt lock)
                # must not kill the thread *silently* with lost=False —
                # that is indistinguishable from a healthy lease, and the
                # worker would publish over an expired-lease takeover.
                # Latch lost; the worker re-verifies before publishing.
                self.lost = True
                return
            if not beating:
                self.lost = True
                return

    def stop(self) -> None:
        """Stop beating and wait for the thread to wind down."""
        self._halt.set()
        self.join(timeout=self.interval + 1.0)


def _checkpointed_shard(spec, cache: ResultCache, parent: str) -> tuple:
    """Shard executor with artifact-store memoization (module-level so
    ``functools.partial`` of it pickles to pool workers).

    The shard is forced frameless (``framed=False``) so the stored
    outcome carries its series directly and is the same object whatever
    ``jobs`` planned the shard.  Stored shards therefore skip the
    batched-frame transport; the checkpoint read/write replaces what
    the frame was optimizing.
    """
    from repro.neighborhood.shard import _execute_shard
    key = shard_sub_hash(parent, spec)
    hit = cache.get_object(key)
    if isinstance(hit, tuple) and len(hit) == 3 and hit[0] == "ok":
        return hit
    triple = _execute_shard(replace(spec, framed=False))
    if triple[0] == "ok":
        cache.put_object(key, triple, name=spec.fleet.name, kind="shard")
    return triple


def execute_job(spec: ExperimentSpec, cache: Optional[ResultCache] = None,
                jobs: int = 1,
                shard_size: Optional[int] = None) -> Result:
    """Execute one leased spec exactly as ``run(spec)`` would.

    The worker-side twin of the :func:`repro.api.run.run` cache-miss
    path: validate, stamp provenance, then the same
    :func:`repro.api.run._execute`.  With a ``cache`` (the store's
    artifact cache), neighborhood and grid kinds run with the per-shard
    checkpointing executor (see module docstring) so crashed attempts
    resume at shard granularity — grid shard indices are numbered
    globally across feeders
    (:func:`repro.neighborhood.grid.execute_grid`), so every shard of
    every feeder gets its own checkpoint sub-address.
    """
    validate(spec)
    provenance = provenance_of(spec)
    executor = None
    if cache is not None:
        executor = functools.partial(_checkpointed_shard, cache=cache,
                                     parent=provenance.spec_hash)
    with fault_scope(spec.faults):
        return _execute(spec, provenance, jobs, shard_size,
                        shard_executor=executor)


class WorkerDaemon:
    """One worker process over a service store (see module docstring).

    ``jobs``/``shard_size`` are the usual execution
    knobs, forwarded to the compiled run — a daemon with ``jobs=4``
    fans each leased job over four pool workers.  ``lease_ttl`` /
    ``max_attempts`` tune the queue's crash-recovery protocol (defaults
    from :mod:`repro.service.queue`).
    """

    def __init__(self, store: Union[None, str, ServiceStore] = None,
                 worker_id: Optional[str] = None, jobs: int = 1,
                 shard_size: Optional[int] = None,
                 lease_ttl: Optional[float] = None,
                 max_attempts: Optional[int] = None):
        self.store = ServiceStore.resolve(store)
        self.queue = self.store.queue(lease_ttl=lease_ttl,
                                      max_attempts=max_attempts)
        self.cache = self.store.cache()
        self.worker_id = worker_id if worker_id is not None \
            else default_worker_id()
        self.jobs = jobs
        self.shard_size = shard_size

    def step(self) -> Optional[WorkerReport]:
        """Lease and finish at most one job; ``None`` when queue is idle.

        A job whose artifact already exists (another worker published it
        while this job waited) completes instantly without executing —
        the queue-side half of the dedup guarantee.

        When the leased spec carries a fault plan, its ``worker.crash``
        site can abort the attempt before execution (the queue retries,
        burning one attempt) and its ``worker.lease`` site can abandon
        the finished attempt *before publishing* (simulating a worker
        dying between execution and publication — the lease expires and
        the next holder re-executes from shard checkpoints).  Both are
        keyed ``{job_id}:a{attempt}``, so the fault schedule is the
        same whichever daemon happens to lease the attempt.
        """
        leased = self.queue.lease(self.worker_id)
        if leased is None:
            return None
        record, _lease = leased
        job_id = record.job_id
        if self.cache.has(job_id):
            self.queue.complete(job_id, self.worker_id)
            return WorkerReport(job_id=job_id, state="cached")
        spec = record.spec()
        attempt_key = f"{job_id}:a{record.attempts}"
        keeper = _LeaseKeeper(
            self.queue, job_id, self.worker_id,
            interval=self.queue.lease_ttl * HEARTBEAT_FRACTION)
        keeper.start()
        abandon = False
        try:
            with fault_scope(spec.faults) as injector:
                if injector is not None and injector.fire(
                        "worker.crash", attempt_key):
                    raise InjectedFault("worker.crash", attempt_key)
                result = execute_job(
                    spec, cache=self.cache, jobs=self.jobs,
                    shard_size=self.shard_size)
                abandon = injector is not None and injector.fire(
                    "worker.lease", attempt_key)
        except Exception as bad:
            keeper.stop()
            error = f"{type(bad).__name__}: {bad}"
            self.queue.fail(job_id, self.worker_id, error)
            return WorkerReport(job_id=job_id, state="failed",
                                error=error)
        keeper.stop()
        if abandon:
            # Injected death between execution and publication: leave
            # the job running with no publisher so the lease protocol
            # (expiry -> re-lease -> checkpointed re-execution) is what
            # completes it, exactly once.
            return WorkerReport(job_id=job_id, state="aborted",
                                error="injected lease abandonment "
                                      "before publish")
        if keeper.lost and not self._still_holds(job_id):
            # The heartbeat thread latched a lost (or unverifiable)
            # lease and the queue confirms it moved on: publishing now
            # would race the takeover worker's publication.  The
            # content-addressed artifact the new holder produces is
            # bit-identical, so skipping is pure loss-avoidance.
            return WorkerReport(job_id=job_id, state="stale")
        self.cache.put_object(job_id, result.portable(),
                              name=record.name, kind=record.kind)
        completed = self.queue.complete(job_id, self.worker_id)
        return WorkerReport(job_id=job_id,
                            state="done" if completed else "stale")

    def _still_holds(self, job_id: str) -> bool:
        """Re-verify this worker's lease directly against the queue.

        Called when the lease keeper latched ``lost`` — which can also
        mean the heartbeat *raised* (store hiccup) while the lease is in
        fact still ours.  Only the queue's current lease record decides.
        """
        try:
            lease = self.queue.lease_of(job_id)
        except Exception:
            return False
        return lease is not None and lease.worker == self.worker_id

    def run_forever(self, max_jobs: Optional[int] = None,
                    idle_exit_s: Optional[float] = None,
                    poll_s: float = WORKER_POLL_S) -> int:
        """Drain the queue; returns how many jobs this call finished.

        Runs until ``max_jobs`` jobs are finished (``None`` = no limit)
        or the queue has been idle for ``idle_exit_s`` seconds
        (``None`` = wait forever) — the knobs that make daemons usable
        in tests and CI, where "serve forever" is a hang.

        Idle polling follows the same exponential backoff-with-jitter
        curve as client result polling (``poll_s`` seeds it, capped at
        2 s), resetting whenever work arrives — so a drained queue is
        re-checked eagerly right after activity and cheaply thereafter.
        """
        retry = RetryPolicy(initial_s=poll_s, max_s=max(poll_s, 2.0))
        finished = 0
        idle_polls = 0
        idle_since: Optional[float] = None
        while True:
            report = self.step()
            if report is not None:
                finished += 1
                idle_polls = 0
                idle_since = None
                if max_jobs is not None and finished >= max_jobs:
                    return finished
                continue
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif idle_exit_s is not None and now - idle_since >= idle_exit_s:
                return finished
            wait = retry.interval(idle_polls, key=self.worker_id)
            if idle_exit_s is not None:
                wait = min(wait,
                           max(idle_since + idle_exit_s - now, 0.0))
            time.sleep(wait)
            idle_polls += 1
