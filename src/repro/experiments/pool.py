"""Persistent, reusable worker pools for experiment fan-out.

Before this module the :class:`~repro.experiments.runner.ParallelRunner`
forked a fresh ``multiprocessing.Pool`` for every batch, so a sweep, a
registry regeneration and a neighborhood fleet each paid full process
start-up (interpreter boot + imports under ``spawn``; page-table setup
under ``fork``) per call.  :func:`shared_pool` instead hands out one
long-lived :class:`WorkerPool` per ``jobs`` count:

* workers are spawned once and reused across every subsequent batch of
  the process (sweeps, ``repro regen``, neighborhood fleets);
* each worker runs :func:`_warm_worker` once at birth, pre-importing the
  whole simulation substrate (kernel, radio, scheduler, scenario catalog)
  so no batch pays import cost — where the default start method is
  ``fork``, the catalog and topology tables are additionally shared
  copy-on-write with the parent;
* dispatch is chunked (:func:`dispatch_chunksize`) instead of one task
  per IPC round-trip, bounding queue overhead for large fleets.

Determinism is untouched: work items are pure functions of their spec
(every run derives its randomness from named per-seed RNG streams), and
``Pool.map`` preserves input order regardless of chunking, so results
are bit-identical for any pool shape or reuse pattern.

Pools live until :func:`shutdown_all` (registered via ``atexit``) or
until a batch raises, in which case the pool is discarded so the next
batch starts from a clean slate.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.pool
from typing import Callable, Optional, Sequence

#: Target number of chunks handed to every worker per batch; >1 keeps
#: the pool load-balanced when per-item runtimes vary (e.g. coordinated
#: vs uncoordinated cells), while bounding per-item IPC overhead.
CHUNKS_PER_WORKER = 4


def _warm_worker() -> None:
    """Worker initializer: pre-import the simulation substrate once.

    Runs once per worker process, not once per batch; pulls in the
    kernel, radio, scheduler, scenario catalog and registry modules so
    every subsequent task starts hot.
    """
    import repro.core.system  # noqa: F401
    import repro.experiments.registry  # noqa: F401
    import repro.neighborhood.fleet  # noqa: F401


def dispatch_chunksize(n_items: int, jobs: int) -> int:
    """Batch size per IPC dispatch: ``CHUNKS_PER_WORKER`` chunks/worker."""
    return max(1, -(-n_items // (jobs * CHUNKS_PER_WORKER)))


class WorkerPool:
    """A lazily-spawned, reusable multiprocessing pool.

    ``map`` is order-preserving and chunked.  ``jobs=1`` executes
    in-process (no pickling round-trip) — the degenerate pool the
    determinism locks compare the multi-worker results against.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: Optional[multiprocessing.pool.Pool] = None
        #: generation counter, bumped on every (re)spawn — lets tests
        #: assert that consecutive batches genuinely reused one pool
        self.spawn_count = 0

    @property
    def alive(self) -> bool:
        """True while worker processes are up and accepting batches."""
        return self._pool is not None

    def _ensure(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.jobs,
                                              initializer=_warm_worker)
            self.spawn_count += 1
        return self._pool

    def map(self, func: Callable[[object], object],
            items: Sequence[object]) -> list:
        """Apply ``func`` to every item; results come back in input order.

        A failing batch (a worker dying, not a task returning an error
        value) closes the pool so the next call starts fresh.
        """
        items = list(items)
        if not items:
            return []
        if self.jobs == 1:
            return [func(item) for item in items]
        pool = self._ensure()
        try:
            return pool.map(func, items,
                            chunksize=dispatch_chunksize(len(items),
                                                         self.jobs))
        except Exception:
            self.close()
            raise

    def close(self) -> None:
        """Terminate the workers; the next ``map`` respawns them."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


#: Live pools by ``jobs``, least-recently-used first — see
#: :func:`shared_pool`.
_POOLS: dict[int, WorkerPool] = {}

#: Most pool *shapes* kept alive at once.  Every distinct ``jobs`` count
#: used to accumulate workers for the life of the process; a long
#: session cycling through shapes (sweeps at ``--jobs 4``, a fleet at
#: ``--jobs 8``, a test suite doing both) now evicts — and terminates —
#: the least recently drawn shape beyond this many.
MAX_POOL_SHAPES = 4


def shared_pool(jobs: int) -> WorkerPool:
    """The process-wide persistent pool for ``jobs`` workers.

    Every ``repro.api.run`` call draws from here, so consecutive
    experiment batches reuse the same warm workers instead of forking
    per batch.  At most :data:`MAX_POOL_SHAPES` shapes stay alive —
    drawing a new shape beyond that closes the least recently used one
    first.
    """
    pool = _POOLS.pop(jobs, None)
    if pool is None:
        while len(_POOLS) >= MAX_POOL_SHAPES:
            oldest = next(iter(_POOLS))
            _POOLS.pop(oldest).close()
        pool = WorkerPool(jobs)
    # (Re-)insert at the most-recent end: dict order is the LRU order.
    _POOLS[jobs] = pool
    return pool


def shutdown_all() -> None:
    """Terminate every shared pool (idempotent; also runs at exit).

    Tests and the CLI call this on the way out so worker processes never
    outlive the work; the next :func:`shared_pool` draw after a shutdown
    transparently respawns.
    """
    for pool in _POOLS.values():
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_all)
