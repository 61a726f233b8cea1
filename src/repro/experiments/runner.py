"""Experiment orchestration: policy comparisons over seed replications.

The :class:`ParallelRunner` fans independently seeded runs — registry
entries, (policy, seed) grids, neighborhood homes — out over the
persistent worker pool of :mod:`repro.experiments.pool`.  Every run
derives all randomness from its own
:class:`~repro.sim.rng.RandomStreams` root seed through order-independent
named streams, so results are bit-identical no matter how many workers
execute the batch, in which order they finish, or whether the pool was
freshly spawned or reused from an earlier batch.

Units of work are picklable :class:`RunSpec` values; worker failures
surface as :class:`WorkerFailure` carrying the failing run's *name* plus
its traceback.  Higher-level grids (sweep specs compiled by
:func:`repro.api.compile.compile_run_specs`, :func:`run_registry`)
flatten every cell into one batch so wall-clock is bounded by the
slowest single run.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.analysis.loadstats import LoadStats, load_stats, mean_and_std
from repro.core.system import HanConfig, RunResult, execute_config
from repro.experiments.pool import shared_pool


class WorkerFailure(RuntimeError):
    """A fanned-out run raised; carries the failing run's name.

    The original traceback text rides along so the parent process can show
    *where* the worker died, not just that it did.
    """

    def __init__(self, name: str, detail: str):
        super().__init__(f"run {name!r} failed in worker:\n{detail}")
        self.name = name
        self.detail = detail


@dataclass(frozen=True)
class RunSpec:
    """One picklable unit of work: a named, fully-specified experiment."""

    name: str
    config: HanConfig
    until: Optional[float] = None


def _execute_run_spec(spec: RunSpec) -> tuple:
    """Worker body for :meth:`ParallelRunner.run` (module-level: picklable).

    Failures are returned as data, not raised: exception instances don't
    always survive pickling, a ``(status, name, payload)`` triple always
    does.
    """
    try:
        result = execute_config(spec.config, until=spec.until)
        return ("ok", spec.name, result.portable())
    except Exception:
        return ("err", spec.name, traceback.format_exc())


def _execute_registry_entry(item: tuple) -> tuple:
    """Worker body for :meth:`ParallelRunner.regenerate`.

    ``item`` is ``(exp_id, cache)`` — the experiment id plus the (possibly
    ``None``) :class:`~repro.api.cache.ResultCache` to consult.  The
    worker executes the entry's :class:`~repro.api.spec.ExperimentSpec`
    through the spec API — the same path ``repro run --spec`` takes,
    including the result cache.
    """
    exp_id, cache = item
    from repro.api import run as run_spec
    from repro.experiments.registry import get
    try:
        return ("ok", exp_id,
                run_spec(get(exp_id).spec, cache=cache).artefact)
    except Exception:
        return ("err", exp_id, traceback.format_exc())


def fan_out(worker: Callable[[object], tuple], items: Sequence[object],
            jobs: int = 1) -> list[tuple]:
    """Map a worker body over ``items``, results in input order.

    ``worker`` must be module-level picklable and return the
    ``("ok"|"err", name, payload)`` triples the built-in bodies use
    (failures as data — tracebacks always survive pickling).  ``jobs=1``
    (or a single item) runs in-process; otherwise the items go to the
    persistent :func:`~repro.experiments.pool.shared_pool` of ``jobs``
    workers.  The triples come back **raw**: the fleet shard executor
    (:mod:`repro.neighborhood.shard`) pairs each with its shard to
    unpack frames and re-execute a lost one before surfacing an error
    triple as :class:`WorkerFailure`.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    if not items:
        return []
    if jobs == 1 or len(items) == 1:
        return [worker(item) for item in items]
    return shared_pool(jobs).map(worker, items)


class ParallelRunner:
    """Order-preserving fan-out of independent runs over worker processes.

    ``jobs > 1`` draws a persistent pool from
    :func:`repro.experiments.pool.shared_pool`, so consecutive batches
    reuse warm workers instead of forking per batch.  ``jobs=1``
    executes in-process (no pickling round-trip), which the determinism
    tests exploit: the same specs must produce bit-identical results
    under 1 worker, N workers, and a reused pool.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        """Execute every spec; results come back in input order."""
        return self._map(_execute_run_spec, list(specs))

    def regenerate(self, exp_ids: Sequence[str],
                   cache: Optional[object] = None) -> list[object]:
        """Regenerate registry artefacts (figures/ablations) by id.

        ``cache`` (a :class:`~repro.api.cache.ResultCache`, or ``None``)
        rides along to every worker, so entries are served from /
        stored to the result cache.
        """
        return self._map(_execute_registry_entry,
                         [(exp_id, cache) for exp_id in exp_ids])

    def execute(self, worker: Callable[[object], tuple],
                items: Sequence[object]) -> list[tuple]:
        """:func:`fan_out` over this runner's jobs: the triples come
        back raw, unlike :meth:`run`."""
        return fan_out(worker, items, self.jobs)

    def _map(self, worker: Callable[[object], tuple],
             items: list) -> list:
        results = []
        for status, name, payload in fan_out(worker, items, self.jobs):
            if status == "err":
                raise WorkerFailure(name, payload)
            results.append(payload)
        return results


def run_registry(exp_ids: Optional[Sequence[str]] = None,
                 jobs: int = 1,
                 cache: Optional[object] = None) -> list[tuple[str, object]]:
    """Regenerate registry entries (all of them by default), in parallel.

    Returns ``(exp_id, artefact)`` pairs in id order.  Unknown ids raise
    ``KeyError`` up front, before any work is spawned.  ``cache`` is
    forwarded to every spec execution (see
    :func:`repro.api.run.run`); ``repro regen`` passes the default
    on-disk cache so unchanged artefacts regenerate near-instantly.
    """
    from repro.experiments.registry import all_experiments, get
    if exp_ids:
        ids = [get(exp_id).exp_id for exp_id in exp_ids]
    else:
        ids = [entry.exp_id for entry in all_experiments()]
    artefacts = ParallelRunner(jobs=jobs).regenerate(ids, cache=cache)
    return list(zip(ids, artefacts))


@dataclass
class PolicyOutcome:
    """Per-policy aggregation over seeds."""

    policy: str
    results: list[RunResult] = field(default_factory=list)

    def stats(self) -> list[LoadStats]:
        """Per-seed :class:`~repro.analysis.loadstats.LoadStats`."""
        return [r.stats() for r in self.results]

    def metric(self, name: str) -> tuple[float, float]:
        """Mean ± std of one LoadStats field across seeds."""
        values = [getattr(s, name) for s in self.stats()]
        return mean_and_std(values)

