"""The one execution call: ``run(spec, jobs=...) -> Result``.

Whatever the spec's kind — one home, a sweep grid, a neighborhood fleet
or a registry artefact — execution funnels through here: the spec is
re-validated, compiled (:mod:`repro.api.compile`) and fanned out over
the :class:`~repro.experiments.runner.ParallelRunner`, and the outcome
comes back in one uniform :class:`Result` envelope carrying the
provenance (spec hash, canonical JSON, seeds, code version) every
exported artefact is stamped with.

Determinism: all randomness in a run derives from the spec's seeds via
named streams, so ``run(spec)`` is bit-identical for any ``jobs`` count
— and two specs with equal canonical JSON produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.analysis.loadstats import LoadStats
from repro.api.compile import (
    compile_fleet,
    compile_run_specs,
    resolve_artefact,
)
from repro.api.spec import ExperimentSpec, canonical_json, spec_hash
from repro.api.validate import validate
from repro.core.system import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.cache import CacheLike


@dataclass(frozen=True)
class Provenance:
    """Everything needed to regenerate (or audit) a result.

    Stamped on every :class:`Result` and embedded by the JSON/CSV
    exporters, so an artefact file is self-describing: load the
    ``spec_json``, re-run, compare hashes.
    """

    #: SHA-256 of the spec's canonical JSON (:func:`~repro.api.spec.spec_hash`)
    spec_hash: str
    #: the canonical JSON itself — the experiment, regenerable as data
    spec_json: str
    #: serialized-layout version the spec was validated against
    schema_version: int
    #: ``repro.__version__`` of the code that produced the result
    code_version: str
    #: root seeds the run drew its named RNG streams from (artefact
    #: kinds seed via their generator params; the validator pins this
    #: field to its default there so it can never misstate a seed)
    seeds: tuple[int, ...]

    @property
    def short_hash(self) -> str:
        """First 12 hex digits — enough to eyeball, short enough to print."""
        return self.spec_hash[:12]


@dataclass
class Result:
    """Uniform envelope for every run shape.

    Exactly one payload field is populated, by kind: ``runs`` (single and
    sweep — flat, in compile order), ``neighborhood``, ``grid``, or
    ``artefact``.  The accessors below reshape ``runs`` into the
    per-policy / per-rate views the analysis layer works with.
    """

    spec: ExperimentSpec
    provenance: Provenance
    runs: list[RunResult] = field(default_factory=list)
    neighborhood: Optional[object] = None
    grid: Optional[object] = None
    artefact: Optional[object] = None

    def run_result(self) -> RunResult:
        """The one run of a single-kind, single-seed spec."""
        if len(self.runs) != 1:
            raise ValueError(
                f"expected exactly one run, have {len(self.runs)} "
                f"(kind {self.spec.kind!r}, seeds {self.spec.seeds})")
        return self.runs[0]

    def stats(self) -> list[LoadStats]:
        """Per-run load statistics, in run order."""
        return [run.stats(end=self.spec.until_s) for run in self.runs]

    def by_policy(self) -> dict:
        """Runs grouped per policy: ``{policy: PolicyOutcome}``."""
        from repro.experiments.runner import PolicyOutcome
        policies = self.spec.sweep.policies if self.spec.sweep is not None \
            else (self.spec.control.policy,)
        outcomes = {policy: PolicyOutcome(policy) for policy in policies}
        for run in self.runs:
            outcomes[run.config.policy].results.append(run)
        return outcomes

    def sweep_table(self) -> dict:
        """Runs grouped rate → policy: ``{rate: {policy: outcome}}``."""
        from repro.experiments.runner import PolicyOutcome
        if self.spec.sweep is None or not self.spec.sweep.rates:
            raise ValueError("spec has no rate axis; use by_policy()")
        policies = self.spec.sweep.policies
        table = {rate: {policy: PolicyOutcome(policy)
                        for policy in policies}
                 for rate in self.spec.sweep.rates}
        for run in self.runs:
            rate = run.config.scenario.arrival_rate_per_hour
            table[rate][run.config.policy].results.append(run)
        return table

    def portable(self) -> "Result":
        """A picklable copy (per-run live agents dropped) for transport."""
        return replace(self, runs=[run.portable() for run in self.runs])

    def render(self) -> str:
        """Plain-text report of whatever the spec produced."""
        from repro.analysis.report import format_table
        footer = (f"spec {self.provenance.short_hash} · schema "
                  f"v{self.provenance.schema_version} · repro "
                  f"{self.provenance.code_version}")
        if self.artefact is not None:
            body = self.artefact.text
        elif self.neighborhood is not None:
            body = self.neighborhood.render()
        elif self.grid is not None:
            body = self.grid.render()
        else:
            rows = [[run.config.seed,
                     run.config.policy,
                     run.config.scenario.arrival_rate_per_hour,
                     stats.peak_kw, stats.mean_kw, stats.std_kw,
                     stats.energy_kwh]
                    for run, stats in zip(self.runs, self.stats())]
            body = format_table(
                ["seed", "policy", "rate/h", "peak kW", "mean kW",
                 "std kW", "energy kWh"],
                rows, title=f"{self.spec.name} ({self.spec.kind}, "
                            f"{len(self.runs)} runs)")
        return f"{body}\n\n{footer}"


def provenance_of(spec: ExperimentSpec) -> Provenance:
    """Compute the provenance stamp of a spec (without running it)."""
    import repro
    return Provenance(spec_hash=spec_hash(spec),
                      spec_json=canonical_json(spec),
                      schema_version=spec.schema_version,
                      code_version=repro.__version__,
                      seeds=tuple(spec.seeds))


#: What ``run(spec, executor=...)`` accepts: ``"local"`` (in-process,
#: the default), ``"service"`` (route through the durable job queue of
#: :mod:`repro.service` — requires worker daemons on the store), or any
#: object with a ``run(spec) -> Result`` method (e.g. a
#: :class:`~repro.service.client.ServiceClient` bound to a specific
#: store).
EXECUTORS = ("local", "service")


def run(spec: ExperimentSpec, jobs: int = 1,
        cache: "CacheLike" = None,
        shard_size: Optional[int] = None,
        executor="local") -> Result:
    """Validate, compile and execute a spec; the API's only verb.

    ``jobs`` fans independent units (seed cells, sweep cells,
    neighborhood homes) over the persistent worker pool
    (:func:`repro.experiments.pool.shared_pool` — spawned on first use,
    reused by every later call with the same shape); results are
    bit-identical for any value.  Artefact kinds forward ``jobs`` to
    generators that accept it.

    ``cache`` memoizes the whole call on ``(spec_hash, code_version)``
    (see :mod:`repro.api.cache`): ``True`` uses the default on-disk
    store, a :class:`~repro.api.cache.ResultCache` uses that store, and
    ``None``/``False`` (default) disables caching.  A hit returns the
    stored result without executing anything; because runs are
    bit-deterministic, hits and fresh runs are indistinguishable.

    ``shard_size`` sets the homes per shard of neighborhood and grid
    execution (see :mod:`repro.neighborhood.shard`; ``None`` = auto,
    else ``>= 1``): like ``jobs`` it is a pure execution knob, and every
    setting produces bit-identical results.

    ``executor`` selects *where* the spec executes (:data:`EXECUTORS`):
    ``"local"`` runs in this process as always; ``"service"`` submits
    to the default service store's durable queue and blocks for the
    artifact (dedup and crash recovery included — see
    :mod:`repro.service`); an object with ``run(spec)`` is called
    directly (a :class:`~repro.service.client.ServiceClient` bound to a
    specific store).  Execution location can never change a result bit:
    runs are deterministic and service artifacts are produced by this
    very function on the worker side.
    """
    from repro.api.cache import resolve_cache
    if executor != "local":
        if executor == "service":
            from repro.service.client import ServiceClient
            executor = ServiceClient()
        if not hasattr(executor, "run"):
            known = ", ".join(EXECUTORS)
            raise TypeError(
                f"executor must be one of {known} or have a run() "
                f"method, got {executor!r}")
        return executor.run(spec)
    validate(spec)
    provenance = provenance_of(spec)
    store = resolve_cache(cache)
    # The fault scope covers the cache lookup too, not just execution:
    # a spec whose plan corrupts artifact reads must see its own cached
    # result degrade to a recompute (the ``cache.corrupt`` site).
    from repro.faults import fault_scope
    with fault_scope(spec.faults):
        if store is not None:
            hit = store.get(spec, spec_digest=provenance.spec_hash)
            if hit is not None:
                return hit
        result = _execute(spec, provenance, jobs, shard_size)
        if store is not None:
            store.put(spec, result, spec_digest=provenance.spec_hash)
    return result


def _execute(spec: ExperimentSpec, provenance: Provenance, jobs: int,
             shard_size: Optional[int],
             shard_executor=None) -> Result:
    """Run a validated spec: the cache-miss path of :func:`run`, and
    of :func:`repro.service.worker.execute_job` with its checkpointing
    ``shard_executor``.  Both callers hold the spec's fault scope."""
    from repro.experiments.runner import ParallelRunner
    if spec.kind in ("single", "sweep"):
        runner = ParallelRunner(jobs=jobs)
        runs = runner.run(compile_run_specs(spec))
        return Result(spec=spec, provenance=provenance, runs=runs)
    if spec.kind == "neighborhood":
        from repro.neighborhood.federation import execute_fleet
        fleet = compile_fleet(spec)
        neighborhood = execute_fleet(
            fleet, jobs=jobs, until=spec.until_s,
            coordination=spec.fleet.coordination, spec=spec,
            shard_size=shard_size, shard_executor=shard_executor,
            forecast=spec.forecast)
        return Result(spec=spec, provenance=provenance,
                      neighborhood=neighborhood)
    if spec.kind == "grid":
        from repro.api.compile import compile_grid
        from repro.neighborhood.grid import execute_grid
        grid = compile_grid(spec)
        payload = execute_grid(
            grid, jobs=jobs, until=spec.until_s,
            coordination=spec.grid.coordination, spec=spec,
            shard_size=shard_size, shard_executor=shard_executor)
        return Result(spec=spec, provenance=provenance, grid=payload)
    # artefact
    import inspect
    generator = resolve_artefact(spec.artefact.kind)
    params = dict(spec.artefact.params)
    if jobs > 1 and "jobs" in inspect.signature(generator).parameters:
        params.setdefault("jobs", jobs)
    return Result(spec=spec, provenance=provenance,
                  artefact=generator(**params))
