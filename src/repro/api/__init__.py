"""One front door for every experiment: declarative, serializable specs.

One home, a (rate, policy, seed) sweep grid, a sharded fleet, a
two-tier grid and a registry artefact are one pipeline.  This package
is its single declarative API:

* :class:`~repro.api.spec.ExperimentSpec` — the experiment as *data*,
  JSON round-trippable (``spec.to_json()`` /
  ``ExperimentSpec.from_json()``) with schema-versioned validation and
  readable error paths (:mod:`repro.api.validate`);
* :mod:`repro.api.compile` — specs compile to today's
  ``HanConfig`` / ``RunSpec`` / fleet objects;
* :func:`~repro.api.run.run` — one call executes any spec over N
  workers and returns a uniform :class:`~repro.api.run.Result` with
  provenance (spec hash, seeds, code version).

Quickstart::

    from repro.api import ExperimentSpec, run

    spec = ExperimentSpec.from_json('''{
        "name": "demo", "kind": "single",
        "scenario": {"preset": "paper-high"},
        "control": {"policy": "coordinated", "cp_fidelity": "round"},
        "seeds": [1]
    }''')
    result = run(spec, jobs=1)
    print(result.stats()[0].peak_kw, result.provenance.short_hash)

See ``docs/experiment-spec.md`` for the full schema and the migration
table from the 1.x call sites (removed in 2.0).
"""

from repro.api.cache import CacheEntry, ResultCache, resolve_cache
from repro.api.compile import (
    ARTEFACTS,
    compile_config,
    compile_fleet,
    compile_run_specs,
    compile_scenario,
    resolve_artefact,
)
from repro.api.run import Provenance, Result, provenance_of, run
from repro.api.spec import (
    KINDS,
    SCHEMA_VERSION,
    ArtefactSpec,
    ControlSpec,
    ExperimentSpec,
    FleetPlan,
    ForecastPlan,
    ScenarioSpec,
    SweepSpec,
    canonical_json,
    spec_from_config,
    spec_from_scenario,
    spec_hash,
)
from repro.api.validate import SpecError, validate, validate_data

__all__ = [
    "ARTEFACTS",
    "ArtefactSpec",
    "CacheEntry",
    "ControlSpec",
    "ExperimentSpec",
    "FleetPlan",
    "ForecastPlan",
    "KINDS",
    "Provenance",
    "Result",
    "ResultCache",
    "SCHEMA_VERSION",
    "ScenarioSpec",
    "SpecError",
    "SweepSpec",
    "canonical_json",
    "compile_config",
    "compile_fleet",
    "compile_run_specs",
    "compile_scenario",
    "provenance_of",
    "resolve_artefact",
    "resolve_cache",
    "run",
    "spec_from_config",
    "spec_from_scenario",
    "spec_hash",
    "validate",
    "validate_data",
]
