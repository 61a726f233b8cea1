"""Schema-versioned validation of experiment specs with readable paths.

Every rejection is a :class:`SpecError` whose message leads with the
dotted path of the offending field — ``fleet.mix: unknown preset
'famly' (did you mean 'family'?); one of: apartments, mixed, suburb`` —
so a bad JSON document is fixable without reading this source.

Validation runs on the *raw dict* (:func:`validate_data`, called by
:meth:`repro.api.spec.ExperimentSpec.from_dict` before any dataclass is
built) and again structurally on constructed specs (:func:`validate`,
called by :func:`repro.api.run.run` so hand-built trees get the same
checks as loaded JSON).

Every flat section (``scenario``, ``control``, ``fleet``, ``forecast``,
``faults`` and each ``grid.feeders[i]``) is checked by one walker over
its dataclass's schema (:data:`repro.api.spec.SCHEMA`: keys, types,
nullability, defaults) plus :data:`FIELD_RULES`, which holds only what
a dataclass cannot say: bounds, choice lists and message nouns.
"""

from __future__ import annotations

import difflib
import importlib
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Mapping, Optional, Sequence

from repro.api.spec import (
    KINDS,
    SCHEMA,
    SCHEMA_VERSION,
    ArtefactSpec,
    ControlSpec,
    ExperimentSpec,
    FeederPlan,
    FleetPlan,
    ForecastPlan,
    GridPlan,
    ScenarioSpec,
    SweepSpec,
)
from repro.faults.plan import RATE_FIELDS, FaultPlan


class SpecError(ValueError):
    """A spec failed validation; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class FieldRule:
    """What a section dataclass cannot say about one of its fields.

    ``choices`` names the ``(module, attribute)`` holding the allowed
    values of a string field, imported on first use so the spec layer
    stays import-light and cycle-free; ``noun`` is what messages call
    a value of the field (``unknown preset 'x'``, ``must be <= 1 (a
    probability)``).
    """

    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Optional[tuple[str, str]] = None
    noun: Optional[str] = None

    @cached_property
    def known(self) -> Sequence[str]:
        """The allowed values of a ``choices`` field."""
        module, attribute = self.choices
        return getattr(importlib.import_module(module), attribute)


_SCENARIOS = "repro.workloads.scenarios"
_SYSTEM = "repro.core.system"

#: Field name → its rule, shared by every flat section declaring the
#: field (``fleet`` and each ``grid.feeders[i]`` share their build
#: knobs).  A number without an entry must be non-negative.
FIELD_RULES = {
    **dict.fromkeys(("n_devices", "demand_cycles", "batch_size",
                     "refresh_every", "calibration_rounds", "aggregation",
                     "homes", "season_epochs", "max_delay_epochs"),
                    FieldRule(minimum=1)),
    "cp_period": FieldRule(minimum=1e-9),
    "ewma_alpha": FieldRule(minimum=0, maximum=1),
    **dict.fromkeys(RATE_FIELDS,
                    FieldRule(minimum=0, maximum=1, noun="a probability")),
    "preset": FieldRule(choices=(_SCENARIOS, "SCENARIO_PRESETS"),
                        noun="preset"),
    "arrival": FieldRule(choices=(_SCENARIOS, "ARRIVAL_KINDS"),
                         noun="arrival kind"),
    "policy": FieldRule(choices=(_SYSTEM, "POLICIES"), noun="policy"),
    "cp_fidelity": FieldRule(choices=(_SYSTEM, "FIDELITIES"),
                             noun="CP fidelity"),
    "topology": FieldRule(choices=(_SYSTEM, "TOPOLOGIES"),
                          noun="topology"),
    "mix": FieldRule(choices=(_SCENARIOS, "FLEET_MIXES"), noun="preset"),
    "coordination": FieldRule(
        choices=("repro.neighborhood.federation", "COORDINATION_MODES"),
        noun="coordination mode"),
    "forecaster": FieldRule(choices=("repro.forecast", "FORECASTERS"),
                            noun="forecaster"),
}

_NON_NEGATIVE = FieldRule(minimum=0)


def field_rule(name: str) -> FieldRule:
    """The rule of a flat-section field (see :data:`FIELD_RULES`)."""
    return FIELD_RULES.get(name, _NON_NEGATIVE)


#: Dataclass → its field names: the keys a section may carry.
_KEYS = {cls: tuple(spec_field.name for spec_field in fields(cls))
         for cls in (ExperimentSpec, GridPlan, SweepSpec, ArtefactSpec,
                     *SCHEMA)}

#: Flat section dataclass → ``(name, default, type, nullable, rule)``
#: per field: everything the walker checks, computed once.
_CHECKS = {cls: tuple((spec_field.name, spec_field.default,
                       spec_field.type, spec_field.nullable,
                       field_rule(spec_field.name))
                      for spec_field in schema)
           for cls, schema in SCHEMA.items()}


def _suggest(value: str, known: Sequence[str]) -> str:
    """`` (did you mean 'x'?)`` when a close match exists, else ``''``."""
    matches = difflib.get_close_matches(value, list(known), n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def _unknown(value: str, what: str, known: Sequence[str]) -> str:
    choices = ", ".join(sorted(str(item) for item in known))
    return (f"unknown {what} {value!r}{_suggest(value, known)}; "
            f"one of: {choices}")


def _check_keys(data: Mapping[str, Any], allowed: Sequence[str],
                path: str) -> None:
    for key in data:
        if key not in allowed:
            prefix = f"{path}.{key}" if path else str(key)
            raise SpecError(prefix,
                            f"unknown field{_suggest(str(key), allowed)}")


def _number(value, path: str, minimum: Optional[float] = None,
            allow_none: bool = False, integer: bool = False) -> None:
    if value is None:
        if allow_none:
            return
        raise SpecError(path, "must not be null")
    if isinstance(value, bool) or not isinstance(
            value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise SpecError(path, f"must be {kind}, got {value!r}")
    if not math.isfinite(value):
        # NaN/Infinity would defeat the minimum check below AND are not
        # representable in strict JSON, so the canonical form (and every
        # provenance block hashed from it) would stop being parseable.
        raise SpecError(path, f"must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise SpecError(path, f"must be >= {minimum:g}, got {value!r}")


def _string(value, path: str) -> None:
    if not isinstance(value, str):
        raise SpecError(path, f"must be a string, got {value!r}")


def _choice(value, path: str, what: str, known: Sequence[str]) -> None:
    _string(value, path)
    if value not in known:
        raise SpecError(path, _unknown(value, what, known))


def _section(data, path: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise SpecError(path, f"must be an object, got {data!r}")
    return data


def _check_value(value, kind: type, nullable: bool, rule: FieldRule,
                 path: str) -> None:
    """One value against its field's type, nullability and rule."""
    if value is None and nullable:
        return
    if kind is str:
        if rule.choices is None:
            _string(value, path)
        else:
            _choice(value, path, rule.noun, rule.known)
        return
    _number(value, path, minimum=rule.minimum, integer=kind is int)
    if rule.maximum is not None and value > rule.maximum:
        noun = f" ({rule.noun})" if rule.noun else ""
        raise SpecError(path, f"must be <= {rule.maximum:g}{noun}, "
                              f"got {value!r}")


def _validate_section(data, section_cls, path: str) -> None:
    """The one validator of every flat section: keys, then each field
    (absent fields are checked at their dataclass default)."""
    data = _section(data, path)
    _check_keys(data, _KEYS[section_cls], path)
    for name, default, kind, nullable, rule in _CHECKS[section_cls]:
        _check_value(data.get(name, default), kind, nullable, rule,
                     f"{path}.{name}")


def _validate_grid(data: Mapping[str, Any]) -> None:
    from repro.neighborhood.grid import GRID_COORDINATION_MODES
    _check_keys(data, _KEYS[GridPlan], "grid")
    feeders = data.get("feeders")
    if not isinstance(feeders, (list, tuple)) or not feeders:
        raise SpecError("grid.feeders",
                        f"must be a non-empty list of feeder objects, "
                        f"got {feeders!r}")
    for index, feeder in enumerate(feeders):
        _validate_section(feeder, FeederPlan, f"grid.feeders[{index}]")
    _choice(data.get("coordination", GridPlan.coordination),
            "grid.coordination", "grid coordination mode",
            GRID_COORDINATION_MODES)


def _validate_sweep(data: Mapping[str, Any]) -> None:
    _check_keys(data, _KEYS[SweepSpec], "sweep")
    rates = data.get("rates", SweepSpec.rates)
    if not isinstance(rates, (list, tuple)):
        raise SpecError("sweep.rates", f"must be a list, got {rates!r}")
    for index, rate in enumerate(rates):
        _check_value(rate, float, False, field_rule("rate_per_hour"),
                     f"sweep.rates[{index}]")
    policies = data.get("policies", SweepSpec.policies)
    if not isinstance(policies, (list, tuple)) or not policies:
        raise SpecError("sweep.policies",
                        f"must be a non-empty list, got {policies!r}")
    for index, policy in enumerate(policies):
        _check_value(policy, str, False, field_rule("policy"),
                     f"sweep.policies[{index}]")


def _json_safe(value, path: str) -> None:
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _json_safe(item, f"{path}[{index}]")
        return
    if isinstance(value, Mapping):
        for key, item in value.items():
            if not isinstance(key, str):
                raise SpecError(path, f"object keys must be strings, "
                                      f"got {key!r}")
            _json_safe(item, f"{path}.{key}")
        return
    raise SpecError(path, f"value {value!r} is not JSON-serializable")


def _validate_artefact(data: Mapping[str, Any]) -> None:
    import inspect

    from repro.api.compile import ARTEFACTS, resolve_artefact
    _check_keys(data, _KEYS[ArtefactSpec], "artefact")
    kind = data.get("kind")
    _choice(kind, "artefact.kind", "artefact kind", ARTEFACTS)
    params = data.get("params", {})
    if not isinstance(params, Mapping):
        raise SpecError("artefact.params",
                        f"must be an object, got {params!r}")
    signature = inspect.signature(resolve_artefact(kind))
    for key, value in params.items():
        if not isinstance(key, str) or key not in signature.parameters:
            known = list(signature.parameters)
            raise SpecError(f"artefact.params.{key}",
                            f"unknown parameter for {kind!r}"
                            f"{_suggest(str(key), known)}; "
                            f"accepts: {', '.join(known)}")
        _json_safe(value, f"artefact.params.{key}")


#: Each kind-bound section → the one kind it belongs to (required there,
#: absent everywhere else — a spec never carries dead configuration) and
#: its validator, in the order the sections are checked.
_KIND_SECTIONS = {
    "fleet": ("neighborhood",
              lambda data: _validate_section(data, FleetPlan, "fleet")),
    "grid": ("grid", _validate_grid),
    "sweep": ("sweep", _validate_sweep),
    "artefact": ("artefact", _validate_artefact),
}


def _coordination(data: Mapping[str, Any]) -> str:
    """The fleet coordination mode a spec dict selects."""
    fleet = data.get("fleet") or {}
    return fleet.get("coordination", FleetPlan.coordination)


def validate_data(data: Mapping[str, Any]) -> None:
    """Validate a raw spec dict (parsed JSON) against the schema.

    Raises :class:`SpecError` on the first problem, with the dotted path
    of the offending field in the message.
    """
    if not isinstance(data, Mapping):
        raise SpecError("", f"spec must be an object, got {data!r}")
    _check_keys(data, _KEYS[ExperimentSpec], "")
    version = data.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise SpecError("schema_version",
                        f"must be an integer, got {version!r}")
    if version != SCHEMA_VERSION:
        raise SpecError("schema_version",
                        f"unsupported schema version {version} "
                        f"(this build reads version {SCHEMA_VERSION})")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError("name", f"must be a non-empty string, got {name!r}")
    kind = data.get("kind", ExperimentSpec.kind)
    if kind not in KINDS:
        raise SpecError("kind", _unknown(str(kind), "kind", KINDS))
    _validate_section(data.get("scenario", {}), ScenarioSpec, "scenario")
    _validate_section(data.get("control", {}), ControlSpec, "control")
    seeds = data.get("seeds", ExperimentSpec.seeds)
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise SpecError("seeds",
                        f"must be a non-empty list of integers, "
                        f"got {seeds!r}")
    for index, seed in enumerate(seeds):
        _number(seed, f"seeds[{index}]", minimum=0, integer=True)
    _number(data.get("until_s"), "until_s", minimum=0.0, allow_none=True)

    _reject_dead_fields(data, kind)

    for section_name, (section_kind, validator) in _KIND_SECTIONS.items():
        section_data = data.get(section_name)
        if section_kind == kind:
            if section_data is None:
                raise SpecError(section_name,
                                f"required for kind {kind!r}")
            validator(_section(section_data, section_name))
        elif section_data is not None:
            raise SpecError(section_name,
                            f"only valid for kind {section_kind!r}"
                            f", this spec has kind {kind!r}")

    forecast_data = data.get("forecast")
    if forecast_data is not None:
        # The forecast section only feeds the online epoch loop; on any
        # other shape it would be dead configuration perturbing the hash.
        coordination = _coordination(data)
        if kind != "neighborhood" or coordination != "online":
            raise SpecError(
                "forecast",
                "only valid for kind 'neighborhood' with "
                f"fleet.coordination 'online'; this spec has kind "
                f"{kind!r} with coordination {coordination!r}")
        _validate_section(forecast_data, ForecastPlan, "forecast")

    faults_data = data.get("faults")
    if faults_data is not None:
        faults_data = _section(faults_data, "faults")
        # Fault injection exercises the fleet execution paths (workers,
        # transport, telemetry); on single/sweep/artefact shapes the
        # sites never run, so the section would be dead configuration.
        if kind not in ("neighborhood", "grid"):
            raise SpecError(
                "faults",
                "only valid for kinds 'neighborhood' and 'grid'; this "
                f"spec has kind {kind!r}")
        _validate_section(faults_data, FaultPlan, "faults")
        if any(faults_data.get(name, getattr(FaultPlan, name)) > 0
               for name in ("telemetry_drop", "telemetry_delay",
                            "telemetry_dup")):
            coordination = _coordination(data)
            if coordination != "online":
                raise SpecError(
                    "faults",
                    "telemetry fault rates only apply to "
                    "fleet.coordination 'online' (the telemetry plane "
                    "only runs there); this spec has coordination "
                    f"{coordination!r}")


def _reject_non_default(data: Mapping[str, Any], section_cls,
                        section: str, kind: str, hint: str) -> None:
    for key, value in data.items():
        if value != getattr(section_cls, key):
            raise SpecError(f"{section}.{key}",
                            f"not applicable to kind {kind!r} ({hint})")


def _reject_dead_fields(data: Mapping[str, Any], kind: str) -> None:
    """Refuse configuration the kind's execution path would ignore.

    A field the compiler never reads would still perturb the spec hash,
    so two documents that execute identically would get different
    provenance — and a reader would believe configuration that was never
    applied.  The same no-dead-configuration rule that forbids, say, a
    ``sweep`` section on a neighborhood spec therefore extends to the
    individual shared fields each kind ignores.
    """
    scenario = data.get("scenario", {})
    control = data.get("control", {})
    seeds = data.get("seeds", ExperimentSpec.seeds)
    if kind in ("neighborhood", "grid"):
        # Homes draw their workloads from the fleet mix's archetypes;
        # only the shared horizon crosses into the fleet build.
        for key, value in scenario.items():
            if key == "horizon_s" or value == getattr(ScenarioSpec, key):
                continue
            raise SpecError(
                f"scenario.{key}",
                f"not applicable to kind {kind!r} (homes draw "
                "their workloads from the fleet mix; only "
                "scenario.horizon_s applies)")
        if len(seeds) > 1:
            raise SpecError(
                "seeds",
                f"kind {kind!r} uses a single root seed (per-feeder and "
                "per-home seeds derive from it); got "
                f"{len(seeds)} seeds")
    elif kind == "sweep":
        if control.get("policy", ControlSpec.policy) != ControlSpec.policy:
            raise SpecError(
                "control.policy",
                "not applicable to kind 'sweep' (vary policies via "
                "sweep.policies)")
        sweep = _section(data.get("sweep") or {}, "sweep")
        if sweep.get("rates") and \
                scenario.get("rate_per_hour") is not None:
            raise SpecError(
                "scenario.rate_per_hour",
                "dead under a non-empty sweep.rates axis (each cell's "
                "rate comes from the axis)")
    elif kind == "artefact":
        hint = "artefact generators configure themselves via " \
               "artefact.params"
        _reject_non_default(scenario, ScenarioSpec, "scenario", kind, hint)
        _reject_non_default(control, ControlSpec, "control", kind, hint)
        if tuple(seeds) != ExperimentSpec.seeds:
            raise SpecError("seeds", f"not applicable to kind {kind!r} "
                                     f"({hint})")
        if data.get("until_s") is not None:
            raise SpecError("until_s", f"not applicable to kind {kind!r} "
                                       f"({hint})")


def validate(spec) -> None:
    """Validate a constructed :class:`~repro.api.spec.ExperimentSpec`.

    Serializes to the canonical dict and runs :func:`validate_data`, so
    hand-built trees face exactly the checks loaded JSON does.
    """
    validate_data(spec.to_dict())
