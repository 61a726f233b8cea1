"""The declarative experiment specification tree.

An :class:`ExperimentSpec` is the single front door to every run shape
this repository supports — one home, a (rates x policies x seeds) sweep,
a neighborhood fleet behind one feeder, or a registry artefact — as plain
*data*: it round-trips losslessly through JSON
(:meth:`ExperimentSpec.to_json` / :meth:`ExperimentSpec.from_json`), is
validated with readable error paths (``fleet.mix: unknown preset
'famly'``; see :mod:`repro.api.validate`), compiles down to the concrete
:class:`~repro.core.system.HanConfig` / fleet objects
(:mod:`repro.api.compile`) and executes through one call
(:func:`repro.api.run.run`).

Layout of the tree::

    ExperimentSpec
    ├── kind: "single" | "sweep" | "neighborhood" | "grid" | "artefact"
    ├── scenario: ScenarioSpec   (preset + per-field overrides)
    ├── control:  ControlSpec    (policy, CP fidelity, radio knobs)
    ├── seeds / until_s
    ├── fleet:    FleetPlan      (neighborhood runs only)
    ├── forecast: ForecastPlan   (online-coordinated neighborhoods only)
    ├── faults:   FaultPlan      (seeded fault injection, optional)
    ├── grid:     GridPlan (multi-feeder grid runs only)
    │   └── feeders: (FeederPlan, ...)
    ├── sweep:    SweepSpec      (sweep runs only)
    └── artefact: ArtefactSpec   (registry artefacts only)

Each section dataclass is the one place its fields' names, types and
defaults are written: :data:`SCHEMA` derives them once from the
dataclass, and the validator, the serializer and the compiler read it.

Every field carries the same units as its compiled counterpart (seconds,
watts), so compiling a spec and re-deriving a spec from the compiled
object (:func:`spec_from_config`) are exact inverses.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Optional

from repro.faults.plan import FaultPlan

#: Version of the serialized layout; bumped on incompatible changes so a
#: stored spec is never silently misread.
SCHEMA_VERSION = 1

#: The five run shapes a spec can describe.
KINDS = ("single", "sweep", "neighborhood", "grid", "artefact")


@dataclass(frozen=True)
class ScenarioSpec:
    """Workload selection: a named preset plus per-field overrides.

    ``preset`` names an entry of
    :data:`repro.workloads.scenarios.SCENARIO_PRESETS`; every other field
    overrides the preset when not ``None``.  With ``preset=None`` the
    overrides apply on top of the :class:`~repro.workloads.scenarios.Scenario`
    defaults, which makes *any* scenario expressible declaratively.
    """

    preset: Optional[str] = "paper-high"
    name: Optional[str] = None
    n_devices: Optional[int] = None
    device_power_w: Optional[float] = None
    min_dcd_s: Optional[float] = None
    max_dcp_s: Optional[float] = None
    rate_per_hour: Optional[float] = None
    horizon_s: Optional[float] = None
    demand_cycles: Optional[int] = None
    arrival: Optional[str] = None
    batch_size: Optional[int] = None
    notes: Optional[str] = None


@dataclass(frozen=True)
class ControlSpec:
    """Coordination policy, CP fidelity and the radio/topology knobs.

    Field-for-field the non-scenario, non-seed half of
    :class:`~repro.core.system.HanConfig`, so the two convert losslessly.
    """

    policy: str = "coordinated"
    cp_fidelity: str = "round"
    cp_period: float = 2.0
    topology: str = "flocklab26"
    refresh_every: int = 15
    calibration_rounds: int = 20
    shadowing_sigma_db: float = 3.0
    path_loss_exponent: Optional[float] = None
    ci_derating: Optional[float] = None
    aggregation: int = 2
    controller_id: int = 0


@dataclass(frozen=True)
class FleetPlan:
    """Neighborhood section: how to build and coordinate the fleet.

    Compiles through :func:`repro.neighborhood.fleet.build_fleet`; the
    fleet seed is the spec's first entry of ``seeds``.
    """

    homes: int = 20
    mix: str = "suburb"
    coordination: str = "independent"
    rate_jitter: float = 0.25
    size_jitter: float = 0.2


@dataclass(frozen=True)
class ForecastPlan:
    """Forecast section: per-home prediction for ``online`` coordination.

    Only valid on a ``neighborhood`` spec whose
    ``fleet.coordination`` is ``"online"`` — on any other shape it is
    dead configuration and the validator rejects it.  The online loop
    takes it as is: :data:`repro.neighborhood.online.ForecastConfig` is
    this class under its neighborhood-layer name.
    """

    forecaster: str = "oracle"
    noise: float = 0.0
    noise_seed: int = 1
    ewma_alpha: float = 0.5
    season_epochs: int = 1


@dataclass(frozen=True)
class FeederPlan:
    """One feeder of a grid: a fleet build minus the coordination mode.

    Same build knobs and defaults as :class:`FleetPlan` (they compile
    through the same :func:`repro.neighborhood.fleet.build_fleet`);
    coordination lives on
    the enclosing :class:`GridPlan` because it is a property of the grid,
    not of one feeder.  Feeder ``i`` builds with
    :func:`repro.neighborhood.grid.feeder_seed` of the spec seed — feeder
    0 inherits the root seed, so a single-feeder grid reproduces the
    ``neighborhood`` kind bit-for-bit.
    """

    homes: int = FleetPlan.homes
    mix: str = FleetPlan.mix
    rate_jitter: float = FleetPlan.rate_jitter
    size_jitter: float = FleetPlan.size_jitter


@dataclass(frozen=True)
class GridPlan:
    """Grid section: feeders under one substation, plus the tier policy.

    ``coordination`` is one of
    :data:`repro.neighborhood.grid.GRID_COORDINATION_MODES`:
    ``"independent"`` (no negotiation anywhere), ``"feeder"`` (today's
    per-feeder CP rounds, nothing above), or ``"substation"`` (per-feeder
    rounds, then feeder-level envelopes negotiate at the substation
    tier).
    """

    feeders: tuple[FeederPlan, ...] = (FeederPlan(),)
    coordination: str = "independent"


@dataclass(frozen=True)
class SweepSpec:
    """Sweep axes: arrival rates x policies (seeds ride on the spec).

    An empty ``rates`` tuple sweeps policies only (read it back with
    :meth:`~repro.api.run.Result.by_policy`); otherwise every (rate,
    policy, seed) cell becomes one run (the Figure 2(b)/(c) shape, read
    back with :meth:`~repro.api.run.Result.sweep_table`).
    """

    rates: tuple[float, ...] = ()
    policies: tuple[str, ...] = ("coordinated", "uncoordinated")


@dataclass(frozen=True)
class ArtefactSpec:
    """A registry artefact: generator family plus its keyword params.

    ``kind`` names an entry of :data:`repro.api.compile.ARTEFACTS`;
    ``params`` are JSON-safe keyword arguments for that generator
    (validated against its signature).
    """

    kind: str = "fig2a"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __hash__(self) -> int:
        """Hash over the JSON form — ``params`` is a (unhashable) dict."""
        return hash((self.kind,
                     json.dumps(dict(self.params), sort_keys=True)))


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-described experiment, serializable as JSON.

    The only execution entry point is :func:`repro.api.run.run`; the
    CLI, the registry and the service worker all build one of these and
    call it.
    """

    name: str
    kind: str = "single"
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    control: ControlSpec = field(default_factory=ControlSpec)
    seeds: tuple[int, ...] = (1,)
    until_s: Optional[float] = None
    fleet: Optional[FleetPlan] = None
    forecast: Optional[ForecastPlan] = None
    faults: Optional[FaultPlan] = None
    grid: Optional[GridPlan] = None
    sweep: Optional[SweepSpec] = None
    artefact: Optional[ArtefactSpec] = None
    schema_version: int = SCHEMA_VERSION

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-ready dict with every field explicit (tuples → lists).

        The ``forecast`` and ``faults`` keys appear only when those
        sections are set: they postdate schema v1, and omitting the
        default keeps every pre-existing spec's canonical JSON — and
        hence its content hash and cached results — byte-identical.
        """
        out = {
            "schema_version": self.schema_version,
            "name": self.name,
            "kind": self.kind,
            "seeds": list(self.seeds),
            "until_s": float(self.until_s)
            if self.until_s is not None else None,
            "grid": {"feeders": [_section_to_dict(feeder)
                                 for feeder in self.grid.feeders],
                     "coordination": self.grid.coordination}
            if self.grid is not None else None,
            "sweep": {"rates": [float(rate) for rate in self.sweep.rates],
                      "policies": list(self.sweep.policies)}
            if self.sweep is not None else None,
            "artefact": {"kind": self.artefact.kind,
                         "params": dict(self.artefact.params)}
            if self.artefact is not None else None,
        }
        for name in SECTIONS:
            section = getattr(self, name)
            if section is not None:
                out[name] = _section_to_dict(section)
            elif name not in _POST_V1_SECTIONS:
                out[name] = None
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize; ``indent=None`` gives the canonical one-line form."""
        if indent is None:
            return canonical_json(self)
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Validate ``data`` and build the spec tree.

        Raises :class:`repro.api.validate.SpecError` with a dotted field
        path on the first problem found.
        """
        from repro.api.validate import validate_data
        validate_data(data)
        top = {name: data[name] for name in ("kind", "schema_version")
               if name in data}
        if "seeds" in data:
            top["seeds"] = tuple(data["seeds"])
        if data.get("until_s") is not None:
            top["until_s"] = float(data["until_s"])
        sections = {name: _load_section(section_cls, data[name])
                    for name, section_cls in SECTIONS.items()
                    if data.get(name) is not None}
        grid_data = data.get("grid")
        if grid_data is not None:
            sections["grid"] = GridPlan(
                feeders=tuple(_load_section(FeederPlan, feeder)
                              for feeder in grid_data["feeders"]),
                coordination=grid_data.get("coordination",
                                           GridPlan.coordination))
        sweep_data = data.get("sweep")
        if sweep_data is not None:
            sections["sweep"] = SweepSpec(
                rates=tuple(float(rate) for rate
                            in sweep_data.get("rates", SweepSpec.rates)),
                policies=tuple(sweep_data.get("policies",
                                              SweepSpec.policies)))
        artefact_data = data.get("artefact")
        if artefact_data is not None:
            sections["artefact"] = ArtefactSpec(
                kind=artefact_data["kind"],
                params=dict(artefact_data.get("params", {})))
        return cls(name=data["name"], **top, **sections)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse and validate a JSON document (see :meth:`from_dict`)."""
        from repro.api.validate import SpecError
        try:
            data = json.loads(text)
        except json.JSONDecodeError as bad:
            raise SpecError("", f"invalid JSON: {bad}") from bad
        if not isinstance(data, dict):
            raise SpecError("", "spec document must be a JSON object")
        return cls.from_dict(data)

    # -- convenience ----------------------------------------------------------

    def with_artefact_params(self, **params) -> "ExperimentSpec":
        """A copy with extra/overriding artefact params (artefact kind only)."""
        if self.artefact is None:
            raise ValueError(f"spec {self.name!r} has no artefact section")
        merged = dict(self.artefact.params)
        merged.update(params)
        return replace(self, artefact=ArtefactSpec(kind=self.artefact.kind,
                                                   params=merged))


@dataclass(frozen=True)
class FieldSchema:
    """One field of a flat section, exactly as its dataclass declares it."""

    name: str
    #: ``int``, ``float`` or ``str``: the annotation minus ``Optional``
    type: type
    default: Any
    #: whether the annotation is ``Optional`` (``null`` is a valid value)
    nullable: bool


def _flat_schema(section_cls) -> tuple[FieldSchema, ...]:
    hints = typing.get_type_hints(section_cls)
    schema = []
    for section_field in fields(section_cls):
        hint = hints[section_field.name]
        members = typing.get_args(hint)
        nullable = type(None) in members
        if nullable:
            (hint,) = (member for member in members
                       if member is not type(None))
        schema.append(FieldSchema(section_field.name, hint,
                                  section_field.default, nullable))
    return tuple(schema)


#: The flat sections of a spec, by key (``grid.feeders`` entries are the
#: flat :class:`FeederPlan`).
SECTIONS = {
    "scenario": ScenarioSpec,
    "control": ControlSpec,
    "fleet": FleetPlan,
    "forecast": ForecastPlan,
    "faults": FaultPlan,
}

#: Flat section dataclass → the schema of its fields, derived once from
#: the dataclass.  The validator, the serializer and the compiler all
#: read this; no module restates a field's name, type or default.
SCHEMA = {section_cls: _flat_schema(section_cls)
          for section_cls in (*SECTIONS.values(), FeederPlan)}

#: Sections serialized only when set (see
#: :meth:`ExperimentSpec.to_dict`).
_POST_V1_SECTIONS = ("forecast", "faults")


def _section_to_dict(section) -> dict:
    """Flat dataclass section → plain dict (helper for :meth:`to_dict`).

    Float-typed fields are coerced to ``float`` so the canonical form is
    type-stable: a document writing ``1800`` and one writing ``1800.0``
    describe the same experiment and must hash identically.
    """
    out = {}
    for spec_field in SCHEMA[type(section)]:
        value = getattr(section, spec_field.name)
        if spec_field.type is float and value is not None:
            value = float(value)
        out[spec_field.name] = value
    return out


def _load_section(section_cls, data: Mapping[str, Any]):
    """Build a flat section from validated raw data, floats coerced.

    Int-written and float-written documents build *identical* spec
    objects, not just identically-hashing ones.
    """
    values = dict(data)
    for spec_field in SCHEMA[section_cls]:
        if spec_field.type is float and values.get(spec_field.name) \
                is not None:
            values[spec_field.name] = float(values[spec_field.name])
    return section_cls(**values)


def canonical_json(spec: ExperimentSpec) -> str:
    """The canonical serialized form: sorted keys, no whitespace.

    Two specs are the same experiment iff their canonical JSON is equal;
    :func:`spec_hash` hashes exactly this string.
    """
    return json.dumps(spec.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def spec_hash(spec: ExperimentSpec) -> str:
    """Content address of a spec: SHA-256 of its canonical JSON.

    The hash keys result caches and stamps every exported artefact
    (see ``repro.analysis.export``), so an artefact file can always be
    traced back to — and regenerated from — the exact spec that made it.
    """
    return hashlib.sha256(canonical_json(spec).encode()).hexdigest()


def spec_from_scenario(scenario) -> ScenarioSpec:
    """Losslessly re-express a concrete Scenario as a ScenarioSpec.

    Uses no preset — every field is written out — so compiling the
    returned spec reproduces ``scenario`` exactly.
    """
    from repro.api.compile import SCENARIO_FIELDS
    return ScenarioSpec(preset=None, **{
        spec_field: getattr(scenario, scenario_field)
        for spec_field, scenario_field in SCENARIO_FIELDS.items()})


def spec_from_config(config, until: Optional[float] = None,
                     name: Optional[str] = None) -> ExperimentSpec:
    """Losslessly re-express a HanConfig as a single-run ExperimentSpec.

    The exact inverse of :func:`repro.api.compile.compile_config`: a
    hand-built config runs through the spec API via this, and the
    equivalence test asserts the round trip is bit-identical.
    """
    from repro.api.compile import CONFIG_RENAMES
    control = ControlSpec(**{
        spec_field.name: getattr(config, CONFIG_RENAMES.get(
            spec_field.name, spec_field.name))
        for spec_field in SCHEMA[ControlSpec]})
    return ExperimentSpec(
        name=name if name is not None else config.scenario.name,
        kind="single",
        scenario=spec_from_scenario(config.scenario),
        control=control,
        seeds=(config.seed,),
        until_s=until)
