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

Every field carries the same units as its compiled counterpart (seconds,
watts), so compiling a spec and re-deriving a spec from the compiled
object (:func:`spec_from_config`) are exact inverses — the property the
deprecation-shim equivalence tests pin down.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Optional

from repro.faults.plan import RATE_FIELDS, FaultPlan

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

    Same build knobs as :class:`FleetPlan` (they compile through the same
    :func:`repro.neighborhood.fleet.build_fleet`); coordination lives on
    the enclosing :class:`GridPlan` because it is a property of the grid,
    not of one feeder.  Feeder ``i`` builds with
    :func:`repro.neighborhood.grid.feeder_seed` of the spec seed — feeder
    0 inherits the root seed, so a single-feeder grid reproduces the
    ``neighborhood`` kind bit-for-bit.
    """

    homes: int = 20
    mix: str = "suburb"
    rate_jitter: float = 0.25
    size_jitter: float = 0.2


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
            "scenario": _section_to_dict(self.scenario),
            "control": _section_to_dict(self.control),
            "seeds": list(self.seeds),
            "until_s": float(self.until_s)
            if self.until_s is not None else None,
            "fleet": _section_to_dict(self.fleet)
            if self.fleet is not None else None,
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
        if self.forecast is not None:
            out["forecast"] = _section_to_dict(self.forecast)
        if self.faults is not None:
            out["faults"] = _section_to_dict(self.faults)
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
        scenario = ScenarioSpec(**_coerced(data.get("scenario", {}),
                                           ScenarioSpec))
        control = ControlSpec(**_coerced(data.get("control", {}),
                                         ControlSpec))
        fleet = FleetPlan(**_coerced(data["fleet"], FleetPlan)) \
            if data.get("fleet") is not None else None
        forecast = ForecastPlan(**_coerced(data["forecast"],
                                           ForecastPlan)) \
            if data.get("forecast") is not None else None
        faults = FaultPlan(**_coerced(data["faults"], FaultPlan)) \
            if data.get("faults") is not None else None
        grid_data = data.get("grid")
        grid = GridPlan(
            feeders=tuple(FeederPlan(**_coerced(feeder, FeederPlan))
                          for feeder in grid_data["feeders"]),
            coordination=grid_data.get("coordination",
                                       GridPlan.coordination)) \
            if grid_data is not None else None
        sweep_data = data.get("sweep")
        sweep = SweepSpec(rates=tuple(float(rate) for rate
                                      in sweep_data.get("rates", ())),
                          policies=tuple(sweep_data.get(
                              "policies",
                              SweepSpec.policies))) \
            if sweep_data is not None else None
        artefact_data = data.get("artefact")
        artefact = ArtefactSpec(kind=artefact_data["kind"],
                                params=dict(artefact_data.get("params",
                                                              {}))) \
            if artefact_data is not None else None
        until_s = data.get("until_s")
        return cls(name=data["name"],
                   kind=data.get("kind", "single"),
                   scenario=scenario,
                   control=control,
                   seeds=tuple(data.get("seeds", (1,))),
                   until_s=float(until_s) if until_s is not None
                   else None,
                   fleet=fleet, forecast=forecast, faults=faults,
                   grid=grid, sweep=sweep,
                   artefact=artefact,
                   schema_version=data.get("schema_version",
                                           SCHEMA_VERSION))

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


def _section_to_dict(section) -> Optional[dict]:
    """Flat dataclass section → plain dict (helper for :meth:`to_dict`).

    Float-typed fields are coerced to ``float`` so the canonical form is
    type-stable: a document writing ``1800`` and one writing ``1800.0``
    describe the same experiment and must hash identically.
    """
    if section is None:
        return None
    float_fields = _FLOAT_FIELDS.get(type(section), ())
    out = {}
    for section_field in fields(section):
        value = getattr(section, section_field.name)
        if section_field.name in float_fields and value is not None:
            value = float(value)
        out[section_field.name] = value
    return out


def _coerced(data: Mapping[str, Any], section_cls) -> dict:
    """A copy of raw section data with float fields coerced to float.

    Applied on load (:meth:`ExperimentSpec.from_dict`) so int-written
    and float-written documents build *identical* spec objects, not just
    identically-hashing ones.
    """
    out = dict(data)
    for name in _FLOAT_FIELDS.get(section_cls, ()):
        if out.get(name) is not None:
            out[name] = float(out[name])
    return out


#: Float-typed section fields, coerced on both load and serialization so
#: int-written JSON (``"cp_period": 2``) builds and hashes identically
#: to float-written JSON (``"cp_period": 2.0``).  Integer-typed fields
#: need no mapping — the validator already rejects non-int values for
#: them.
_FLOAT_FIELDS = {
    ScenarioSpec: ("device_power_w", "min_dcd_s", "max_dcp_s",
                   "rate_per_hour", "horizon_s"),
    ControlSpec: ("cp_period", "shadowing_sigma_db",
                  "path_loss_exponent", "ci_derating"),
    FleetPlan: ("rate_jitter", "size_jitter"),
    FeederPlan: ("rate_jitter", "size_jitter"),
    ForecastPlan: ("noise", "ewma_alpha"),
    FaultPlan: RATE_FIELDS,
}


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
    return ScenarioSpec(
        preset=None,
        name=scenario.name,
        n_devices=scenario.n_devices,
        device_power_w=scenario.device_power_w,
        min_dcd_s=scenario.min_dcd,
        max_dcp_s=scenario.max_dcp,
        rate_per_hour=scenario.arrival_rate_per_hour,
        horizon_s=scenario.horizon,
        demand_cycles=scenario.demand_cycles,
        arrival=scenario.arrival_kind,
        batch_size=scenario.batch_size,
        notes=scenario.notes)


def spec_from_config(config, until: Optional[float] = None,
                     name: Optional[str] = None) -> ExperimentSpec:
    """Losslessly re-express a HanConfig as a single-run ExperimentSpec.

    The exact inverse of :func:`repro.api.compile.compile_config`: a
    hand-built config runs through the spec API via this, and the
    equivalence test asserts the round trip is bit-identical.
    """
    control = ControlSpec(
        policy=config.policy,
        cp_fidelity=config.cp_fidelity,
        cp_period=config.cp_period,
        topology=config.topology_name,
        refresh_every=config.refresh_every,
        calibration_rounds=config.calibration_rounds,
        shadowing_sigma_db=config.shadowing_sigma_db,
        path_loss_exponent=config.path_loss_exponent,
        ci_derating=config.ci_derating,
        aggregation=config.aggregation,
        controller_id=config.controller_id)
    return ExperimentSpec(
        name=name if name is not None else config.scenario.name,
        kind="single",
        scenario=spec_from_scenario(config.scenario),
        control=control,
        seeds=(config.seed,),
        until_s=until)
