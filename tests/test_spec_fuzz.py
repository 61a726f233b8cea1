"""Property-based fuzzing of the spec boundary, driven by the schema.

Strategies read each flat section's field types and defaults from
:data:`repro.api.spec.SCHEMA` and their bounds and choice lists from
:data:`repro.api.validate.FIELD_RULES`, so a field added to a section
dataclass is fuzzed without touching this file.

* Random *valid* specs of every kind round-trip through JSON to an equal
  spec with the same hash, and compile.
* Every single-field mutation of a valid document — unknown key, wrong
  type, null, non-finite, below minimum, above maximum, unknown choice —
  raises a :class:`SpecError` whose message starts with the dotted path
  of the mutated field.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSpec, SpecError, spec_hash
from repro.api.compile import (
    ARTEFACTS,
    compile_fleet,
    compile_grid,
    compile_run_specs,
    resolve_artefact,
)
from repro.api.spec import KINDS, SCHEMA, SECTIONS, FeederPlan
from repro.api.validate import FIELD_RULES, field_rule
from repro.neighborhood.grid import GRID_COORDINATION_MODES

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
MUTATE = settings(max_examples=8, deadline=None)

#: Upper bounds on the fuzzed ints where the schema sets none, so that
#: compiling a random fleet stays cheap.
_INT_CAPS = {"homes": 4}


def value_strategy(spec_field):
    """Valid values of one flat-section field."""
    rule = field_rule(spec_field.name)
    if spec_field.type is str:
        values = st.sampled_from(sorted(rule.known)) \
            if rule.choices is not None else st.text(max_size=12)
    elif spec_field.type is int:
        low = int(rule.minimum)
        values = st.integers(low, _INT_CAPS.get(spec_field.name, low + 50))
    else:
        values = st.floats(rule.minimum,
                           rule.maximum if rule.maximum is not None
                           else 1e6,
                           allow_nan=False, allow_infinity=False)
    return st.none() | values if spec_field.nullable else values


def section_strategy(section_cls, fixed=None, only=None):
    """A raw section dict: a random subset of its fields set validly.

    ``fixed`` pins fields to given values; ``only`` restricts which
    fields may be set at all.
    """
    fixed = {name: st.just(value) for name, value in (fixed or {}).items()}
    optional = {spec_field.name: value_strategy(spec_field)
                for spec_field in SCHEMA[section_cls]
                if spec_field.name not in fixed
                and (only is None or spec_field.name in only)}
    return st.fixed_dictionaries(fixed, optional=optional)


def _telemetry_free(faults: dict) -> dict:
    return {name: 0.0 if name.startswith("telemetry_") else value
            for name, value in faults.items()}


@st.composite
def valid_documents(draw):
    """A raw spec document of any kind that must validate."""
    kind = draw(st.sampled_from(KINDS))
    document = {"name": draw(st.text(min_size=1, max_size=8)),
                "kind": kind}
    if kind in ("single", "sweep"):
        fixed = {"rate_per_hour": None} if kind == "sweep" else None
        document["scenario"] = draw(section_strategy(
            SECTIONS["scenario"], fixed=fixed))
        document["control"] = draw(section_strategy(
            SECTIONS["control"],
            fixed={"policy": "coordinated"} if kind == "sweep" else None))
        document["seeds"] = draw(st.lists(st.integers(0, 99), min_size=1,
                                          max_size=3))
        document["until_s"] = draw(st.none() | st.floats(
            0, 1e5, allow_nan=False))
    if kind == "sweep":
        document["sweep"] = {
            "rates": draw(st.lists(st.floats(0, 60, allow_nan=False),
                                   max_size=3)),
            "policies": draw(st.lists(
                st.sampled_from(sorted(field_rule("policy").known)),
                min_size=1, max_size=3))}
    if kind in ("neighborhood", "grid"):
        document["scenario"] = draw(section_strategy(
            SECTIONS["scenario"], only=("horizon_s",)))
        document["control"] = draw(section_strategy(SECTIONS["control"]))
        document["seeds"] = [draw(st.integers(0, 99))]
    if kind == "neighborhood":
        fleet = draw(section_strategy(SECTIONS["fleet"]))
        document["fleet"] = fleet
        online = fleet.get("coordination") == "online"
        if online and draw(st.booleans()):
            document["forecast"] = draw(section_strategy(
                SECTIONS["forecast"]))
        if draw(st.booleans()):
            faults = draw(section_strategy(SECTIONS["faults"]))
            document["faults"] = faults if online \
                else _telemetry_free(faults)
    if kind == "grid":
        document["grid"] = {
            "feeders": draw(st.lists(section_strategy(FeederPlan),
                                     min_size=1, max_size=3)),
            "coordination": draw(st.sampled_from(
                GRID_COORDINATION_MODES))}
        if draw(st.booleans()):
            document["faults"] = _telemetry_free(
                draw(section_strategy(SECTIONS["faults"])))
    if kind == "artefact":
        document["artefact"] = {
            "kind": draw(st.sampled_from(sorted(ARTEFACTS))),
            "params": {}}
    return document


def _compile(spec: ExperimentSpec) -> None:
    if spec.kind in ("single", "sweep"):
        assert compile_run_specs(spec)
    elif spec.kind == "neighborhood":
        assert compile_fleet(spec).n_homes == spec.fleet.homes
    elif spec.kind == "grid":
        assert len(compile_grid(spec).feeders) == len(spec.grid.feeders)
    else:
        assert callable(resolve_artefact(spec.artefact.kind))


@FUZZ
@given(valid_documents())
def test_valid_specs_round_trip_hash_and_compile(document):
    spec = ExperimentSpec.from_dict(document)
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    assert spec_hash(again) == spec_hash(spec)
    assert ExperimentSpec.from_json(spec.to_json(indent=None)) == spec
    _compile(spec)


# -- single-field mutations -------------------------------------------------

#: Flat section → (dotted path, valid document around one section body).
_ONLINE = {"coordination": "online"}
SECTION_DOCUMENTS = {
    "scenario": ("scenario",
                 lambda body: {"name": "m", "scenario": body}),
    "control": ("control",
                lambda body: {"name": "m", "control": body}),
    "fleet": ("fleet",
              lambda body: {"name": "m", "kind": "neighborhood",
                            "fleet": body}),
    "forecast": ("forecast",
                 lambda body: {"name": "m", "kind": "neighborhood",
                               "fleet": _ONLINE, "forecast": body}),
    "faults": ("faults",
               lambda body: {"name": "m", "kind": "neighborhood",
                             "fleet": _ONLINE, "faults": body}),
    "feeder": ("grid.feeders[0]",
               lambda body: {"name": "m", "kind": "grid",
                             "grid": {"feeders": [body]}}),
}
_SECTION_CLASSES = {**SECTIONS, "feeder": FeederPlan}


def mutation_strategy(spec_field, mutation):
    """Bad values of one field for one mutation (None = not applicable)."""
    rule = field_rule(spec_field.name)
    numeric = spec_field.type is not str
    if mutation == "wrong type":
        if spec_field.type is int:
            return st.text() | st.booleans() | st.floats()
        if numeric:
            return st.text() | st.booleans() | st.lists(st.integers(),
                                                        max_size=2)
        return st.integers() | st.floats() | st.booleans()
    if mutation == "null":
        return None if spec_field.nullable else st.none()
    if mutation == "non-finite":
        return st.sampled_from([float("nan"), float("inf"),
                                float("-inf")]) if numeric else None
    if mutation == "below min":
        if not numeric:
            return None
        if spec_field.type is int:
            return st.integers(max_value=int(rule.minimum) - 1)
        return st.floats(max_value=rule.minimum, exclude_max=True,
                         allow_nan=False, allow_infinity=False)
    if mutation == "above max":
        if rule.maximum is None:
            return None
        return st.floats(min_value=rule.maximum, exclude_min=True,
                         allow_nan=False, allow_infinity=False)
    if mutation == "unknown choice":
        if rule.choices is None:
            return None
        known = set(rule.known)
        return st.text().filter(lambda value: value not in known)
    raise AssertionError(mutation)


MUTATIONS = ("wrong type", "null", "non-finite", "below min", "above max",
             "unknown choice")
CASES = [(section, spec_field, mutation)
         for section, section_cls in _SECTION_CLASSES.items()
         for spec_field in SCHEMA[section_cls]
         for mutation in MUTATIONS
         if mutation_strategy(spec_field, mutation) is not None]


def test_every_rule_names_a_schema_field():
    declared = {spec_field.name for schema in SCHEMA.values()
                for spec_field in schema}
    assert set(FIELD_RULES) <= declared


@pytest.mark.parametrize(
    "section, spec_field, mutation", CASES,
    ids=[f"{section}.{spec_field.name}-{mutation.replace(' ', '-')}"
         for section, spec_field, mutation in CASES])
@MUTATE
@given(data=st.data())
def test_field_mutation_names_its_path(section, spec_field, mutation,
                                       data):
    path, document = SECTION_DOCUMENTS[section]
    value = data.draw(mutation_strategy(spec_field, mutation))
    with pytest.raises(SpecError) as caught:
        ExperimentSpec.from_dict(document({spec_field.name: value}))
    assert str(caught.value).startswith(f"{path}.{spec_field.name}: ")


@pytest.mark.parametrize("section", sorted(SECTION_DOCUMENTS))
@MUTATE
@given(key=st.text(min_size=1))
def test_unknown_key_names_its_path(section, key):
    section_cls = _SECTION_CLASSES[section]
    if key in {spec_field.name for spec_field in SCHEMA[section_cls]}:
        return
    path, document = SECTION_DOCUMENTS[section]
    with pytest.raises(SpecError) as caught:
        ExperimentSpec.from_dict(document({key: 1}))
    assert str(caught.value).startswith(f"{path}.{key}: unknown field")
