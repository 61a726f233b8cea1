"""Byte-level locks on the spec layer's observable outputs.

``tests/data/spec_locks.json`` holds, recorded once from a known-good
tree:

* the canonical JSON and ``spec_hash`` of every registry spec, every
  ``sample_specs()`` entry of ``test_api_spec`` and every spec the CLI
  builds from its flags;
* the outcome of a corpus of single-field mutations over every field of
  every flat section (plus the top-level fields and
  ``grid.coordination``): the exact ``SpecError`` text, or the hash of
  the spec the mutated document loads as.

Refactors of the schema, validator or serializer must leave every entry
byte-identical.  Re-record (only for a deliberate, versioned change)
with ``PYTHONPATH=src python tests/test_spec_locks.py``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from pathlib import Path
from unittest import mock

LOCK_FILE = Path(__file__).with_name("data") / "spec_locks.json"

#: Flag sets whose specs are locked; each builds one spec the CLI hands
#: to ``repro.api.run``.
CLI_COMMANDS = [
    ["run"],
    ["run", "--policy", "centralized", "--rate", "4", "--devices", "10",
     "--fidelity", "ideal", "--horizon-min", "30", "--seed", "3"],
    ["run", "--jobs", "2", "--seeds", "1", "2", "3"],
    ["neighborhood"],
    ["neighborhood", "--homes", "7", "--mix", "mixed", "--coordinate",
     "--fidelity", "ideal", "--horizon-min", "45", "--seed", "4"],
    ["neighborhood", "--coordinate", "online", "--forecaster", "ewma",
     "--forecast-noise", "0.2", "--forecast-seed", "5"],
    ["grid"],
    ["grid", "--feeders", "3", "--homes", "4", "--coordinate",
     "substation", "--horizon-min", "30"],
    ["chaos", "run"],
    ["chaos", "run", "--fault-seed", "7", "--fault-rate",
     "telemetry_drop=0.3", "--fault-rate", "frame_loss=0.25",
     "--max-delay-epochs", "3"],
    ["fig2a"],
    ["fig2b", "--fidelity", "ideal", "--horizon-min", "45", "--seeds",
     "1", "2"],
    ["fig2c"],
    ["headline", "--seeds", "4", "5"],
    ["cp-trace", "--rounds", "3", "--seed", "2"],
    *(["ablation", which] for which in ("cp-period", "loss", "scale",
                                        "slots", "variants", "st-vs-at",
                                        "spof")),
]

#: Values each flat-section field is set to, one at a time.
MUTATION_VALUES = ["bogus", "", 7, None, -1, -0.5, 0, 0.5, 1, 1.5, 2,
                   1e9, True, [], {}, float("inf"), float("nan")]


class _Captured(Exception):
    """Raised by the patched ``run`` to stop the CLI after spec build."""

    def __init__(self, spec):
        super().__init__(spec.name)
        self.spec = spec


def _capture(*args, **kwargs):
    raise _Captured(args[0])


def cli_spec(argv):
    """The spec the CLI builds for ``argv`` (nothing is executed)."""
    from repro import cli
    with mock.patch.object(cli, "run_spec", _capture):
        try:
            cli.main(argv)
        except _Captured as captured:
            return captured.spec
    raise AssertionError(f"{argv} built no spec")


def locked_specs():
    """``label -> spec`` for every spec whose serialized form is locked."""
    sys.path.insert(0, str(Path(__file__).parent))
    from test_api_spec import sample_specs

    from repro.experiments.registry import all_experiments
    specs = {}
    for experiment in all_experiments():
        specs[f"registry:{experiment.exp_id}"] = experiment.spec
    for spec in sample_specs():
        specs[f"sample:{spec.name}"] = spec
    for argv in CLI_COMMANDS:
        specs["cli:" + " ".join(argv)] = cli_spec(argv)
    return specs


def _section_documents():
    """``(path, section dataclass, body -> document)`` per flat section."""
    from repro.api.spec import (
        ControlSpec,
        FeederPlan,
        FleetPlan,
        ForecastPlan,
        ScenarioSpec,
    )
    from repro.faults.plan import FaultPlan
    online = {"coordination": "online"}
    return [
        ("scenario", ScenarioSpec,
         lambda body: {"name": "m", "scenario": body}),
        ("control", ControlSpec,
         lambda body: {"name": "m", "control": body}),
        ("fleet", FleetPlan,
         lambda body: {"name": "m", "kind": "neighborhood", "fleet": body}),
        ("forecast", ForecastPlan,
         lambda body: {"name": "m", "kind": "neighborhood",
                       "fleet": online, "forecast": body}),
        ("faults", FaultPlan,
         lambda body: {"name": "m", "kind": "neighborhood",
                       "fleet": online, "faults": body}),
        ("grid.feeders[1]", FeederPlan,
         lambda body: {"name": "m", "kind": "grid",
                       "grid": {"feeders": [{}, body]}}),
    ]


def mutation_corpus():
    """``label -> document`` for the single-field mutation corpus."""
    corpus = {}
    for path, section_cls, document in _section_documents():
        corpus[f"{path}=<not an object>"] = document("x")
        for section_field in fields(section_cls):
            name = section_field.name
            corpus[f"{path}.{name}x=1"] = document({f"{name}x": 1})
            for value in MUTATION_VALUES:
                corpus[f"{path}.{name}={value!r}"] = document({name: value})
    for name in ("name", "kind", "seeds", "until_s", "schema_version"):
        for value in MUTATION_VALUES:
            corpus[f"{name}={value!r}"] = {"name": "m", name: value}
    for value in MUTATION_VALUES:
        corpus[f"grid.coordination={value!r}"] = {
            "name": "m", "kind": "grid",
            "grid": {"feeders": [{}], "coordination": value}}
    return corpus


def mutation_outcome(document) -> str:
    """The SpecError text, or ``ok <hash>`` of the loaded spec."""
    from repro.api import ExperimentSpec, SpecError, spec_hash
    try:
        spec = ExperimentSpec.from_dict(document)
    except SpecError as error:
        return str(error)
    return f"ok {spec_hash(spec)}"


def record() -> dict:
    """Compute every locked output from the current tree."""
    from repro.api import canonical_json, spec_hash
    return {
        "specs": {label: {"json": canonical_json(spec),
                          "hash": spec_hash(spec)}
                  for label, spec in locked_specs().items()},
        "mutations": {label: mutation_outcome(document)
                      for label, document in mutation_corpus().items()},
    }


def _locked() -> dict:
    return json.loads(LOCK_FILE.read_text())


def test_spec_json_and_hashes_are_locked():
    locked = _locked()["specs"]
    current = record()["specs"]
    for label, entry in locked.items():
        assert current.get(label) == entry, label
    # every CLI-built spec is locked (a new command records its spec)
    assert sorted(label for label in current if label.startswith("cli:")) \
        == sorted(label for label in locked if label.startswith("cli:"))


def test_spec_error_messages_are_locked():
    locked = _locked()["mutations"]
    current = {label: mutation_outcome(document)
               for label, document in mutation_corpus().items()}
    assert current == locked


if __name__ == "__main__":
    LOCK_FILE.parent.mkdir(exist_ok=True)
    LOCK_FILE.write_text(json.dumps(record(), indent=1, sort_keys=True)
                         + "\n")
    print(f"wrote {LOCK_FILE}")
