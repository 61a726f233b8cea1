"""Command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command(capsys):
    code, out = run_cli(capsys, "run", "--policy", "uncoordinated",
                        "--fidelity", "ideal", "--horizon-min", "60",
                        "--rate", "18")
    assert code == 0
    assert "peak load" in out
    assert "uncoordinated" in out


def test_run_command_custom_devices(capsys):
    code, out = run_cli(capsys, "run", "--policy", "coordinated",
                        "--fidelity", "ideal", "--horizon-min", "40",
                        "--devices", "8")
    assert code == 0
    assert "coordinated" in out


def test_fig2a_command(capsys):
    code, out = run_cli(capsys, "fig2a", "--fidelity", "ideal",
                        "--horizon-min", "60")
    assert code == 0
    assert "Figure 2(a)" in out


def test_fig2b_command(capsys):
    code, out = run_cli(capsys, "fig2b", "--fidelity", "ideal",
                        "--horizon-min", "45", "--seeds", "1")
    assert code == 0
    assert "Figure 2(b)" in out
    assert "reduction" in out


def test_cp_trace_command(capsys):
    code, out = run_cli(capsys, "cp-trace", "--rounds", "3")
    assert code == 0
    assert "Communication Plane" in out


def test_ablation_command(capsys):
    code, out = run_cli(capsys, "ablation", "st-vs-at")
    assert code == 0
    assert "ABL-ST-VS-AT" in out


@pytest.mark.parametrize("argv, kind, params", [
    (["fig2a", "--fidelity", "ideal", "--horizon-min", "30"], "fig2a",
     {"seed": 1, "cp_fidelity": "ideal", "horizon": 1800.0}),
    (["ablation", "st-vs-at", "--seed", "2"], "abl-st-vs-at",
     {"seed": 2}),
])
def test_artefact_commands_print_their_spec_run(capsys, argv, kind, params):
    from repro.api import ArtefactSpec, ExperimentSpec, run
    spec = ExperimentSpec(name=f"cli-{kind}", kind="artefact",
                          artefact=ArtefactSpec(kind=kind, params=params))
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == run(spec).artefact.text + "\n"


def test_unknown_ablation_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["ablation", "quantum"])


def test_list_command(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    assert "FIG2A" in out
    assert "ABL-SPOF" in out


def test_run_export_json(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out = run_cli(capsys, "run", "--policy", "coordinated",
                        "--fidelity", "ideal", "--horizon-min", "30",
                        "--export-json", str(target))
    assert code == 0
    assert target.exists()
    import json
    payload = json.loads(target.read_text())
    assert payload["config"]["policy"] == "coordinated"


def test_neighborhood_command(capsys):
    code, out = run_cli(capsys, "neighborhood", "--homes", "3", "--jobs", "2",
                        "--fidelity", "ideal", "--horizon-min", "45",
                        "--mix", "mixed", "--seed", "3")
    assert code == 0
    assert "Feeder aggregate" in out
    assert "diversity factor" in out
    assert "home000" in out


def test_neighborhood_export_json(capsys, tmp_path):
    target = tmp_path / "neighborhood.json"
    code, out = run_cli(capsys, "neighborhood", "--homes", "2",
                        "--fidelity", "ideal", "--horizon-min", "30",
                        "--export-json", str(target))
    assert code == 0
    import json
    payload = json.loads(target.read_text())
    assert payload["fleet"]["n_homes"] == 2
    assert len(payload["homes"]) == 2
    assert payload["feeder"]["diversity_factor"] >= 1.0 - 1e-9


def test_run_jobs_fans_out_seeds(capsys):
    code, out = run_cli(capsys, "run", "--jobs", "2", "--seeds", "1", "2",
                        "--fidelity", "ideal", "--horizon-min", "30",
                        "--policy", "uncoordinated")
    assert code == 0
    assert "2 seeds x 2 jobs" in out
    assert "mean" in out


def test_run_jobs_exports_per_seed_json(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out = run_cli(capsys, "run", "--jobs", "2", "--seeds", "1", "2",
                        "--fidelity", "ideal", "--horizon-min", "30",
                        "--export-json", str(target))
    assert code == 0
    import json
    for seed in (1, 2):
        payload = json.loads((tmp_path / f"result.seed{seed}.json")
                             .read_text())
        assert payload["config"]["seed"] == seed


def test_run_jobs_notes_ignored_seed(capsys):
    code, out = run_cli(capsys, "run", "--jobs", "2", "--seed", "9",
                        "--seeds", "1", "2", "--fidelity", "ideal",
                        "--horizon-min", "20")
    assert code == 0
    assert "--seed 9 ignored" in out


def test_neighborhood_worker_error_names_home(capsys, monkeypatch):
    """A worker crash must surface the failing home, not a bare traceback."""
    from dataclasses import replace

    from repro import cli as cli_module
    from repro.neighborhood import FleetSpec, build_fleet, fleet as fleet_mod

    def poisoned(n_homes, **kwargs):
        fleet = build_fleet(n_homes, **kwargs)
        victim = fleet.homes[1]
        bad = replace(victim, scenario=replace(victim.scenario,
                                               arrival_kind="bogus"))
        homes = list(fleet.homes)
        homes[1] = bad
        return FleetSpec(name=fleet.name, seed=fleet.seed,
                         homes=tuple(homes))

    # the CLI runs its spec through repro.api.run, whose compile step
    # builds the fleet from this module
    monkeypatch.setattr(fleet_mod, "build_fleet", poisoned)
    code = cli_module.main(["neighborhood", "--homes", "3", "--jobs", "2",
                            "--fidelity", "ideal", "--horizon-min", "30"])
    captured = capsys.readouterr()
    assert code == 1
    assert "home001" in captured.err
    assert "error" in captured.err


def test_regen_command_runs_entries(capsys, monkeypatch):
    from repro.api import ArtefactSpec, ExperimentSpec
    from repro.experiments import registry

    spec = ExperimentSpec(name="FAKE", kind="artefact",
                          artefact=ArtefactSpec(kind="cp-trace",
                                                params={"rounds": 2}))
    fake = registry.Experiment("FAKE", "none", "cheap test entry", "none",
                               spec=spec)
    monkeypatch.setitem(registry.REGISTRY, "FAKE", fake)
    code, out = run_cli(capsys, "regen", "FAKE")
    assert code == 0
    assert "== FAKE ==" in out
    assert "FIG1: Communication Plane" in out


def test_regen_unknown_id_rejected(capsys):
    code = main(["regen", "NO-SUCH-EXPERIMENT"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown experiment" in captured.err


def test_neighborhood_bad_input_clean_error(capsys):
    code = main(["neighborhood", "--homes", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "fleet.homes" in captured.err
    code = main(["neighborhood", "--homes", "2", "--jobs", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "jobs" in captured.err


def test_run_spec_file(capsys, tmp_path):
    spec_file = tmp_path / "exp.json"
    spec_file.write_text('{"name": "spec-demo", "kind": "single", '
                         '"control": {"cp_fidelity": "ideal"}, '
                         '"seeds": [1, 2], "until_s": 1800.0}')
    code, out = run_cli(capsys, "run", "--spec", str(spec_file),
                        "--jobs", "2")
    assert code == 0
    assert "spec-demo" in out
    assert "spec " in out  # provenance footer with the hash


def test_run_spec_file_export_json(capsys, tmp_path):
    spec_file = tmp_path / "exp.json"
    spec_file.write_text('{"name": "spec-demo", "kind": "single", '
                         '"control": {"cp_fidelity": "ideal"}, '
                         '"seeds": [7], "until_s": 1800.0}')
    target = tmp_path / "out.json"
    code, out = run_cli(capsys, "run", "--spec", str(spec_file),
                        "--export-json", str(target))
    assert code == 0
    import json
    payload = json.loads(target.read_text())
    assert payload["config"]["seed"] == 7
    assert payload["spec"]["canonical"]["name"] == "spec-demo"
    assert len(payload["spec"]["hash"]) == 64


def test_run_spec_file_sweep_exports_every_cell(capsys, tmp_path):
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(
        '{"name": "sweep-demo", "kind": "sweep", '
        '"scenario": {"preset": "paper-low"}, '
        '"control": {"cp_fidelity": "ideal"}, "seeds": [1, 2], '
        '"until_s": 1800.0, "sweep": {"rates": [4.0, 18.0]}}')
    target = tmp_path / "cells.json"
    code, out = run_cli(capsys, "run", "--spec", str(spec_file),
                        "--export-json", str(target))
    assert code == 0
    import json
    written = sorted(tmp_path.glob("cells.*.json"))
    assert len(written) == 2 * 2 * 2  # rates x policies x seeds
    for path in written:
        payload = json.loads(path.read_text())
        # each cell's provenance is the single-run spec for that cell
        canonical = payload["spec"]["canonical"]
        assert canonical["kind"] == "single"
        assert canonical["seeds"] == [payload["config"]["seed"]]
        assert canonical["scenario"]["rate_per_hour"] == \
            payload["config"]["arrival_rate_per_hour"]


def test_run_spec_file_neighborhood(capsys, tmp_path):
    spec_file = tmp_path / "nbhd.json"
    spec_file.write_text(
        '{"name": "nbhd-demo", "kind": "neighborhood", '
        '"scenario": {"horizon_s": 1800.0}, '
        '"control": {"cp_fidelity": "ideal"}, "seeds": [3], '
        '"fleet": {"homes": 2, "mix": "mixed"}}')
    code, out = run_cli(capsys, "run", "--spec", str(spec_file))
    assert code == 0
    assert "Feeder aggregate" in out


def test_spec_show_round_trips(capsys):
    code, out = run_cli(capsys, "spec", "show", "HEADLINE")
    assert code == 0
    import json

    from repro.api import ExperimentSpec
    from repro.experiments.registry import get
    assert ExperimentSpec.from_dict(json.loads(out)) == get("HEADLINE").spec


def test_spec_dump_all_writes_every_id(capsys, tmp_path):
    code, out = run_cli(capsys, "spec", "dump", "--all", "--out",
                        str(tmp_path / "specs"))
    assert code == 0
    from repro.experiments.registry import REGISTRY
    written = {p.stem for p in (tmp_path / "specs").glob("*.json")}
    assert written == set(REGISTRY)


def test_examples_are_importable():
    """Every example script must at least parse and expose main()."""
    import importlib.util
    from pathlib import Path
    examples = Path(__file__).parent.parent / "examples"
    scripts = sorted(examples.glob("*.py"))
    assert len(scripts) >= 4
    for script in scripts:
        spec = importlib.util.spec_from_file_location(script.stem, script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert hasattr(module, "main"), script.name


# -- PR 8: online coordination + grid export parity -------------------------


def test_neighborhood_bare_coordinate_means_feeder():
    args = build_parser().parse_args(
        ["neighborhood", "--coordinate"])
    assert args.coordinate == "feeder"
    assert build_parser().parse_args(["neighborhood"]).coordinate is None
    assert build_parser().parse_args(
        ["neighborhood", "--coordinate", "online"]).coordinate == "online"


def test_neighborhood_rejects_unknown_coordinate_and_forecaster():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["neighborhood", "--coordinate", "substation"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["neighborhood", "--forecaster", "crystal-ball"])


def test_neighborhood_online_command(capsys):
    code, out = run_cli(capsys, "neighborhood", "--homes", "4",
                        "--fidelity", "ideal", "--horizon-min", "20",
                        "--coordinate", "online",
                        "--forecaster", "persistence")
    assert code == 0
    assert "Online coordination" in out
    assert "persistence forecast" in out
    assert "epochs applied" in out


def test_neighborhood_online_export_json(capsys, tmp_path):
    target = tmp_path / "online.json"
    code, out = run_cli(capsys, "neighborhood", "--homes", "4",
                        "--fidelity", "ideal", "--horizon-min", "20",
                        "--coordinate", "online", "--forecaster", "ewma",
                        "--forecast-noise", "0.2",
                        "--export-json", str(target))
    assert code == 0
    import json
    payload = json.loads(target.read_text())
    online = payload["coordination"]["online"]
    assert online["forecaster"] == "ewma"
    assert online["n_epochs"] >= 1
    assert len(online["epochs"]) == online["n_epochs"]
    assert len(online["telemetry_digest"]) == 64
    canonical = payload["spec"]["canonical"]
    assert canonical["forecast"]["noise"] == 0.2
    assert canonical["forecast"]["forecaster"] == "ewma"


def test_grid_accepts_jobs_and_shard_size_like_neighborhood():
    args = build_parser().parse_args(
        ["grid", "--jobs", "4", "--shard-size", "8"])
    assert args.jobs == 4
    assert args.shard_size == 8


def test_grid_export_json_and_csv(capsys, tmp_path):
    json_target = tmp_path / "grid.json"
    csv_target = tmp_path / "grid.csv"
    code, out = run_cli(capsys, "grid", "--feeders", "2", "--homes", "3",
                        "--fidelity", "ideal", "--horizon-min", "20",
                        "--coordinate", "substation",
                        "--export-json", str(json_target),
                        "--export-csv", str(csv_target))
    assert code == 0
    import json
    payload = json.loads(json_target.read_text())
    assert payload["grid"]["n_feeders"] == 2
    assert payload["grid"]["n_homes"] == 6
    assert len(payload["feeders"]) == 2
    assert "comparison" in payload
    header = csv_target.read_text().splitlines()[0]
    assert "substation" in header
    assert "spec_hash" in header


def test_chaos_run_command(capsys):
    code, out = run_cli(capsys, "chaos", "run", "--homes", "4",
                        "--horizon-min", "90", "--fault-seed", "11",
                        "--fault-rate", "0.3")
    assert code == 0
    assert "fault seed" in out
    assert "schedule digest" in out
    assert "never-raise-peak OK" in out


def test_chaos_run_site_specific_rates(capsys):
    code, out = run_cli(capsys, "chaos", "run", "--homes", "4",
                        "--horizon-min", "90", "--fault-seed", "3",
                        "--fault-rate", "telemetry_drop=0.5",
                        "--fault-rate", "telemetry_dup=0.2")
    assert code == 0
    assert "telemetry dropped" in out


def test_rerun_in_one_process_exports_identical_bytes(capsys, tmp_path):
    """Request ids count per run, not per process: a second run of the
    same spec exports byte-identical JSON and CSV."""
    from repro.analysis.export import requests_to_csv
    from repro.core.system import HanConfig, execute_config
    from repro.workloads.scenarios import paper_scenario

    exports = []
    for attempt in range(2):
        run_json = tmp_path / f"run-{attempt}.json"
        fleet_json = tmp_path / f"fleet-{attempt}.json"
        fleet_csv = tmp_path / f"fleet-{attempt}.csv"
        requests_csv = tmp_path / f"requests-{attempt}.csv"
        code, _ = run_cli(capsys, "run", "--policy", "coordinated",
                          "--fidelity", "ideal", "--horizon-min", "30",
                          "--export-json", str(run_json))
        assert code == 0
        code, _ = run_cli(capsys, "neighborhood", "--homes", "2",
                          "--fidelity", "ideal", "--horizon-min", "30",
                          "--export-json", str(fleet_json),
                          "--export-csv", str(fleet_csv))
        assert code == 0
        requests_to_csv(execute_config(HanConfig(
            scenario=paper_scenario("high"), cp_fidelity="ideal")),
            requests_csv)
        exports.append((run_json, fleet_json, fleet_csv, requests_csv))
    for first, second in zip(*exports):
        assert first.read_bytes() == second.read_bytes(), first.name
    assert b'"request_id": 1,' in exports[0][0].read_bytes()


def test_run_spec_file_grid_export_json(capsys, tmp_path):
    """``run --spec`` exports a grid result like any other kind."""
    from repro.analysis.export import grid_to_json
    from repro.api import ExperimentSpec, run

    spec_file = tmp_path / "grid.json"
    spec_file.write_text(
        '{"name": "grid-demo", "kind": "grid", '
        '"scenario": {"horizon_s": 1200.0}, '
        '"control": {"cp_fidelity": "ideal"}, "seeds": [2], '
        '"grid": {"feeders": [{"homes": 2}, {"homes": 2}], '
        '"coordination": "substation"}}')
    target = tmp_path / "g.json"
    code, out = run_cli(capsys, "run", "--spec", str(spec_file),
                        "--no-cache", "--export-json", str(target))
    assert code == 0
    assert "ignored" not in out
    assert target.exists()
    spec = ExperimentSpec.from_json(spec_file.read_text())
    expected = grid_to_json(run(spec).grid, tmp_path / "expected.json",
                            spec=spec)
    assert target.read_bytes() == expected.read_bytes()
    import json
    assert json.loads(target.read_text())["spec"]["canonical"]["name"] \
        == "grid-demo"


def _cli_fleet_specs():
    """The specs ``repro neighborhood``/``grid`` build for the flags below."""
    from repro.api.spec import (
        ControlSpec,
        ExperimentSpec,
        FeederPlan,
        FleetPlan,
        GridPlan,
        ScenarioSpec,
    )
    control = ControlSpec(policy="coordinated", cp_fidelity="ideal")
    neighborhood = ExperimentSpec(
        name="cli-neighborhood-mixed-3homes", kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=30 * 60.0), control=control,
        seeds=(4,), fleet=FleetPlan(homes=3, mix="mixed",
                                    coordination="feeder"))
    grid = ExperimentSpec(
        name="cli-grid-2x2", kind="grid",
        scenario=ScenarioSpec(horizon_s=20 * 60.0), control=control,
        seeds=(1,),
        grid=GridPlan(feeders=(FeederPlan(homes=2), FeederPlan(homes=2)),
                      coordination="substation"))
    return [
        (["neighborhood", "--homes", "3", "--mix", "mixed", "--seed", "4",
          "--coordinate", "--jobs", "2"], neighborhood, "neighborhood"),
        (["grid", "--feeders", "2", "--homes", "2",
          "--coordinate", "substation", "--shard-size", "1"], grid, "grid"),
    ]


@pytest.mark.parametrize("argv,spec,kind", _cli_fleet_specs(),
                         ids=["neighborhood", "grid"])
def test_fleet_commands_export_what_api_run_exports(capsys, tmp_path,
                                                    argv, spec, kind):
    """The fleet commands have no private execution path: their exports
    are byte-identical to exporting ``repro.api.run`` of the same spec."""
    from repro.analysis import export
    from repro.api import run

    cli_json, cli_csv = tmp_path / "cli.json", tmp_path / "cli.csv"
    code, _ = run_cli(capsys, *argv, "--fidelity", "ideal",
                      "--horizon-min", str(spec.scenario.horizon_s / 60),
                      "--export-json", str(cli_json),
                      "--export-csv", str(cli_csv))
    assert code == 0
    payload = getattr(run(spec), kind)
    api_json = getattr(export, f"{kind}_to_json")(
        payload, tmp_path / "api.json", spec=spec)
    api_csv = getattr(export, f"{kind}_to_csv")(
        payload, tmp_path / "api.csv", spec=spec)
    assert cli_json.read_bytes() == api_json.read_bytes()
    assert cli_csv.read_bytes() == api_csv.read_bytes()


def _option_table(parser, prefix=()):
    """``{"sub command": {option: default}}`` for every (sub)command."""
    import argparse
    table = {" ".join(prefix): {}} if prefix else {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(_option_table(sub, prefix + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            option = "/".join(action.option_strings) or action.dest
            table[" ".join(prefix)][option] = action.default
    return table


#: Every subcommand's options and defaults, recorded before the fleet
#: commands moved their shared flags onto argparse parent parsers.
OPTION_TABLE = {
    "ablation": {"--fidelity": "round", "--horizon-min": None, "--seed": 1,
                 "--seeds": [1, 2, 3], "which": None},
    "cache": {}, "cache clear": {}, "cache ls": {}, "cache stats": {},
    "chaos": {},
    "chaos run": {"--fault-rate": None, "--fault-seed": 0,
                  "--forecaster": "persistence", "--homes": 12,
                  "--horizon-min": None, "--jobs": 1,
                  "--max-delay-epochs": 2, "--mix": "suburb", "--seed": 1,
                  "--shard-size": None},
    "cp-trace": {"--rounds": 25, "--seed": 1},
    "fig2a": {"--fidelity": "round", "--horizon-min": None, "--seed": 1,
              "--seeds": [1, 2, 3]},
    "fig2b": {"--fidelity": "round", "--horizon-min": None, "--seed": 1,
              "--seeds": [1, 2, 3]},
    "fig2c": {"--fidelity": "round", "--horizon-min": None, "--seed": 1,
              "--seeds": [1, 2, 3]},
    "grid": {"--coordinate": "independent", "--export-csv": None,
             "--export-json": None, "--feeders": 3, "--fidelity": "round",
             "--homes": 20, "--horizon-min": None, "--jobs": 1,
             "--mix": "suburb", "--policy": "coordinated", "--seed": 1,
             "--shard-size": None},
    "headline": {"--fidelity": "round", "--horizon-min": None, "--seed": 1,
                 "--seeds": [1, 2, 3]},
    "job": {}, "job ls": {"--store": None},
    "job result": {"--store": None, "--timeout": None, "job_id": None},
    "job status": {"--store": None, "job_id": None},
    "job submit": {"--store": None, "--timeout": None, "--wait": False,
                   "path": None},
    "list": {},
    "neighborhood": {"--coordinate": None, "--export-csv": None,
                     "--export-json": None, "--fidelity": "round",
                     "--forecast-noise": 0.0, "--forecast-seed": 1,
                     "--forecaster": "oracle", "--homes": 20,
                     "--horizon-min": None, "--jobs": 1, "--mix": "suburb",
                     "--policy": "coordinated", "--seed": 1,
                     "--shard-size": None},
    "regen": {"--jobs": 1, "--no-cache": False, "ids": None},
    "run": {"--devices": 26, "--export-json": None, "--fidelity": "round",
            "--horizon-min": None, "--jobs": 1, "--no-cache": False,
            "--policy": "coordinated", "--rate": 30.0, "--seed": 1,
            "--seeds": [1, 2, 3], "--spec": None},
    "serve": {"--host": None, "--port": None, "--store": None},
    "spec": {},
    "spec dump": {"--all": False, "--out": "specs", "ids": None},
    "spec show": {"ids": None},
    "spec validate": {"path": None},
    "worker": {"--idle-exit": None, "--jobs": 1, "--lease-ttl": None,
               "--max-jobs": None, "--shard-size": None, "--store": None,
               "--worker-id": None},
}


def test_every_subcommand_keeps_its_options_and_defaults():
    assert _option_table(build_parser()) == OPTION_TABLE


def test_closed_stdout_exits_quietly():
    """``repro list | head -1``: a reader that closes early ends the
    command with exit 1 and no traceback."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "repro", "list"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()  # the reader is gone before the first write
    stderr = proc.communicate(timeout=60)[1].decode()
    assert "Traceback" not in stderr
    assert proc.returncode == 1
