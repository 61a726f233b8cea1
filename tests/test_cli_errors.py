"""CLI error paths: clean non-zero exits with the validation message.

Every bad input must surface the validation error (with its field path
when it has one) on stderr and exit non-zero — never a traceback.
"""

import pytest

from repro.cli import main


def run_expecting_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code != 0, captured.out
    assert "Traceback" not in captured.err
    assert "Traceback" not in captured.out
    assert captured.err.startswith("error:")
    return code, captured.err


def test_bad_jobs_run(capsys):
    code, err = run_expecting_error(capsys, "run", "--jobs", "0")
    assert code == 2
    assert "jobs must be >= 1" in err


def test_bad_jobs_neighborhood(capsys):
    code, err = run_expecting_error(
        capsys, "neighborhood", "--homes", "2", "--jobs", "-3")
    assert code == 2
    assert "jobs must be >= 1" in err


def test_bad_jobs_regen(capsys):
    code, err = run_expecting_error(capsys, "regen", "FIG2A", "--jobs", "0")
    assert code == 2
    assert "jobs must be >= 1" in err


@pytest.mark.parametrize("command", [
    ["neighborhood", "--homes", "2"], ["grid"], ["chaos", "run"],
    ["worker"]])
def test_shard_size_zero_rejected(capsys, command):
    code, err = run_expecting_error(capsys, *command, "--shard-size", "0")
    assert code == 2
    assert "--shard-size must be >= 1, got 0" in err


def test_neighborhood_flags_validate_provenance_spec(capsys):
    """The spec embedded in exports must itself be valid (exit 2 if not)."""
    code, err = run_expecting_error(
        capsys, "neighborhood", "--homes", "2", "--seed", "-1",
        "--fidelity", "ideal", "--horizon-min", "20")
    assert code == 2
    assert "seeds[0]" in err


def test_bad_flag_values_surface_spec_error(capsys):
    code, err = run_expecting_error(capsys, "run", "--devices", "0",
                                    "--fidelity", "ideal")
    assert code == 2
    assert "scenario.n_devices" in err


def test_unknown_registry_id_regen(capsys):
    code, err = run_expecting_error(capsys, "regen", "FIG99")
    assert code == 2
    assert "unknown experiment 'FIG99'" in err
    assert "known:" in err


def test_unknown_registry_id_spec_show(capsys):
    code, err = run_expecting_error(capsys, "spec", "show", "NOPE")
    assert code == 2
    assert "unknown experiment 'NOPE'" in err


def test_missing_spec_file(capsys, tmp_path):
    code, err = run_expecting_error(
        capsys, "run", "--spec", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read spec file" in err


def test_malformed_spec_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, err = run_expecting_error(capsys, "run", "--spec", str(bad))
    assert code == 2
    assert "invalid spec" in err
    assert "invalid JSON" in err


def test_spec_with_bad_field_names_path(capsys, tmp_path):
    bad = tmp_path / "bad-field.json"
    bad.write_text('{"name": "x", "kind": "neighborhood", '
                   '"fleet": {"mix": "famly"}}')
    code, err = run_expecting_error(capsys, "run", "--spec", str(bad))
    assert code == 2
    assert "fleet.mix" in err
    assert "unknown preset 'famly'" in err


def test_spec_validate_rejects_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "scenario": {"preset": "paper-hgih"}}')
    code, err = run_expecting_error(capsys, "spec", "validate", str(bad))
    assert code == 2
    assert "scenario.preset" in err
    assert "paper-high" in err  # the did-you-mean suggestion


def test_spec_validate_accepts_good_file(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text('{"name": "demo", "kind": "single", "seeds": [1]}')
    code = main(["spec", "validate", str(good)])
    captured = capsys.readouterr()
    assert code == 0
    assert "ok: demo" in captured.out


def test_spec_dump_needs_ids_or_all(capsys):
    code, err = run_expecting_error(capsys, "spec", "dump")
    assert code == 2
    assert "--all" in err


def test_spec_dump_rejects_ids_plus_all(capsys, tmp_path):
    code, err = run_expecting_error(
        capsys, "spec", "dump", "FIG2A", "--all",
        "--out", str(tmp_path / "specs"))
    assert code == 2
    assert "not both" in err
    assert not (tmp_path / "specs").exists()


def test_unknown_spec_subcommand_exits_cleanly():
    with pytest.raises(SystemExit):
        main(["spec", "frobnicate"])


def test_chaos_rejects_unknown_fault_site(capsys):
    code, err = run_expecting_error(
        capsys, "chaos", "run", "--fault-rate", "meteor_strike=0.5")
    assert code == 2
    assert "unknown fault site" in err


def test_chaos_rejects_out_of_range_rate(capsys):
    code, err = run_expecting_error(
        capsys, "chaos", "run", "--fault-rate", "1.5")
    assert code == 2


def test_chaos_rejects_non_numeric_rate(capsys):
    code, err = run_expecting_error(
        capsys, "chaos", "run", "--fault-rate", "lots")
    assert code == 2
    assert "must be a number" in err
