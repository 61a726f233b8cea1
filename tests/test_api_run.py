"""The unified run() entry point: result shapes, provenance, job-count
invariance."""

import warnings

from repro.api import (
    ArtefactSpec,
    ControlSpec,
    ExperimentSpec,
    FleetPlan,
    ScenarioSpec,
    SweepSpec,
    run,
    spec_from_config,
    spec_hash,
)
from repro.core.system import HanConfig, execute_config
from repro.neighborhood import build_fleet, execute_fleet
from repro.sim.units import MINUTE
from repro.workloads import paper_scenario

SHORT = 45 * MINUTE


def series_points(series):
    return list(series)


def assert_same_run(a, b):
    """Bit-identical run results (modulo the unpicklable agents)."""
    assert series_points(a.load_w) == series_points(b.load_w)
    assert a.stats() == b.stats()
    assert [r.arrival_time for r in a.requests] == \
        [r.arrival_time for r in b.requests]
    assert [r.completed_at for r in a.requests] == \
        [r.completed_at for r in b.requests]
    assert a.bursts == b.bursts


def single_spec(seed=1):
    return ExperimentSpec(
        name="api-single",
        scenario=ScenarioSpec(preset="paper-low"),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(seed,), until_s=SHORT)


def test_run_single_shape_and_provenance():
    spec = single_spec()
    result = run(spec)
    assert len(result.runs) == 1
    assert result.neighborhood is None and result.artefact is None
    assert result.provenance.spec_hash == spec_hash(spec)
    assert result.provenance.seeds == (1,)
    assert result.provenance.code_version
    assert result.run_result().stats().peak_kw > 0
    assert "spec " + result.provenance.short_hash in result.render()


def test_run_is_job_count_invariant():
    spec = ExperimentSpec(
        name="api-jobs", scenario=ScenarioSpec(preset="paper-low"),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(1, 2), until_s=SHORT)
    serial = run(spec, jobs=1)
    parallel = run(spec, jobs=2)
    for a, b in zip(serial.runs, parallel.runs):
        assert_same_run(a, b)


def test_run_sweep_reshapes():
    spec = ExperimentSpec(
        name="api-sweep", kind="sweep",
        scenario=ScenarioSpec(preset="paper-low"),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(1,), until_s=SHORT,
        sweep=SweepSpec(rates=(4.0, 18.0)))
    result = run(spec)
    assert len(result.runs) == 2 * 2 * 1
    table = result.sweep_table()
    assert set(table) == {4.0, 18.0}
    for cell in table.values():
        assert set(cell) == {"coordinated", "uncoordinated"}
        for outcome in cell.values():
            assert len(outcome.results) == 1


def test_run_fleet_attaches_spec():
    spec = ExperimentSpec(
        name="api-nbhd", kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=SHORT),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(3,), fleet=FleetPlan(homes=2, mix="mixed"))
    result = run(spec)
    assert result.neighborhood is not None
    assert result.neighborhood.spec is spec
    assert len(result.neighborhood.homes) == 2
    assert result.neighborhood.feeder_stats().diversity_factor >= 1.0 - 1e-9


def test_run_artefact_kind():
    spec = ExperimentSpec(
        name="api-artefact", kind="artefact",
        artefact=ArtefactSpec(kind="cp-trace", params={"rounds": 2}))
    result = run(spec)
    assert result.artefact is not None
    assert "Communication Plane" in result.artefact.text


def test_spec_from_config_runs_bit_identical():
    """A hand-built HanConfig, re-expressed as a spec, runs exactly as
    the raw execution primitive does."""
    config = HanConfig(scenario=paper_scenario("low"), policy="coordinated",
                       cp_fidelity="ideal", seed=4)
    via_api = run(spec_from_config(config, until=SHORT)).runs[0]
    assert_same_run(via_api, execute_config(config, until=SHORT))


def test_execute_fleet_is_warning_free():
    fleet = build_fleet(2, mix="mixed", seed=1, cp_fidelity="ideal",
                        horizon=10 * MINUTE)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        execute_fleet(fleet)
