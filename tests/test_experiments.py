"""Experiment harness: figures, CP trace, ablations (small configs)."""

import pytest

from repro.api import (
    ControlSpec,
    ExperimentSpec,
    ScenarioSpec,
    SweepSpec,
    run,
)
from repro.experiments import (
    cp_period_sweep,
    fig2a,
    fig2b,
    fig2c,
    headline_numbers,
    loss_sweep,
    scale_sweep,
    scheduler_variants,
    slots_sweep,
    spof_comparison,
    st_vs_at,
    trace_cp,
)
from repro.sim.units import MINUTE

SHORT = 90 * MINUTE
SEEDS = (1,)


def low_sweep(rates=()):
    return ExperimentSpec(
        name="low-sweep", kind="sweep",
        scenario=ScenarioSpec(preset="paper-low"),
        control=ControlSpec(cp_fidelity="ideal"), seeds=SEEDS,
        until_s=SHORT, sweep=SweepSpec(rates=tuple(rates)))


def test_by_policy_structure():
    outcomes = run(low_sweep()).by_policy()
    assert set(outcomes) == {"coordinated", "uncoordinated"}
    for outcome in outcomes.values():
        assert len(outcome.results) == 1
        mean, std = outcome.metric("peak_kw")
        assert mean >= 0.0 and std == 0.0  # single seed


def test_sweep_table_keys():
    table = run(low_sweep(rates=[4.0, 18.0])).sweep_table()
    assert set(table) == {4.0, 18.0}
    for cell in table.values():
        assert set(cell) == {"coordinated", "uncoordinated"}


def test_fig2a_structure():
    figure = fig2a(seed=1, cp_fidelity="ideal", horizon=SHORT)
    assert figure.figure_id == "fig2a"
    assert "Figure 2(a)" in figure.text
    assert "with_coordination" in figure.text
    stats = figure.data["stats"]
    assert stats["with_coordination"].peak_kw <= \
        stats["wo_coordination"].peak_kw + 1e-9


def test_fig2b_reduction_positive():
    figure = fig2b(seeds=SEEDS, cp_fidelity="ideal", rates=[18.0, 30.0],
                   horizon=SHORT)
    assert figure.data["best_reduction_pct"] > 0.0
    assert "peak" in figure.text


def test_fig2c_mean_preserved():
    figure = fig2c(seeds=SEEDS, cp_fidelity="ideal", rates=[30.0],
                   horizon=SHORT)
    entry = figure.data["rates"][30.0]
    with_mean = entry["with"][0]
    wo_mean = entry["without"][0]
    assert with_mean == pytest.approx(wo_mean, rel=0.15)


def test_headline_numbers_fields():
    figure = headline_numbers(seeds=SEEDS, cp_fidelity="ideal")
    for key in ("peak_reduction_max_pct", "std_reduction_max_pct",
                "mean_drift_mean_pct"):
        assert key in figure.data
    assert figure.data["peak_reduction_max_pct"] > 0.0


def test_trace_cp_measurements():
    result = trace_cp(rounds=5, seed=1)
    assert result.mean_delivery > 0.99
    assert 0.0 < result.mean_duration_ms < 2000.0
    assert result.energy_per_round_mj > 0.0
    assert 0.0 < result.radio_duty_cycle < 0.5
    assert result.sync_errors_us and max(result.sync_errors_us) < 100.0


def test_cp_period_sweep_latency_grows():
    figure = cp_period_sweep(periods=(2.0, 60.0), seeds=SEEDS,
                             horizon=SHORT)
    assert figure.data[60.0]["admission_latency_s"] > \
        figure.data[2.0]["admission_latency_s"]


def test_loss_sweep_delivery_degrades():
    figure = loss_sweep(exponents=(3.5, 4.45), seeds=SEEDS, horizon=SHORT)
    assert figure.data[4.45]["flood_delivery"] < \
        figure.data[3.5]["flood_delivery"] + 1e-9
    # even a near-partitioned channel must not break self-admission
    assert figure.data[4.45]["admitted_fraction"] > 0.8


def test_scale_sweep_structure():
    figure = scale_sweep(device_counts=(10, 26), seeds=SEEDS,
                         horizon=SHORT)
    assert set(figure.data) == {10, 26}
    for row in figure.data.values():
        assert row["peak_with"] <= row["peak_wo"] + 1e-9


def test_slots_sweep_structure():
    figure = slots_sweep(specs=((15, 30), (10, 30)), seeds=SEEDS,
                         horizon=SHORT)
    assert (15, 30) in figure.data and (10, 30) in figure.data


def test_scheduler_variants_orders_stagger_first():
    figure = scheduler_variants(seeds=SEEDS, horizon=SHORT)
    assert "stagger/period" in figure.data
    assert "grid" in figure.data
    assert figure.data["stagger/period"]["peak_kw"] > 0


def test_st_vs_at_story():
    figure = st_vs_at(seed=1, report_minutes=5.0)
    data = figure.data
    assert data["energy_ratio"] > 3.0          # AT burns far more radio
    assert data["st_delivery"] > 0.99
    assert data["at_storm_delivered"] <= data["at_jittered_delivered"]


def test_spof_centralized_dies_coordinated_survives():
    figure = spof_comparison(fail_at=30 * MINUTE, seed=3,
                             horizon=150 * MINUTE)
    central = figure.data["centralized"]
    coordinated = figure.data["coordinated"]
    # controller death blocks every future admission
    assert central["admitted_after_failure"] == 0.0
    assert central["completion_after_failure"] == 0.0
    # losing one DI leaves the rest of the fleet fully operational
    assert coordinated["admitted_after_failure"] > 0.95
    assert coordinated["completion_after_failure"] > 0.7
