"""Experiment harness: figures, CP trace, ablations (small configs).

The ablation tests also lock each small config's rendered ``text`` by
its sha256, so a change to how an ablation executes its cells must
reproduce the table byte for byte.
"""

import hashlib

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
    neighborhood_coordination,
    scale_sweep,
    scheduler_variants,
    slots_sweep,
    spof_comparison,
    st_vs_at,
    trace_cp,
)
from repro.experiments.figures import _paper_sweep
from repro.sim.units import MINUTE

SHORT = 90 * MINUTE
SEEDS = (1,)


def text_digest(figure) -> str:
    return hashlib.sha256(figure.text.encode()).hexdigest()


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
    # The paper's "mean equal" holds over its full 350-min run; a short
    # window ends with deferred bursts still pending, so the windowed
    # coordinated mean sits well below the uncoordinated one.
    figure = fig2c(seeds=SEEDS, cp_fidelity="ideal", rates=[30.0])
    entry = figure.data["rates"][30.0]
    with_mean = entry["with"][0]
    wo_mean = entry["without"][0]
    assert with_mean == pytest.approx(wo_mean, rel=0.15)


#: (figure, the sweep metric it reports, where in each entry it sits)
HORIZON_PROBES = [(fig2b, "peak_kw", 0), (fig2c, "std_kw", 1)]


@pytest.mark.parametrize("figure_fn,metric,slot", HORIZON_PROBES)
def test_fig2bc_run_at_the_requested_horizon(figure_fn, metric, slot):
    """``horizon`` reaches the sweep: the figure's numbers are the
    ``_paper_sweep`` table at that horizon, not at the full 350 min."""
    horizon = 30 * MINUTE
    figure = figure_fn(seeds=SEEDS, cp_fidelity="ideal", rates=[30.0],
                       horizon=horizon)
    sweep = _paper_sweep("horizon-probe", SEEDS, rates=[30.0],
                         horizon=horizon, cp_fidelity="ideal")
    entry = figure.data["rates"][30.0]
    for key, policy in (("with", "coordinated"),
                        ("without", "uncoordinated")):
        assert entry[key][slot] == sweep[30.0][policy].metric(metric)[0]


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
    assert text_digest(figure) == ("4c54413b5f003eb2ac7192da3350b270"
                                   "8342d2d2b2ae188bb697b3affce7afc3")


def test_loss_sweep_delivery_degrades():
    figure = loss_sweep(exponents=(3.5, 4.45), seeds=SEEDS, horizon=SHORT)
    assert figure.data[4.45]["flood_delivery"] < \
        figure.data[3.5]["flood_delivery"] + 1e-9
    # even a near-partitioned channel must not break self-admission
    assert figure.data[4.45]["admitted_fraction"] > 0.8
    assert text_digest(figure) == ("358af1e0cfd618b717ec75d809bb1576"
                                   "210c938e99c9db541e83df45aae8980c")


def test_scale_sweep_structure():
    figure = scale_sweep(device_counts=(10, 26), seeds=SEEDS,
                         horizon=SHORT)
    assert set(figure.data) == {10, 26}
    for row in figure.data.values():
        assert row["peak_with"] <= row["peak_wo"] + 1e-9
    assert text_digest(figure) == ("570528fa804fc11aa9ac01e3f6d908a1"
                                   "4d3560f166dd58b8d25252bf5adf6300")


def test_slots_sweep_structure():
    figure = slots_sweep(specs=((15, 30), (10, 30)), seeds=SEEDS,
                         horizon=SHORT)
    assert (15, 30) in figure.data and (10, 30) in figure.data
    assert text_digest(figure) == ("a84c46f9e938759177978f6598da4a67"
                                   "6ca1408120422bd99ec6ecb1e404b0c9")


def test_scheduler_variants_orders_stagger_first():
    figure = scheduler_variants(seeds=SEEDS, horizon=SHORT)
    assert "stagger/period" in figure.data
    assert "grid" in figure.data
    assert figure.data["stagger/period"]["peak_kw"] > 0
    assert text_digest(figure) == ("5eefdd6daba8a9b43045909485876145"
                                   "376d094b14d3af6bf3c2935e16cc974e")


def test_neighborhood_coordination_small_fleets():
    figure = neighborhood_coordination(n_homes=(2, 3), mixes=("mixed",),
                                       cp_fidelity="ideal",
                                       horizon=45 * MINUTE)
    assert set(figure.data) == {("mixed", 2), ("mixed", 3)}
    for row in figure.data.values():
        assert abs(row["energy_drift_pct"]) < 1e-9
    assert text_digest(figure) == ("19f44ba32713cd6a73c576f45a8aff00"
                                   "624454a85301d6d14f9e0c56765b8fdb")


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
