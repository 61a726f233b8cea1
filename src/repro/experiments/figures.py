"""Regeneration of every figure in the paper's evaluation (Figure 2a–c).

Each function returns a plain data structure and a rendered text block, so
the benchmark harness can both assert on the numbers and print the same
series/rows the paper shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.analysis.loadstats import percent_reduction
from repro.analysis.report import format_table, side_by_side_series, sparkline
from repro.api import run as run_spec
from repro.api.spec import ControlSpec, ExperimentSpec, ScenarioSpec, SweepSpec
from repro.sim.units import KILOWATT, MINUTE
from repro.workloads.scenarios import PAPER_RATES, paper_scenario


def _paper_sweep(name: str, seeds: Sequence[int],
                 rates: Sequence[float] = (),
                 policies: Sequence[str] = SweepSpec.policies,
                 scenario: ScenarioSpec = ScenarioSpec(),
                 horizon: Optional[float] = None, **control):
    """Run a (rate x policy x seed) grid of the paper scenario via the API.

    ``scenario`` overrides fields of the paper's high-rate preset and
    ``control`` names :class:`~repro.api.spec.ControlSpec` fields.  With
    ``rates`` the grid comes back as ``{rate: {policy: outcome}}``
    (:meth:`~repro.api.run.Result.sweep_table`); without, as
    ``{policy: outcome}`` (:meth:`~repro.api.run.Result.by_policy`).
    """
    result = run_spec(ExperimentSpec(
        name=name, kind="sweep", scenario=scenario,
        control=ControlSpec(**control), seeds=tuple(seeds),
        until_s=horizon,
        sweep=SweepSpec(rates=tuple(rates), policies=tuple(policies))))
    return result.sweep_table() if rates else result.by_policy()


@dataclass
class FigureData:
    """One regenerated figure: data + rendered text."""

    figure_id: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def fig2a(seed: int = 1, cp_fidelity: str = "round",
          sample_step: float = 1.0 * MINUTE,
          horizon: Optional[float] = None) -> FigureData:
    """Figure 2(a): total load vs time, high rate, with vs w/o coordination."""
    scenario = paper_scenario("high")
    series = {}
    stats = {}
    for policy, label in (("coordinated", "with_coordination"),
                          ("uncoordinated", "wo_coordination")):
        result = run_spec(ExperimentSpec(
            name=f"fig2a-{policy}",
            control=ControlSpec(policy=policy, cp_fidelity=cp_fidelity),
            seeds=(seed,), until_s=horizon)).run_result()
        series[label] = result.load_w
        stats[label] = result.stats(end=horizon)
    end = horizon if horizon is not None else scenario.horizon
    table = side_by_side_series(series, 0.0, end, sample_step,
                                value_scale=1.0 / KILOWATT)
    sparks = "\n".join(
        f"{label:>18}: "
        + sparkline(list(s.sample_grid(0.0, end, sample_step)[1]))
        for label, s in series.items())
    summary = format_table(
        ["series", "peak kW", "mean kW", "std kW", "max step kW"],
        [[label, st.peak_kw, st.mean_kw, st.std_kw, st.max_step_kw]
         for label, st in stats.items()],
        title="Figure 2(a): load vs time (high arrival rate)")
    return FigureData(
        figure_id="fig2a",
        text=f"{summary}\n\n{sparks}\n\n{table}",
        data={"series": series, "stats": stats, "seed": seed})


def fig2b(seeds: Sequence[int] = (1, 2, 3), cp_fidelity: str = "round",
          rates: Optional[Sequence[float]] = None,
          horizon: Optional[float] = None) -> FigureData:
    """Figure 2(b): peak load vs arrival rate, with vs w/o coordination."""
    rates = list(rates) if rates is not None else sorted(PAPER_RATES.values())
    sweep = _paper_sweep("fig2b", seeds, rates=rates, horizon=horizon,
                         cp_fidelity=cp_fidelity)
    rows = []
    data = {}
    for rate in rates:
        with_mean, with_std = sweep[rate]["coordinated"].metric("peak_kw")
        wo_mean, wo_std = sweep[rate]["uncoordinated"].metric("peak_kw")
        reduction = percent_reduction(wo_mean, with_mean)
        rows.append([f"{rate:g}", wo_mean, wo_std, with_mean, with_std,
                     reduction])
        data[rate] = {"with": (with_mean, with_std),
                      "without": (wo_mean, wo_std),
                      "reduction_pct": reduction}
    text = format_table(
        ["rate/h", "w/o peak kW", "±", "with peak kW", "±", "reduction %"],
        rows, title="Figure 2(b): peak load vs arrival rate")
    best = max(d["reduction_pct"] for d in data.values())
    text += f"\npeak-load reduction up to {best:.1f}% (paper: up to 50%)"
    return FigureData(figure_id="fig2b", text=text,
                      data={"rates": data, "best_reduction_pct": best})


def fig2c(seeds: Sequence[int] = (1, 2, 3), cp_fidelity: str = "round",
          rates: Optional[Sequence[float]] = None,
          horizon: Optional[float] = None) -> FigureData:
    """Figure 2(c): average load with deviation bars vs arrival rate.

    The paper's error bars show the *time variation* of the load (its
    standard deviation over the run), which is what coordination shrinks.
    """
    rates = list(rates) if rates is not None else sorted(PAPER_RATES.values())
    sweep = _paper_sweep("fig2c", seeds, rates=rates, horizon=horizon,
                         cp_fidelity=cp_fidelity)
    rows = []
    data = {}
    for rate in rates:
        with_mean, _ = sweep[rate]["coordinated"].metric("mean_kw")
        wo_mean, _ = sweep[rate]["uncoordinated"].metric("mean_kw")
        with_dev, _ = sweep[rate]["coordinated"].metric("std_kw")
        wo_dev, _ = sweep[rate]["uncoordinated"].metric("std_kw")
        reduction = percent_reduction(wo_dev, with_dev)
        rows.append([f"{rate:g}", wo_mean, wo_dev, with_mean, with_dev,
                     reduction])
        data[rate] = {"with": (with_mean, with_dev),
                      "without": (wo_mean, wo_dev),
                      "std_reduction_pct": reduction}
    text = format_table(
        ["rate/h", "w/o avg kW", "±dev", "with avg kW", "±dev",
         "dev reduction %"],
        rows, title="Figure 2(c): average load ± load deviation")
    best = max(d["std_reduction_pct"] for d in data.values())
    text += f"\nload-variation reduction up to {best:.1f}% (paper: up to 58%)"
    return FigureData(figure_id="fig2c", text=text,
                      data={"rates": data, "best_reduction_pct": best})


def headline_numbers(seeds: Sequence[int] = (1, 2, 3, 4, 5),
                     cp_fidelity: str = "round") -> FigureData:
    """§III text: peak ↓ up to 50 %, variation ↓ up to 58 %, mean equal."""
    rates = sorted(PAPER_RATES.values())
    sweep = _paper_sweep("headline", seeds, rates=rates,
                         cp_fidelity=cp_fidelity)
    peak_reductions = []
    std_reductions = []
    mean_drifts = []
    for rate in rates:
        for with_stats, wo_stats in zip(
                sweep[rate]["coordinated"].stats(),
                sweep[rate]["uncoordinated"].stats()):
            peak_reductions.append(percent_reduction(
                wo_stats.peak_kw, with_stats.peak_kw))
            std_reductions.append(percent_reduction(
                wo_stats.std_kw, with_stats.std_kw))
            drift_base = max(wo_stats.mean_kw, 1e-9)
            mean_drifts.append(100.0 * abs(
                with_stats.mean_kw - wo_stats.mean_kw) / drift_base)
    data = {
        "peak_reduction_max_pct": float(np.max(peak_reductions)),
        "peak_reduction_mean_pct": float(np.mean(peak_reductions)),
        "std_reduction_max_pct": float(np.max(std_reductions)),
        "std_reduction_mean_pct": float(np.mean(std_reductions)),
        "mean_drift_mean_pct": float(np.mean(mean_drifts)),
    }
    text = format_table(
        ["metric", "paper", "measured"],
        [["peak reduction (up to)", "50%",
          f"{data['peak_reduction_max_pct']:.1f}%"],
         ["peak reduction (mean)", "-",
          f"{data['peak_reduction_mean_pct']:.1f}%"],
         ["load-variation reduction (up to)", "58%",
          f"{data['std_reduction_max_pct']:.1f}%"],
         ["load-variation reduction (mean)", "-",
          f"{data['std_reduction_mean_pct']:.1f}%"],
         ["average-load drift", "~0%",
          f"{data['mean_drift_mean_pct']:.1f}%"]],
        title="Headline claims (paper §III) vs this reproduction")
    return FigureData(figure_id="headline", text=text, data=data)
