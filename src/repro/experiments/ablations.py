"""Ablations of the scheme's design choices (registry entries ABL-*;
``repro list`` prints them, ``docs/architecture.md`` maps the layers).

Each function returns a :class:`~repro.experiments.figures.FigureData` whose
``text`` is the printable table and whose ``data`` carries the raw numbers
for assertions in the bench harness.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from repro.analysis.loadstats import percent_reduction
from repro.analysis.report import format_table
from repro.api import run as run_spec
from repro.api.spec import (
    ControlSpec,
    ExperimentSpec,
    FeederPlan,
    FleetPlan,
    GridPlan,
    ScenarioSpec,
)
from repro.core.system import HanConfig, HanSystem
from repro.experiments.cp_trace import trace_cp
from repro.experiments.figures import FigureData, _paper_sweep
from repro.mac.collection import CollectionNetwork
from repro.radio.medium import CsmaMedium
from repro.radio.topology import flocklab26
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import HOUR, MINUTE
from repro.workloads.scenarios import paper_scenario


def _load_summary(results, horizon: Optional[float]) -> dict:
    """Seed-mean peak and deviation of the load, and the mean wait."""
    stats = [r.stats(end=horizon) for r in results]
    waits = [wait for r in results for wait in r.waiting_times()]
    return {"peak_kw": float(np.mean([s.peak_kw for s in stats])),
            "std_kw": float(np.mean([s.std_kw for s in stats])),
            "wait_min": float(np.mean(waits)) / MINUTE if waits else 0.0}


def _policy_runs(name: str, policy: str, seeds: Sequence[int],
                 horizon: Optional[float], **control) -> list:
    """One policy's paper-high runs under one control setting, per seed."""
    return _paper_sweep(name, seeds, policies=(policy,), horizon=horizon,
                        **control)[policy].results


def cp_period_sweep(periods: Sequence[float] = (0.5, 2.0, 10.0, 60.0),
                    seeds: Sequence[int] = (1, 2),
                    horizon: Optional[float] = None) -> FigureData:
    """ABL-CP-PERIOD: how the 2 s MiniCast period affects coordination.

    The CP period bounds request-dissemination (hence admission) latency;
    at 15-minute slots even a 60 s period barely moves the load shape —
    evidence the paper's 2 s choice is comfortably conservative.
    """
    rows = []
    data = {}
    for period in periods:
        results = _policy_runs(f"abl-cp-period-{period:g}", "coordinated",
                               seeds, horizon, cp_period=period)
        admission_lat = []
        for result in results:
            admission_lat.extend(
                r.admitted_at - r.arrival_time for r in result.requests
                if r.admitted_at is not None)
        row = {
            "period_s": period,
            "admission_latency_s": float(np.mean(admission_lat))
            if admission_lat else 0.0,
            **_load_summary(results, horizon),
        }
        data[period] = row
        rows.append([f"{period:g}", row["admission_latency_s"],
                     row["peak_kw"], row["std_kw"], row["wait_min"]])
    text = format_table(
        ["CP period s", "admission lat s", "peak kW", "std kW",
         "wait min"],
        rows, title="ABL-CP-PERIOD: MiniCast period sweep (coordinated)")
    return FigureData(figure_id="abl-cp-period", text=text, data=data)


def loss_sweep(exponents: Sequence[float] = (3.5, 4.3, 4.4, 4.45),
               seeds: Sequence[int] = (1, 2),
               horizon: Optional[float] = None) -> FigureData:
    """ABL-LOSS: coordination robustness to a degrading radio channel.

    Concurrent-flood dissemination is famously binary — constructive
    interference keeps delivery near 100% until the topology approaches
    partition, so the sweep walks the path-loss exponent across that
    cliff (3.5 = the FlockLab-like default; 4.45 ≈ 60-70% per-round
    delivery).  DIs always see their *own* requests, so admission never
    stalls; what degrades gracefully is coordination quality (peaks and
    variance creep toward the uncoordinated baseline as views go stale).
    """
    rows = []
    data = {}
    for exponent in exponents:
        results = _policy_runs(f"abl-loss-{exponent:g}", "coordinated",
                               seeds, horizon, path_loss_exponent=exponent)
        delivery = float(np.mean(
            [r.cp_calibration.mean_delivery for r in results]))
        cp_ratio = float(np.mean(
            [r.cp_stats.delivery_ratio for r in results]))
        admitted = float(np.mean(
            [sum(1 for q in r.requests if q.admitted_at is not None)
             / max(len(r.requests), 1) for r in results]))
        row = {
            "exponent": exponent,
            "flood_delivery": delivery,
            "cp_delivery": cp_ratio,
            "admitted_fraction": admitted,
            **_load_summary(results, horizon),
        }
        data[exponent] = row
        rows.append([f"{exponent:g}", delivery, cp_ratio, admitted,
                     row["peak_kw"], row["std_kw"], row["wait_min"]])
    text = format_table(
        ["path-loss exp", "flood delivery", "CP delivery", "admitted",
         "peak kW", "std kW", "wait min"],
        rows, title="ABL-LOSS: channel degradation sweep (coordinated)")
    return FigureData(figure_id="abl-loss", text=text, data=data)


def _coordination_gap(scenario: ScenarioSpec, seeds: Sequence[int],
                      horizon: Optional[float]) -> dict:
    """Seed-mean peaks with vs without coordination on one scenario."""
    outcomes = _paper_sweep(scenario.name, seeds, scenario=scenario,
                            horizon=horizon)
    wo, with_ = (_load_summary(outcomes[policy].results, horizon)
                 for policy in ("uncoordinated", "coordinated"))
    return {"peak_wo": wo["peak_kw"], "peak_with": with_["peak_kw"],
            "peak_reduction_pct": percent_reduction(wo["peak_kw"],
                                                    with_["peak_kw"]),
            "std_reduction_pct": percent_reduction(wo["std_kw"],
                                                   with_["std_kw"])}


def _gap_row(label, gap: dict) -> list:
    return [label, gap["peak_wo"], gap["peak_with"],
            gap["peak_reduction_pct"], gap["std_reduction_pct"]]


def scale_sweep(device_counts: Sequence[int] = (10, 26, 40, 60),
                seeds: Sequence[int] = (1, 2),
                horizon: Optional[float] = None) -> FigureData:
    """ABL-SCALE: benefit vs fleet size at constant per-device demand."""
    base = paper_scenario("high")
    per_device_rate = base.arrival_rate_per_hour / base.n_devices
    rows = []
    data = {}
    for n in device_counts:
        data[n] = {"n": n, **_coordination_gap(
            ScenarioSpec(name=f"scale-{n}", n_devices=n,
                         rate_per_hour=per_device_rate * n),
            seeds, horizon)}
        rows.append(_gap_row(n, data[n]))
    text = format_table(
        ["devices", "w/o peak kW", "with peak kW", "peak red %",
         "std red %"],
        rows, title="ABL-SCALE: fleet-size sweep (per-device rate const)")
    return FigureData(figure_id="abl-scale", text=text, data=data)


def slots_sweep(specs: Sequence[tuple[float, float]] = ((15, 30), (10, 30),
                                                        (15, 45), (5, 30)),
                seeds: Sequence[int] = (1, 2),
                horizon: Optional[float] = None) -> FigureData:
    """ABL-SLOTS: sensitivity to the minDCD/maxDCP working point."""
    rows = []
    data = {}
    for min_dcd_min, max_dcp_min in specs:
        gap = _coordination_gap(
            ScenarioSpec(name=f"spec-{min_dcd_min:g}-{max_dcp_min:g}",
                         min_dcd_s=min_dcd_min * MINUTE,
                         max_dcp_s=max_dcp_min * MINUTE),
            seeds, horizon)
        data[(min_dcd_min, max_dcp_min)] = {
            "peak_reduction_pct": gap["peak_reduction_pct"],
            "std_reduction_pct": gap["std_reduction_pct"]}
        rows.append(_gap_row(f"{min_dcd_min:g}/{max_dcp_min:g}", gap))
    text = format_table(
        ["minDCD/maxDCP min", "w/o peak kW", "with peak kW",
         "peak red %", "std red %"],
        rows, title="ABL-SLOTS: duty-cycle constraint sweep")
    return FigureData(figure_id="abl-slots", text=text, data=data)


def scheduler_variants(seeds: Sequence[int] = (1, 2, 3),
                       horizon: Optional[float] = None) -> FigureData:
    """ABL-VARIANTS: stagger vs grid placement, period vs strict deferral.

    Exercised through a patched scheduler config on otherwise identical
    systems; shows why continuous staggering with full-period latitude is
    the primary mode.
    """
    scenario = paper_scenario("high")
    variants = [
        ("stagger/period", {"mode": "stagger", "deferral": "period"}),
        ("stagger/strict", {"mode": "stagger", "deferral": "strict"}),
        ("grid", {"mode": "grid"}),
    ]
    baseline = _load_summary(_policy_runs(
        "abl-variants-baseline", "uncoordinated", seeds, horizon), horizon)
    wo_peak, wo_std = baseline["peak_kw"], baseline["std_kw"]
    rows = [["uncoordinated", wo_peak, wo_std, "-", "-", "-"]]
    data = {"uncoordinated": {"peak_kw": wo_peak, "std_kw": wo_std}}
    for label, overrides in variants:
        results = []
        for seed in seeds:
            system = HanSystem(HanConfig(
                scenario=scenario, policy="coordinated",
                cp_fidelity="round", seed=seed))
            system.sched_config = replace(system.sched_config, **overrides)
            for agent in system.agents.values():
                agent.config = system.sched_config
            results.append(system.run(until=horizon))
        row = _load_summary(results, horizon)
        row["peak_reduction_pct"] = percent_reduction(wo_peak,
                                                      row["peak_kw"])
        row["std_reduction_pct"] = percent_reduction(wo_std, row["std_kw"])
        data[label] = row
        rows.append([label, row["peak_kw"], row["std_kw"],
                     row["peak_reduction_pct"], row["std_reduction_pct"],
                     row["wait_min"]])
    text = format_table(
        ["variant", "peak kW", "std kW", "peak red %", "std red %",
         "wait min"],
        rows, title="ABL-VARIANTS: scheduler placement variants")
    return FigureData(figure_id="abl-variants", text=text, data=data)


def _run_fleet(name: str, fleet: FleetPlan, seed: int, cp_fidelity: str,
               horizon: Optional[float], jobs: int):
    """One ``neighborhood`` spec through the API: its NeighborhoodResult."""
    return run_spec(ExperimentSpec(
        name=name, kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=horizon),
        control=ControlSpec(cp_fidelity=cp_fidelity), seeds=(seed,),
        until_s=horizon, fleet=fleet), jobs=jobs).neighborhood


def neighborhood_coordination(n_homes: Sequence[int] = (6, 12),
                              mixes: Sequence[str] = ("suburb",
                                                      "apartments",
                                                      "mixed"),
                              seed: int = 1,
                              cp_fidelity: str = "round",
                              horizon: Optional[float] = None,
                              jobs: int = 1) -> FigureData:
    """NBHD-COORD: feeder-level coordination vs independent homes.

    For every (fleet mix, fleet size) cell, runs one ``neighborhood``
    spec with the feeder collaboration plane on
    (``fleet.coordination: "feeder"``) — one run yields both sides,
    since the independent baseline profile rides along in the
    :class:`~repro.neighborhood.coordination.FeederCoordination` record.
    Reports the diversity factor with and without cross-home staggering,
    the coincident-peak reduction, and the (identically zero) per-home
    energy drift.
    """
    rows = []
    data = {}
    for mix in mixes:
        for n in n_homes:
            result = _run_fleet(
                f"nbhd-coord-{mix}-{n}",
                FleetPlan(homes=n, mix=mix, coordination="feeder"),
                seed, cp_fidelity, horizon, jobs)
            comparison = result.comparison()
            row = {
                "mix": mix,
                "n_homes": n,
                "df_independent": comparison.independent.diversity_factor,
                "df_coordinated": comparison.coordinated.diversity_factor,
                "diversity_uplift": comparison.diversity_uplift,
                "peak_reduction_pct": comparison.peak_reduction_pct,
                "variation_reduction_pct":
                    comparison.variation_reduction_pct,
                "energy_drift_pct": comparison.energy_drift_pct,
                "applied": result.coordination.applied,
            }
            data[(mix, n)] = row
            rows.append([mix, n,
                         f"{row['df_independent']:.3f}",
                         f"{row['df_coordinated']:.3f}",
                         f"{row['diversity_uplift']:.3f}x",
                         row["peak_reduction_pct"],
                         f"{row['energy_drift_pct']:.2e}"])
    text = format_table(
        ["mix", "homes", "DF indep", "DF coord", "uplift",
         "peak red %", "energy drift %"],
        rows,
        title="NBHD-COORD: feeder-level coordination vs independent homes")
    return FigureData(figure_id="nbhd-coord", text=text, data=data)


def st_vs_at(seed: int = 1, report_minutes: float = 10.0) -> FigureData:
    """ABL-ST-VS-AT: the intro's motivation, quantified.

    Compares the ST Communication Plane against the traditional AT stack
    on the same 26-node topology:

    * per-node radio energy per hour (ST duty-cycled rounds vs always-on
      CSMA listening),
    * time until one request is known network-wide (one MiniCast round vs
      report-to-controller + dissemination),
    * behaviour when 26 reports collide (a request storm).
    """
    # --- ST side: measured by the slot-level CP trace -------------------
    st = trace_cp(rounds=25, seed=seed)
    st_energy_per_hour = st.energy_per_round_mj * (HOUR / 2.0) / 1e3  # J
    st_latency_s = st.mean_duration_ms / 1e3

    # --- AT side: CSMA + collection tree -------------------------------
    def run_at(jitter_s: float) -> dict:
        """One AT trial: 25 reports spread over ``jitter_s`` seconds."""
        streams = RandomStreams(seed)
        topo = flocklab26()
        channel = topo.make_channel(rng=streams.stream("channel"))
        sim = Simulator()
        medium = CsmaMedium(sim, channel, streams.stream("csma-medium"))
        delivered_at: dict[int, float] = {}
        informed_at: dict[int, float] = {}
        network = CollectionNetwork(
            sim, channel, medium, list(range(topo.n)), sink=0,
            rng_factory=lambda name: streams.stream(name),
            on_report=lambda rep: delivered_at.setdefault(
                rep.origin, sim.now),
            on_schedule=lambda node, bundle: informed_at.setdefault(
                node, sim.now))
        jitter_rng = streams.stream("jitter")

        def traffic(sim: Simulator):
            offsets = sorted(jitter_rng.uniform(0.0, max(jitter_s, 1e-9))
                             for _ in range(topo.n - 1))
            start = sim.now
            for origin, offset in zip(range(1, topo.n), offsets):
                gap = start + offset - sim.now
                if gap > 0:
                    yield sim.timeout(gap)
                network.submit_report(origin, ("request", origin))
            yield sim.timeout(2.0)
            network.disseminate(1, ("decisions",))

        sim.spawn(traffic(sim))
        sim.run(until=report_minutes * MINUTE)
        for node in network.nodes.values():
            node.finalize_energy()
        return {
            "delivered": len(delivered_at),
            "collect_makespan": (max(delivered_at.values())
                                 if delivered_at else float("nan")),
            "informed": len(informed_at),
            "energy_per_hour": float(np.mean(
                [n.energy.energy_joules()
                 for n in network.nodes.values()])) * HOUR / sim.now,
        }

    at_storm = run_at(jitter_s=0.0)       # everyone presses at once
    at_jittered = run_at(jitter_s=2.0)    # spread over one CP period

    data = {
        "st_energy_j_per_hour": st_energy_per_hour,
        "at_energy_j_per_hour": at_jittered["energy_per_hour"],
        "energy_ratio": at_jittered["energy_per_hour"]
        / max(st_energy_per_hour, 1e-9),
        "st_all_informed_s": st_latency_s,
        "at_jittered_makespan_s": at_jittered["collect_makespan"],
        "at_jittered_delivered": at_jittered["delivered"],
        "at_storm_delivered": at_storm["delivered"],
        "at_nodes_informed": at_jittered["informed"],
        "st_delivery": st.mean_delivery,
    }
    text = format_table(
        ["metric", "ST (MiniCast)", "AT (CSMA + tree)"],
        [["radio energy / node / hour",
          f"{st_energy_per_hour:.1f} J",
          f"{at_jittered['energy_per_hour']:.1f} J"],
         ["all 25 requests known (jittered over 2 s)",
          f"{st_latency_s * 1e3:.0f} ms (one round)",
          f"{at_jittered['collect_makespan'] * 1e3:.0f} ms, "
          f"{at_jittered['delivered']}/25 delivered"],
         ["all 25 requests known (simultaneous storm)",
          f"{st_latency_s * 1e3:.0f} ms (one round)",
          f"{at_storm['delivered']}/25 delivered"],
         ["schedule dissemination",
          "same round", f"{at_jittered['informed']}/26 informed"],
         ["all-to-all delivery", f"{st.mean_delivery:.4f}", "n/a"]],
        title="ABL-ST-VS-AT: synchronous vs asynchronous stacks")
    text += (f"\nAT spends {data['energy_ratio']:.0f}x the ST radio energy "
             f"(always-on listening vs 2 s duty-cycled rounds); a "
             f"synchronized request storm collapses AT collection "
             f"({at_storm['delivered']}/25) while one ST round carries "
             f"everything.")
    return FigureData(figure_id="abl-st-vs-at", text=text, data=data)


def spof_comparison(fail_at: float = 120 * MINUTE, seed: int = 3,
                    horizon: Optional[float] = None) -> FigureData:
    """ABL-SPOF: controller death vs DI death.

    Centralized: killing the controller halts all future admissions.
    Decentralized: killing one DI only takes that device's share down.
    """
    scenario = paper_scenario("high")
    end = horizon if horizon is not None else scenario.horizon
    data = {}

    # --- centralized with a controller failure --------------------------
    system = HanSystem(HanConfig(scenario=scenario, policy="centralized",
                                 cp_fidelity="ideal", seed=seed))

    def kill_controller(sim):
        yield sim.timeout(fail_at)
        system.controller.fail()

    system.sim.spawn(kill_controller(system.sim))
    central = system.run(until=end)
    data["centralized"] = _post_failure_completion(central, fail_at,
                                                   exclude=set())

    # --- coordinated with one DI failure ---------------------------------
    system = HanSystem(HanConfig(scenario=scenario, policy="coordinated",
                                 cp_fidelity="round", seed=seed))
    victim = system.config.controller_id

    def kill_di(sim):
        yield sim.timeout(fail_at)
        system.cp.fail_node(victim)

    system.sim.spawn(kill_di(system.sim))
    coordinated = system.run(until=end)
    data["coordinated"] = _post_failure_completion(coordinated, fail_at,
                                                   exclude={victim})

    rows = [[label,
             f"{values['requests_after_failure']}",
             f"{100 * values['admitted_after_failure']:.0f}%",
             f"{100 * values['completion_after_failure']:.0f}%"]
            for label, values in data.items()]
    text = format_table(
        ["architecture", "requests after failure", "still admitted",
         "still completed"],
        rows,
        title=f"ABL-SPOF: failure at t={fail_at / MINUTE:.0f} min "
              "(controller vs one DI)")
    return FigureData(figure_id="abl-spof", text=text, data=data)


def _post_failure_completion(result, fail_at: float,
                             exclude: set[int]) -> dict:
    margin = 35 * MINUTE  # exclude the horizon tail where nothing completes
    late = [r for r in result.requests
            if fail_at <= r.arrival_time < result.horizon - margin
            and r.device_id not in exclude]
    admitted = sum(1 for r in late if r.admitted_at is not None)
    done = sum(1 for r in late if r.completed_at is not None)
    return {"requests_after_failure": len(late),
            "admitted_after_failure": admitted / len(late) if late else 1.0,
            "completion_after_failure": done / len(late) if late else 1.0}


def grid_uplift(feeders: int = 20, homes: int = 500, mix: str = "suburb",
                seed: int = 1, cp_fidelity: str = "ideal",
                horizon: Optional[float] = 10 * MINUTE,
                jobs: int = 1) -> FigureData:
    """GRID-10K: substation-tier diversity uplift on a multi-feeder grid.

    Builds a grid of ``feeders`` identical feeder plans (``homes`` homes
    each — the registry defaults make the 10,000-home / 20-feeder
    flagship) and runs it once as a ``grid`` spec in ``"substation"``
    mode: per-feeder CP rounds first, then feeder-level phase envelopes
    negotiating at the substation
    (:func:`repro.neighborhood.grid.execute_grid`).  One run
    yields both sides of the comparison — the fully-independent
    substation profile is the partition-invariant exact sum that rides
    along in every :class:`~repro.neighborhood.grid.GridResult`.

    The rendered text embeds a digest over the substation and
    independent profile bits, so the committed artefact is a golden
    lock on grid *execution*, not merely on its summary statistics.
    """
    import hashlib
    result = run_spec(ExperimentSpec(
        name=f"grid-{feeders}feeders-{feeders * homes}homes", kind="grid",
        scenario=ScenarioSpec(horizon_s=horizon),
        control=ControlSpec(cp_fidelity=cp_fidelity), seeds=(seed,),
        grid=GridPlan(feeders=(FeederPlan(homes=homes, mix=mix),) * feeders,
                      coordination="substation")), jobs=jobs).grid
    grid = result.grid
    comparison = result.comparison()
    digest = hashlib.sha256(repr((
        tuple(result.independent_w.times),
        tuple(result.independent_w.values),
        tuple(result.substation_w.times),
        tuple(result.substation_w.values),
        result.coordination.offsets_s,
    )).encode()).hexdigest()
    data = {
        "n_feeders": result.n_feeders,
        "n_homes": result.n_homes,
        "total_devices": grid.total_devices,
        "requests": result.total_requests(),
        "df_independent": comparison.independent.diversity_factor,
        "df_coordinated": comparison.coordinated.diversity_factor,
        "diversity_uplift": comparison.diversity_uplift,
        "peak_independent_kw": comparison.independent.coincident_peak_kw,
        "peak_coordinated_kw": comparison.coordinated.coincident_peak_kw,
        "peak_reduction_pct": comparison.peak_reduction_pct,
        "energy_drift_pct": comparison.energy_drift_pct,
        "applied": result.coordination.applied,
        "digest": digest,
    }
    rows = [
        ["feeders x homes", f"{feeders} x {homes} = {result.n_homes}"],
        ["devices", f"{grid.total_devices}"],
        ["requests", f"{data['requests']}"],
        ["DF independent", f"{data['df_independent']:.3f}"],
        ["DF coordinated", f"{data['df_coordinated']:.3f}"],
        ["diversity uplift", f"{data['diversity_uplift']:.4f}x"],
        ["peak independent", f"{data['peak_independent_kw']:.2f} kW"],
        ["peak coordinated", f"{data['peak_coordinated_kw']:.2f} kW"],
        ["peak reduction", f"{data['peak_reduction_pct']:.1f}%"],
        ["energy drift", f"{data['energy_drift_pct']:.2e}%"],
        ["substation plan", "applied" if data["applied"] else "declined"],
        ["profile digest", digest[:16]],
    ]
    text = format_table(
        ["metric", "value"], rows,
        title=f"GRID-10K: substation coordination over {feeders} feeders "
              f"(seed {seed}, {cp_fidelity} CP)")
    return FigureData(figure_id="grid-10k", text=text, data=data)


def online_uplift(homes: int = 500, mix: str = "suburb", seed: int = 1,
                  cp_fidelity: str = "ideal",
                  horizon: Optional[float] = 10 * MINUTE,
                  epoch: Optional[float] = 2 * MINUTE,
                  noises: Sequence[float] = (0.1, 0.25, 0.5),
                  jobs: int = 1) -> FigureData:
    """NBHD-ONLINE: online epoch replanning vs post-hoc coordination.

    Runs one fleet once (an independent ``neighborhood`` spec), then
    replays the *same* per-home results through the online epoch loop
    (:func:`repro.neighborhood.online.coordinate_fleet_online`) under
    increasingly degraded information: the perfect-hindsight oracle,
    the oracle with multiplicative per-bin noise at each amplitude in
    ``noises``, and the history-only persistence and EWMA baselines.

    The yardstick is the *hindsight ceiling*: an oracle run with
    ``replan="cold"`` — full from-scratch negotiation on realized
    envelopes every epoch, the best plan the per-epoch actuator can
    reach with all data in hand.  Each sweep entry's *recovery
    fraction* is its share of the ceiling's peak reduction; the
    headline number is the oracle's, which isolates the cost of the
    incremental diff-and-renegotiate path (claim seeding, changed-homes
    tokens) from prediction error.  The classic full-horizon post-hoc
    plan (``"feeder"`` mode, free to move load *across* epoch
    boundaries — a structurally different actuator) is reported
    alongside for context, not used as the denominator.

    The rendered text embeds a digest over the oracle run's coordinated
    profile bits, per-epoch offsets and telemetry journal, so the
    committed artefact is a golden lock on online *execution*.
    """
    import hashlib

    from repro.neighborhood import (
        ForecastConfig,
        coordinate_fleet,
        coordinate_fleet_online,
    )
    from repro.neighborhood.coordination import FeederConfig
    baseline = _run_fleet(f"nbhd-online-{mix}-{homes}",
                          FleetPlan(homes=homes, mix=mix), seed,
                          cp_fidelity, horizon, jobs)
    fleet = baseline.fleet
    results = baseline.homes
    config = FeederConfig(epoch=epoch)
    posthoc = coordinate_fleet(fleet, results, horizon, config=config)
    ind_peak = posthoc.independent_w.maximum(0.0, horizon)
    posthoc_peak = posthoc.coordinated_w.maximum(0.0, horizon)

    def online(forecast: ForecastConfig, replan: str = "diff"):
        return coordinate_fleet_online(fleet, results, horizon,
                                       config=config, forecast=forecast,
                                       replan=replan)

    ceiling = online(ForecastConfig(forecaster="oracle"), replan="cold")
    ceiling_peak = ceiling.coordinated_w.maximum(0.0, horizon)
    ceiling_cut = ind_peak - ceiling_peak

    def recovery(plan) -> float:
        cut = ind_peak - plan.coordinated_w.maximum(0.0, horizon)
        return cut / ceiling_cut if ceiling_cut > 0.0 else 0.0

    oracle = online(ForecastConfig(forecaster="oracle"))
    sweep = [("oracle", oracle)]
    for noise in noises:
        sweep.append((f"oracle+noise{noise:g}",
                      online(ForecastConfig(forecaster="oracle",
                                            noise=noise))))
    for name in ("persistence", "ewma"):
        sweep.append((name, online(ForecastConfig(forecaster=name))))

    digest = hashlib.sha256(repr((
        tuple(oracle.coordinated_w.times),
        tuple(oracle.coordinated_w.values),
        tuple(outcome.offsets_s for outcome in oracle.epochs),
        oracle.telemetry_digest,
    )).encode()).hexdigest()
    drift = oracle.coordinated_w.integral(0.0, horizon) \
        - oracle.independent_w.integral(0.0, horizon)
    data = {
        "n_homes": fleet.n_homes,
        "requests": baseline.total_requests(),
        "n_epochs": oracle.n_epochs,
        "peak_independent_kw": ind_peak / 1e3,
        "peak_posthoc_kw": posthoc_peak / 1e3,
        "peak_ceiling_kw": ceiling_peak / 1e3,
        "ceiling_reduction_kw": ceiling_cut / 1e3,
        "ceiling_cp_deliveries": ceiling.cp_stats.deliveries,
        "oracle_cp_deliveries": oracle.cp_stats.deliveries,
        "oracle_recovery": recovery(oracle),
        "oracle_energy_drift_wh": drift / 3600.0,
        "telemetry_events": oracle.telemetry_events,
        "sweep": {label: {
            "peak_kw": plan.coordinated_w.maximum(0.0, horizon) / 1e3,
            "recovery": recovery(plan),
            "epochs_applied": plan.epochs_applied,
            "replanned_homes": plan.replanned_homes,
            "cp_rounds": plan.cp_stats.rounds_total,
        } for label, plan in sweep},
        "digest": digest,
    }
    rows = [
        ["homes / epochs", f"{fleet.n_homes} / {oracle.n_epochs}"],
        ["requests", f"{data['requests']}"],
        ["peak independent", f"{data['peak_independent_kw']:.2f} kW"],
        ["peak hindsight ceiling", f"{data['peak_ceiling_kw']:.2f} kW "
                                   f"(cold replan, "
                                   f"{data['ceiling_cp_deliveries']} "
                                   f"CP deliveries)"],
        ["peak post-hoc full-horizon", f"{data['peak_posthoc_kw']:.2f} "
                                       f"kW (cross-epoch actuator)"],
    ]
    for label, plan in sweep:
        entry = data["sweep"][label]
        rows.append([f"peak {label}",
                     f"{entry['peak_kw']:.2f} kW "
                     f"({entry['recovery'] * 100.0:.1f}% recovered, "
                     f"{entry['epochs_applied']}/{oracle.n_epochs} "
                     f"epochs)"])
    rows += [
        ["oracle energy drift", f"{data['oracle_energy_drift_wh']:.2e} Wh"],
        ["telemetry events", f"{data['telemetry_events']}"],
        ["profile digest", digest[:16]],
    ]
    text = format_table(
        ["metric", "value"], rows,
        title=f"NBHD-ONLINE: per-epoch online coordination over "
              f"{fleet.n_homes} homes (seed {seed}, {cp_fidelity} CP)")
    return FigureData(figure_id="nbhd-online", text=text, data=data)
