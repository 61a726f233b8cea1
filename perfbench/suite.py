"""The four workloads: inputs, set-up, ops and output checks.

Every workload is a closed loop with one client.  Its ops come in
fixed *cycles* (one pass over the workload's configurations), all
inputs derive from the workload seed, and a run always measures whole
cycles so every run sees the same mix.  A *cold* op computes a result;
a *warm* op asks again for a result already computed and is answered
from the program's result store — the service front door on
service-mix, the ``run(spec, cache=...)`` result cache elsewhere.

Why these four: each is the only one in which its layers do most of
the work.

* ``home-round`` — the paper's own experiment (one 26-device FlockLab
  home, round-fidelity CP, 350 min).  The only workload that runs CP
  calibration, the sampled CP round loop and the MAC collection stack.
* ``fleet-100`` — a 100-home feeder-coordinated neighborhood at ideal
  CP over the worker pool, auto-sharded over shared memory: pool,
  shard, transport, aggregation and serial negotiation.  Bypasses radio
  calibration.
* ``online-replay`` — per-epoch online coordination replayed over one
  fixed 100-home fleet result: coordination, telemetry, forecast and
  fault planes with no home simulation at all.
* ``service-mix`` — the durable service plane: warm re-submits (reads)
  beside cold submits (queue, lease, execute, publish).

Both fleets have 100 homes, not the 500 of the repository's fleet
target: a 500-home op takes 5-10 s on a two-core machine, so a run of
the benchmark's length would hold only two or three of them and its
medians would be noise.
"""

from __future__ import annotations

import importlib
import math
import os
import random
from typing import Optional

from harness import (
    Op,
    check,
    derive_seed,
    digest,
    fresh_dir,
    series_arrays,
)

import repro.neighborhood.online as online_module
from repro.api import (
    ControlSpec,
    ExperimentSpec,
    FleetPlan,
    ResultCache,
    ScenarioSpec,
    spec_hash,
)
from repro.experiments.pool import shutdown_all
from repro.faults import FaultPlan, fault_scope
from repro.neighborhood import ForecastConfig
from repro.neighborhood.coordination import FeederConfig
from repro.service import ServiceClient, ServiceStore, WorkerDaemon
from repro.sim.units import MINUTE

from catalog import ONLINE_CONFIGS

# Called through the module attributes, so the traced run's wrappers
# (installed on those attributes) see the benchmark's own calls.
api_run = importlib.import_module("repro.api.run")

#: Worker processes for pooled workloads: every core, at most two.
NPROC = max(1, min(2, os.cpu_count() or 1))
RATES = ("paper-low", "paper-moderate", "paper-high")
POLICIES = ("coordinated", "uncoordinated", "centralized")
#: Seed of the untimed warm-up inputs, fixed so set-up is the same
#: work on every workload seed.
WARMUP_SEED = 424242


# -- output fingerprints and invariants ---------------------------------------


def home_digest(result) -> str:
    """Fingerprint of one home run; also checks its energy balance.

    The meter integral must equal the energy of the recorded appliance
    bursts (both fsum-exact here, so any drift beyond rounding is a
    lost or invented burst).
    """
    horizon = result.horizon
    power = result.config.scenario.device_power_w
    bursts = math.fsum(
        power * (min(off if off is not None else horizon, horizon) - on)
        for history in result.bursts.values()
        for on, off in history if on < horizon)
    metered = result.load_w.integral(0.0, horizon)
    check(abs(metered - bursts) <= 1e-9 * max(abs(bursts), 1.0),
          f"home energy drift {(metered - bursts) / 3600.0:.3e} Wh")
    cp = result.cp_stats
    at = result.at_stats
    return digest(
        *series_arrays(result.load_w),
        (cp.rounds_total, cp.rounds_active, cp.deliveries, cp.misses)
        if cp is not None else None,
        (at.reports_sent, at.reports_delivered, at.dropped_channel_busy,
         at.dropped_no_ack) if at is not None else None,
        len(result.requests), result.completed_requests())


def energy_drift_wh(plan, horizon: float) -> float:
    """Coordinated minus independent feeder energy, in Wh."""
    return (plan.coordinated_w.integral(0.0, horizon)
            - plan.independent_w.integral(0.0, horizon)) / 3600.0


def check_coordination(plan, horizon: float) -> None:
    """Rotation conserves energy and never raises the peak.

    Energy must balance to float rounding: 1e-11 of the feeder energy,
    far below one lost appliance burst (hundreds of Wh).  The program
    states the online loop's drift as exactly 0.0 Wh, but on some
    500-home fleets it is a few 1e-10 Wh; the exact value is reported
    as ``neighborhood.coordination.energy_drift_wh`` rather than failed.
    """
    energy = plan.independent_w.integral(0.0, horizon) / 3600.0
    drift = energy_drift_wh(plan, horizon)
    check(abs(drift) <= 1e-11 * energy, f"energy drift {drift!r} Wh")
    check(plan.coordinated_w.maximum(0.0, horizon)
          <= plan.independent_w.maximum(0.0, horizon),
          "coordinated peak above independent")


def neighborhood_digest(neighborhood) -> str:
    plan = neighborhood.coordination
    if plan is None:  # an uncoordinated fleet
        return digest(*series_arrays(neighborhood.feeder_w),
                      neighborhood.total_requests())
    check_coordination(plan, neighborhood.horizon)
    cp = plan.cp_stats
    return digest(*series_arrays(neighborhood.feeder_w),
                  *series_arrays(plan.independent_w),
                  tuple(plan.offsets_s), plan.sweeps, plan.applied,
                  (cp.rounds_total, cp.deliveries),
                  neighborhood.total_requests())


def result_digest(result) -> str:
    """Fingerprint of a :class:`repro.api.Result` of any benchmarked kind."""
    if result.neighborhood is not None:
        return neighborhood_digest(result.neighborhood)
    return digest(*(home_digest(one) for one in result.runs))


# -- workloads ----------------------------------------------------------------


class Workload:
    """Base: a seeded source of op cycles over per-run scratch state."""

    name = ""
    #: set-ups timed per run; ``setup_s`` is their median
    setup_repeats = 3
    #: warm re-submits per cold op, each of an already computed input
    warm_per_cold = 3
    #: cycles one result store serves before the loop starts a fresh
    #: one.  Every store lookup and queue operation rewrites or scans a
    #: per-store index, so op cost grows with the entries stored; a
    #: bounded store keeps it from depending on how many ops a run
    #: gets through (service-mix ops cost 4x more after 400 cycles).
    store_cycles = 1
    #: cycles in the traced run's fixed op list
    trace_cycles = 1

    def __init__(self, seed: int, scratch):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def reset_store(self) -> None:
        self.cache = ResultCache(fresh_dir(self.scratch, "cache"))

    def begin_pass(self) -> None:
        """Fresh stores, so a later pass over the same ops is cold again."""
        self.reset_store()

    def verify(self) -> int:
        """Post-loop checks; returns how many ops they failed."""
        return 0

    def counts(self, records) -> dict:
        """Exact per-layer metrics from the traced pass's op records."""
        return {}


class HomeRound(Workload):
    name = "home-round"

    def spec(self, policy: str, preset: str, home_seed: int):
        return ExperimentSpec(
            name=f"home-round-{policy}-{preset}",
            scenario=ScenarioSpec(preset=preset),
            control=ControlSpec(policy=policy, cp_fidelity="round"),
            seeds=(home_seed,))

    def setup(self) -> None:
        self.reset_store()
        for policy in POLICIES:
            api_run.run(self.spec(policy, "paper-moderate", WARMUP_SEED))

    def cycle(self, index: int) -> list[Op]:
        ops = []
        for preset in RATES:
            # One home seed per rate: the three policies see the same
            # arrivals, so coordinated and uncoordinated ops pair up.
            home_seed = derive_seed(self.seed, "home", index, preset)
            for policy in POLICIES:
                spec = self.spec(policy, preset, home_seed)
                key = spec_hash(spec)

                def call(spec=spec):
                    return api_run.run(spec, cache=self.cache)

                for kind in ["cold"] + ["warm"] * self.warm_per_cold:
                    ops.append(Op(key, kind, f"{policy}/{preset}", call,
                                  result_digest))
        return ops

    def counts(self, records) -> dict:
        cold = [record for record in records if record.op.kind == "cold"]
        runs = {record.op.label: record.output.run_result()
                for record in cold}
        cp = [one.cp_stats for one in runs.values()
              if one.cp_stats is not None]
        at = [one.at_stats for one in runs.values()
              if one.at_stats is not None]
        total = sum(stats.rounds_total for stats in cp)
        active = sum(stats.rounds_active for stats in cp)
        peak_cut, std_cut = [], []
        for preset in RATES:
            coordinated = runs[f"coordinated/{preset}"].stats()
            independent = runs[f"uncoordinated/{preset}"].stats()
            peak_cut.append(100.0 * (1.0 - coordinated.peak_kw
                                     / independent.peak_kw))
            std_cut.append(100.0 * (1.0 - coordinated.std_kw
                                    / independent.std_kw))
        return {
            "st.rounds.rounds_total": total,
            "st.rounds.rounds_active": active,
            "st.rounds.deliveries": sum(stats.deliveries for stats in cp),
            "st.rounds.active_ratio": active / total if total else 0.0,
            "mac.collection.reports_sent": sum(s.reports_sent for s in at),
            "mac.collection.reports_delivered":
                sum(s.reports_delivered for s in at),
            "mac.collection.dropped": sum(
                s.dropped_channel_busy + s.dropped_no_ack for s in at),
            # "up to", as the paper states its 50% / 58%
            "model.peak_reduction_pct": max(peak_cut),
            "model.std_reduction_pct": max(std_cut),
        }


class Fleet(Workload):
    name = "fleet-100"
    homes = 100

    def __init__(self, seed: int, scratch):
        super().__init__(seed, scratch)
        self.jobs = NPROC

    def spec(self, fleet_seed: int):
        return ExperimentSpec(
            name=f"fleet-{self.homes}", kind="neighborhood",
            scenario=ScenarioSpec(horizon_s=60 * MINUTE),
            control=ControlSpec(cp_fidelity="ideal"), seeds=(fleet_seed,),
            fleet=FleetPlan(homes=self.homes, mix="suburb",
                            coordination="feeder"))

    def setup(self) -> None:
        # Each set-up spawns the worker pool afresh.
        shutdown_all()
        self.reset_store()
        api_run.run(self.spec(WARMUP_SEED), jobs=self.jobs)

    def cycle(self, index: int) -> list[Op]:
        spec = self.spec(derive_seed(self.seed, "fleet", index))

        def call():
            return api_run.run(spec, jobs=self.jobs, cache=self.cache)

        def check_fleet(result):
            check(result.neighborhood.fleet.n_homes == self.homes,
                  "wrong fleet size")
            return neighborhood_digest(result.neighborhood)

        key = spec_hash(spec)
        return [Op(key, kind, f"jobs={self.jobs}", call, check_fleet)
                for kind in ["cold"] + ["warm"] * self.warm_per_cold]

    def counts(self, records) -> dict:
        neighborhoods = [record.output.neighborhood for record in records
                         if record.op.kind == "cold"]
        plans = [one.coordination for one in neighborhoods]
        return {
            "neighborhood.coordination.energy_drift_wh": max(
                abs(energy_drift_wh(one.coordination, one.horizon))
                for one in neighborhoods),
            "neighborhood.coordination.cp_deliveries":
                sum(plan.cp_stats.deliveries for plan in plans),
            "neighborhood.coordination.sweeps":
                sum(plan.sweeps for plan in plans),
        }


class OnlineReplay(Workload):
    """Replays over one fleet; a warm op re-fetches that fleet's result."""

    name = "online-replay"
    homes = 100
    horizon = 60 * MINUTE
    epoch = 5 * MINUTE
    fault_rate = 0.05

    def setup(self) -> None:
        self.reset_store()
        self.fleet_spec = ExperimentSpec(
            name=f"online-replay-fleet-{self.homes}", kind="neighborhood",
            scenario=ScenarioSpec(horizon_s=self.horizon),
            control=ControlSpec(cp_fidelity="ideal"),
            seeds=(derive_seed(self.seed, "online-fleet"),),
            fleet=FleetPlan(homes=self.homes, mix="suburb"))
        neighborhood = api_run.run(self.fleet_spec, jobs=NPROC,
                                   cache=self.cache).neighborhood
        self.fleet = neighborhood.fleet
        self.homes_results = neighborhood.homes
        self.fleet_digest = neighborhood_digest(neighborhood)

    def begin_pass(self) -> None:
        """Replays use no store; warm ops keep reading set-up's fleet."""

    def replay(self, config: str, index: int):
        forecast = ForecastConfig(forecaster="oracle")
        replan = "diff"
        plan: Optional[FaultPlan] = None
        if config == "oracle-cold":
            replan = "cold"
        elif config == "oracle-noise":
            forecast = ForecastConfig(
                forecaster="oracle", noise=0.25,
                noise_seed=derive_seed(self.seed, "noise", index))
        elif config in ("persistence", "ewma"):
            forecast = ForecastConfig(forecaster=config)
        elif config == "oracle-faults":
            plan = FaultPlan(seed=derive_seed(self.seed, "faults", index),
                             telemetry_drop=self.fault_rate,
                             telemetry_delay=self.fault_rate,
                             telemetry_dup=self.fault_rate)
        with fault_scope(plan):
            return online_module.coordinate_fleet_online(
                self.fleet, self.homes_results, self.horizon,
                config=FeederConfig(epoch=self.epoch), forecast=forecast,
                replan=replan)

    def cycle(self, index: int) -> list[Op]:
        fleet_key = spec_hash(self.fleet_spec)

        def warm():
            return api_run.run(self.fleet_spec, jobs=NPROC, cache=self.cache)

        def check_warm(result):
            value = neighborhood_digest(result.neighborhood)
            check(value == self.fleet_digest,
                  "warm fleet result differs from set-up's")
            return value

        ops = []
        for config in ONLINE_CONFIGS:
            ops.append(Op(f"{config}:c{index}", "cold", config,
                          lambda config=config: self.replay(config, index),
                          self.check_replay))
            ops += [Op(fleet_key, "warm", "fleet", warm, check_warm)
                    ] * self.warm_per_cold
        return ops

    def check_replay(self, plan) -> str:
        check(plan.n_epochs == round(self.horizon / self.epoch),
              f"{plan.n_epochs} epochs")
        check_coordination(plan, self.horizon)
        for outcome in plan.epochs:
            check(outcome.coordinated_peak_w <= outcome.independent_peak_w,
                  f"epoch {outcome.index} raised the peak")
            if outcome.applied:
                check(outcome.coordinated_peak_w
                      < outcome.independent_peak_w - 1e-9,
                      f"epoch {outcome.index} applied without a gain")
            else:
                check(not any(outcome.offsets_s),
                      f"declined epoch {outcome.index} kept offsets")
        return digest(*series_arrays(plan.coordinated_w),
                      tuple(outcome.offsets_s for outcome in plan.epochs),
                      plan.telemetry_digest, plan.cp_stats.deliveries,
                      plan.replanned_homes, plan.telemetry_dropped,
                      plan.telemetry_delayed, plan.telemetry_duplicated,
                      plan.stale_predictions)

    def counts(self, records) -> dict:
        plans = {record.op.label: record.output for record in records
                 if record.op.kind == "cold"}
        diff = plans["oracle-diff"].cp_stats.deliveries
        cold = plans["oracle-cold"].cp_stats.deliveries
        faulted = plans["oracle-faults"]
        return {
            "neighborhood.coordination.energy_drift_wh": max(
                abs(energy_drift_wh(plan, self.horizon))
                for plan in plans.values()),
            "neighborhood.online.cp_deliveries.diff": diff,
            "neighborhood.online.cp_deliveries.cold": cold,
            "neighborhood.online.replan_ratio": diff / cold if cold else 0.0,
            "neighborhood.online.changed_homes":
                sum(plan.replanned_homes for plan in plans.values()),
            "neighborhood.online.epochs_applied":
                sum(plan.epochs_applied for plan in plans.values()),
            "neighborhood.online.stale_homes":
                sum(plan.stale_predictions for plan in plans.values()),
            "telemetry.dropped": faulted.telemetry_dropped,
            "telemetry.delayed": faulted.telemetry_delayed,
            "telemetry.duplicated": faulted.telemetry_duplicated,
        }


class ServiceMix(Workload):
    name = "service-mix"
    store_cycles = 40
    trace_cycles = 40
    #: specs published by set-up, so warm re-submits have targets
    warm_set = 12
    #: every ``nbhd_every``-th cold spec is a sharded neighborhood
    nbhd_every = 4

    def spec(self, tag: str, index: int):
        spec_seed = derive_seed(self.seed, "service", tag, index)
        if index % self.nbhd_every == self.nbhd_every - 1:
            return ExperimentSpec(
                name=f"service-{tag}{index}-nbhd", kind="neighborhood",
                scenario=ScenarioSpec(horizon_s=30 * MINUTE),
                control=ControlSpec(cp_fidelity="ideal"),
                seeds=(spec_seed,),
                fleet=FleetPlan(homes=8, mix="suburb",
                                coordination="feeder"))
        return ExperimentSpec(
            name=f"service-{tag}{index}-home",
            scenario=ScenarioSpec(preset=RATES[index % len(RATES)]),
            control=ControlSpec(policy=POLICIES[index % 2],
                                cp_fidelity="ideal"),
            seeds=(spec_seed,), until_s=30 * MINUTE)

    def reset_store(self) -> None:
        store = ServiceStore(fresh_dir(self.scratch, "store"))
        self.client = ServiceClient(store)
        # Stepped in the client's thread: no poll-sleep in the numbers.
        # shard_size=2 runs the 8-home specs as four checkpointed shards.
        self.daemon = WorkerDaemon(store, worker_id="perfbench", jobs=1,
                                   shard_size=2)
        self.cache = self.client.cache
        self.targets: list = []
        self.published: dict[str, str] = {}

    def submit_cold(self, spec):
        job_id = self.client.submit(spec)
        report = self.daemon.step()
        check(report is not None and report.state == "done",
              f"worker step gave {report!r}")
        return self.client.result(job_id, timeout=0)

    def __init__(self, seed: int, scratch):
        super().__init__(seed, scratch)
        #: every spec the service executed: spec hash -> (spec, digest)
        self.executed: dict = {}

    def setup(self) -> None:
        self.reset_store()
        for index in range(self.warm_set):
            spec = self.spec("warm", index)
            self.record(spec, self.submit_cold(spec))

    def begin_pass(self) -> None:
        self.setup()

    def record(self, spec, result) -> str:
        value = result_digest(result)
        check(result.provenance.spec_hash == spec_hash(spec),
              "result answers another spec")
        self.published[result.provenance.spec_hash] = value
        self.targets.append(spec)
        self.executed[result.provenance.spec_hash] = (spec, value)
        return value

    def cycle(self, index: int) -> list[Op]:
        # Built just before it runs, so warm re-submits can target every
        # spec published so far, earlier cycles' cold submits included.
        picker = random.Random(derive_seed(self.seed, "pick", index))
        ops = []
        for _ in range(self.warm_per_cold):
            spec = self.targets[picker.randrange(len(self.targets))]

            def warm(spec=spec):
                return self.client.result(self.client.submit(spec),
                                          timeout=0)

            ops.append(Op(spec_hash(spec), "warm", "re-submit", warm,
                          lambda result, spec=spec:
                          self.check_warm(spec, result)))
        spec = self.spec("cold", index)

        def cold():
            return self.submit_cold(spec)

        ops.append(Op(spec_hash(spec), "cold", spec.kind, cold,
                      lambda result, spec=spec: self.record(spec, result)))
        return ops

    def check_warm(self, spec, result) -> str:
        job_id = spec_hash(spec)
        check(result.provenance.spec_hash == job_id,
              "result answers another spec")
        value = result_digest(result)
        check(value == self.published.get(job_id),
              "warm result differs from the published one")
        return value

    def verify(self) -> int:
        """Every published result equals an in-process ``run(spec)``."""
        failed = 0
        for job_id, (spec, value) in self.executed.items():
            if result_digest(api_run.run(spec)) != value:
                print(f"[perfbench] service result {job_id[:16]} differs "
                      f"from in-process run(spec)", flush=True)
                failed += 1
        return failed

    def counts(self, records) -> dict:
        stats = self.cache.stats()
        journal = self.client.queue.journal_events()
        return {
            "api.cache.hits": stats.hits,
            "api.cache.misses": stats.misses,
            "api.cache.hit_ratio": stats.hit_ratio,
            "service.queue.journal_events": len(journal),
        }


WORKLOADS = {cls.name: cls for cls in (HomeRound, Fleet, OnlineReplay,
                                       ServiceMix)}
