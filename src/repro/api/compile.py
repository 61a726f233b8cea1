"""Compiling declarative specs down to the concrete run objects.

The spec layer never executes anything; this module is the bridge from
:class:`~repro.api.spec.ExperimentSpec` to the objects the existing
engine runs:

* :func:`compile_scenario` — ``ScenarioSpec`` → ``Scenario``;
* :func:`compile_config` — a spec + seed → ``HanConfig``;
* :func:`compile_run_specs` — a single/sweep spec → the flat, ordered
  :class:`~repro.experiments.runner.RunSpec` batch the
  :class:`~repro.experiments.runner.ParallelRunner` consumes directly;
* :func:`compile_fleet` — a neighborhood spec →
  :class:`~repro.neighborhood.fleet.FleetSpec`;
* :func:`compile_grid` — a grid spec →
  :class:`~repro.neighborhood.grid.GridSpec` (one built fleet per
  feeder, seeds derived per feeder);
* :data:`ARTEFACTS` / :func:`resolve_artefact` — registry artefact
  kinds → their generator callables (resolved lazily so the spec layer
  stays import-light and cycle-free).

Grid order is load-bearing: sweep cells flatten as (rate, policy, seed)
with run names ``<scenario>/<policy>/seed<N>``, so worker-failure
messages and result order stay stable across releases.
"""

from __future__ import annotations

import importlib
from dataclasses import replace
from typing import Callable, Optional

from repro.api.spec import SCHEMA, ControlSpec, ExperimentSpec, ScenarioSpec
from repro.core.system import HanConfig
from repro.workloads.scenarios import SCENARIO_PRESETS, Scenario

#: Registry artefact kind → (module, callable) generating it.  Resolved
#: lazily by :func:`resolve_artefact`; every callable returns an object
#: with a rendered ``text`` (FigureData / CpTraceResult).
ARTEFACTS: dict[str, tuple[str, str]] = {
    "fig2a": ("repro.experiments.figures", "fig2a"),
    "fig2b": ("repro.experiments.figures", "fig2b"),
    "fig2c": ("repro.experiments.figures", "fig2c"),
    "headline": ("repro.experiments.figures", "headline_numbers"),
    "cp-trace": ("repro.experiments.cp_trace", "trace_cp"),
    "abl-cp-period": ("repro.experiments.ablations", "cp_period_sweep"),
    "abl-loss": ("repro.experiments.ablations", "loss_sweep"),
    "abl-scale": ("repro.experiments.ablations", "scale_sweep"),
    "abl-slots": ("repro.experiments.ablations", "slots_sweep"),
    "abl-variants": ("repro.experiments.ablations", "scheduler_variants"),
    "nbhd-coord": ("repro.experiments.ablations",
                   "neighborhood_coordination"),
    "abl-st-vs-at": ("repro.experiments.ablations", "st_vs_at"),
    "abl-spof": ("repro.experiments.ablations", "spof_comparison"),
    "grid-10k": ("repro.experiments.ablations", "grid_uplift"),
    "nbhd-online": ("repro.experiments.ablations", "online_uplift"),
}

#: ScenarioSpec field → Scenario field (identical units); the inverse
#: lowering is :func:`repro.api.spec.spec_from_scenario`.
SCENARIO_FIELDS = {
    "name": "name",
    "n_devices": "n_devices",
    "device_power_w": "device_power_w",
    "min_dcd_s": "min_dcd",
    "max_dcp_s": "max_dcp",
    "rate_per_hour": "arrival_rate_per_hour",
    "horizon_s": "horizon",
    "demand_cycles": "demand_cycles",
    "arrival": "arrival_kind",
    "batch_size": "batch_size",
    "notes": "notes",
}


def resolve_artefact(kind: str) -> Callable[..., object]:
    """Import and return the generator callable behind an artefact kind."""
    try:
        module_name, func_name = ARTEFACTS[kind]
    except KeyError:
        known = ", ".join(sorted(ARTEFACTS))
        raise KeyError(f"unknown artefact kind {kind!r}; one of: {known}")
    return getattr(importlib.import_module(module_name), func_name)


def compile_scenario(spec: ScenarioSpec) -> Scenario:
    """Materialize a ScenarioSpec: preset (or defaults) plus overrides."""
    if spec.preset is not None:
        base = SCENARIO_PRESETS[spec.preset]()
    else:
        base = Scenario(name=spec.name if spec.name is not None
                        else "custom")
    overrides = {}
    for spec_field, scenario_field in SCENARIO_FIELDS.items():
        value = getattr(spec, spec_field)
        if value is not None:
            overrides[scenario_field] = value
    return replace(base, **overrides) if overrides else base


#: ControlSpec fields named differently on HanConfig (every other
#: ControlSpec field is the HanConfig field of the same name).
CONFIG_RENAMES = {"topology": "topology_name"}


def compile_config(spec: ExperimentSpec, seed: int,
                   scenario: Optional[Scenario] = None,
                   policy: Optional[str] = None) -> HanConfig:
    """The HanConfig reproducing one cell of ``spec`` exactly.

    ``scenario``/``policy`` override the spec's own (used by the sweep
    compiler, which re-rates the scenario and varies the policy per
    cell).  Exact inverse of :func:`repro.api.spec.spec_from_config`.
    """
    control = {CONFIG_RENAMES.get(spec_field.name, spec_field.name):
               getattr(spec.control, spec_field.name)
               for spec_field in SCHEMA[ControlSpec]}
    if policy is not None:
        control["policy"] = policy
    return HanConfig(
        scenario=scenario if scenario is not None
        else compile_scenario(spec.scenario),
        seed=seed, **control)


def compile_run_specs(spec: ExperimentSpec) -> list:
    """Flatten a single/sweep spec into its ordered RunSpec batch.

    Single: one run per seed.  Sweep: the full (rate, policy, seed) grid
    in that nesting order, every run named
    ``<scenario>/<policy>/seed<N>``.
    """
    from repro.experiments.runner import RunSpec
    if spec.kind == "single":
        scenario = compile_scenario(spec.scenario)
        return [RunSpec(
            name=f"{scenario.name}/{spec.control.policy}/seed{seed}",
            config=compile_config(spec, seed, scenario=scenario),
            until=spec.until_s)
            for seed in spec.seeds]
    if spec.kind != "sweep":
        raise ValueError(
            f"cannot compile kind {spec.kind!r} to run specs")
    base = compile_scenario(spec.scenario)
    sweep = spec.sweep
    run_specs = []
    scenarios = [base.with_rate(rate) for rate in sweep.rates] \
        if sweep.rates else [base]
    for scenario in scenarios:
        for policy in sweep.policies:
            for seed in spec.seeds:
                run_specs.append(RunSpec(
                    name=f"{scenario.name}/{policy}/seed{seed}",
                    config=compile_config(spec, seed, scenario=scenario,
                                          policy=policy),
                    until=spec.until_s))
    return run_specs


def compile_fleet(spec: ExperimentSpec):
    """Build the deterministic FleetSpec of a neighborhood spec.

    The fleet seed is ``spec.seeds[0]``; per-home simulation seeds
    derive from it via
    :func:`~repro.neighborhood.fleet.home_seed`.  Of the scenario
    section only ``horizon_s`` applies — homes draw their workloads
    from the mix's archetypes, and the validator rejects any other
    scenario override on a neighborhood spec; policy and CP fidelity
    come from the control section.
    """
    if spec.fleet is None:
        raise ValueError(f"spec {spec.name!r} has no fleet section")
    from repro.neighborhood.fleet import build_fleet
    plan = spec.fleet
    return build_fleet(plan.homes, mix=plan.mix, seed=spec.seeds[0],
                       policy=spec.control.policy,
                       cp_fidelity=spec.control.cp_fidelity,
                       horizon=spec.scenario.horizon_s,
                       rate_jitter=plan.rate_jitter,
                       size_jitter=plan.size_jitter)


def compile_grid(spec: ExperimentSpec):
    """Build the deterministic GridSpec of a ``grid`` spec.

    The grid root seed is ``spec.seeds[0]``; feeder ``i`` builds with
    :func:`repro.neighborhood.grid.feeder_seed` of it (feeder 0
    inherits the root, so a one-feeder grid compiles the exact fleet
    the ``neighborhood`` kind compiles) and per-home seeds derive one
    level further down.  Scenario/control lowering mirrors
    :func:`compile_fleet`: only ``scenario.horizon_s`` plus the control
    section's policy and CP fidelity apply.
    """
    if spec.grid is None:
        raise ValueError(f"spec {spec.name!r} has no grid section")
    from repro.neighborhood.grid import build_grid
    return build_grid(spec.grid.feeders, seed=spec.seeds[0],
                      policy=spec.control.policy,
                      cp_fidelity=spec.control.cp_fidelity,
                      horizon=spec.scenario.horizon_s,
                      name=spec.name)


def shard_sub_hash(parent_hash: str, shard) -> str:
    """The stable content address of one shard sub-spec.

    Shard planning is deterministic: given the parent spec (whose hash
    seeds this digest) and a partition, shard ``index`` always holds the
    same homes with the same derived seeds — so ``(parent, index,
    n_homes, first home, horizon)`` pins the sub-spec's content without
    serializing the sub-fleet.  Workers key per-shard checkpoints on
    this (:mod:`repro.service.worker`): two attempts at the same shard
    of the same spec dedup onto one stored outcome, while any different
    partition (another ``shard_size``) gets disjoint addresses.
    """
    import hashlib
    first = shard.fleet.homes[0].scenario.name if shard.fleet.homes \
        else ""
    token = (f"{parent_hash}:shard{shard.index}:{shard.fleet.n_homes}"
             f":{first}:{shard.horizon}")
    return hashlib.sha256(token.encode()).hexdigest()


def shard_sub_hashes(spec: ExperimentSpec, shards) -> dict[int, str]:
    """Sub-hashes of a whole shard plan, keyed by shard index."""
    from repro.api.spec import spec_hash
    parent = spec_hash(spec)
    return {shard.index: shard_sub_hash(parent, shard)
            for shard in shards}


def compile_shards(spec: ExperimentSpec, shard_size: Optional[int] = None,
                   jobs: int = 1):
    """Lower a neighborhood spec into its per-shard sub-specs.

    The fleet-scale lowering: :func:`compile_fleet` builds the full
    deterministic fleet, then :func:`repro.neighborhood.shard.plan_shards`
    cuts it into contiguous :class:`~repro.neighborhood.shard.ShardSpec`
    work orders (a small fleet is one shard).  Sharding is an execution
    strategy, not part of the experiment: the spec hash — and every
    result bit — is identical whatever this returns.
    """
    from repro.neighborhood.shard import plan_shards
    fleet = compile_fleet(spec)
    return plan_shards(fleet, until=spec.until_s, shard_size=shard_size,
                       jobs=jobs)
