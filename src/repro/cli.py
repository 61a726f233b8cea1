"""Command-line interface: one front door over the spec API.

Every command compiles down to a declarative
:class:`~repro.api.spec.ExperimentSpec` executed through
:func:`repro.api.run.run`; the classic flag forms survive as sugar that
constructs a spec.

Usage::

    python -m repro fig2a [--seed 1] [--fidelity round]
    python -m repro fig2b [--seeds 1 2 3]
    python -m repro fig2c
    python -m repro headline
    python -m repro cp-trace [--rounds 25]
    python -m repro ablation {cp-period,loss,scale,slots,variants,
                              st-vs-at,spof}
    python -m repro run --policy coordinated --rate 30 --seed 1
    python -m repro run --jobs 4 --seeds 1 2 3 4   # parallel seed fan-out
    python -m repro run --spec experiment.json --jobs 4   # declarative
    python -m repro spec show HEADLINE             # registry entry as JSON
    python -m repro spec validate experiment.json
    python -m repro spec dump --all --out specs/
    python -m repro neighborhood --homes 20 --jobs 4 --mix suburb
    python -m repro neighborhood --homes 20 --coordinate   # feeder CP
    python -m repro neighborhood --coordinate online --forecaster ewma
    python -m repro grid --feeders 4 --homes 25 --jobs 4   # multi-feeder
    python -m repro grid --feeders 4 --coordinate substation
    python -m repro chaos run --fault-seed 7 --fault-rate 0.1
    python -m repro chaos run --fault-rate telemetry_drop=0.3
    python -m repro regen FIG2A HEADLINE --jobs 2
    python -m repro regen --no-cache               # force re-simulation
    python -m repro cache ls                       # inspect result cache
    python -m repro cache clear
    python -m repro worker --store /srv/repro      # drain the job queue
    python -m repro serve --port 8787              # HTTP front door
    python -m repro job submit experiment.json     # async submission
    python -m repro job status <job-id>
    python -m repro job result <job-id> --timeout 600
    python -m repro job ls
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.report import format_table
from repro.api import run as run_spec
from repro.api.compile import ARTEFACTS, resolve_artefact
from repro.api.spec import (
    ArtefactSpec,
    ControlSpec,
    ExperimentSpec,
    FeederPlan,
    FleetPlan,
    ForecastPlan,
    GridPlan,
    ScenarioSpec,
    spec_from_config,
    spec_from_scenario,
)
from repro.api.validate import SpecError
from repro.core.system import FIDELITIES, POLICIES
from repro.experiments.runner import WorkerFailure, run_registry
from repro.neighborhood import GRID_COORDINATION_MODES
from repro.sim.units import MINUTE
from repro.workloads.scenarios import FLEET_MIXES, paper_scenario


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--fidelity", choices=FIDELITIES, default="round")
    parser.add_argument("--horizon-min", type=float, default=None,
                        help="override the 350 min horizon")


def _execution_parent() -> argparse.ArgumentParser:
    """``--jobs``/``--shard-size``, shared by every fleet-running command."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default: 1; must be >= 1)")
    parent.add_argument("--shard-size", type=int, default=None,
                        help="homes per execution shard (default: auto; "
                             "must be >= 1; results are bit-identical "
                             "for every value)")
    return parent


def _fleet_parent() -> argparse.ArgumentParser:
    """``--mix``/``--seed``/``--horizon-min``, shared by every command
    that builds a fleet (``neighborhood``, ``grid``, ``chaos run``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--mix", choices=sorted(FLEET_MIXES),
                        default="suburb")
    parent.add_argument("--seed", type=int, default=1,
                        help="fleet root seed (feeder and home seeds "
                             "derive from it)")
    parent.add_argument("--horizon-min", type=float, default=None,
                        help="override the 350 min horizon")
    return parent


def _fleet_output_parent() -> argparse.ArgumentParser:
    """Home control and exports, shared by ``neighborhood`` and ``grid``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--policy", choices=POLICIES, default="coordinated")
    parent.add_argument("--fidelity", choices=FIDELITIES, default="round")
    parent.add_argument("--export-json", metavar="PATH", default=None,
                        help="write the result as JSON, stamped with "
                             "its spec")
    parent.add_argument("--export-csv", metavar="PATH", default=None,
                        help="write the top tier's and every member's "
                             "load columns as CSV")
    return parent


def _horizon(args: argparse.Namespace) -> Optional[float]:
    return args.horizon_min * MINUTE if args.horizon_min else None


def _artefact_spec(args: argparse.Namespace,
                   horizon: Optional[float]) -> ExperimentSpec:
    """The ``kind: artefact`` spec of a figure/trace/ablation command.

    ``ablation <which>`` runs kind ``abl-<which>``; the params are the
    flags the kind's generator takes.
    """
    kind = f"abl-{args.which}" if args.command == "ablation" \
        else args.command
    flags = {"seed": args.seed, "seeds": getattr(args, "seeds", None),
             "cp_fidelity": getattr(args, "fidelity", None),
             "rounds": getattr(args, "rounds", None), "horizon": horizon}
    parameters = inspect.signature(resolve_artefact(kind)).parameters
    params = {name: value for name, value in flags.items()
              if name in parameters}
    return ExperimentSpec(name=f"cli-{kind}", kind="artefact",
                          artefact=ArtefactSpec(kind=kind, params=params))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Collaborative HAN load management — ICDCS'22 "
                    "reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    execution = _execution_parent()
    fleet = _fleet_parent()
    fleet_output = _fleet_output_parent()

    for figure in ("fig2a", "fig2b", "fig2c", "headline"):
        p = sub.add_parser(figure, help=f"regenerate {figure}")
        _add_common(p)

    p = sub.add_parser("cp-trace", help="FIG1: slot-level CP measurements")
    p.add_argument("--rounds", type=int, default=25)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("ablation", help="run one ablation study")
    p.add_argument("which", choices=["cp-period", "loss", "scale", "slots",
                                     "variants", "st-vs-at", "spof"])
    _add_common(p)

    p = sub.add_parser("run", help="one custom experiment run")
    _add_common(p)
    p.add_argument("--policy", choices=POLICIES, default="coordinated")
    p.add_argument("--rate", type=float, default=30.0,
                   help="requests/hour")
    p.add_argument("--devices", type=int, default=26)
    p.add_argument("--jobs", type=int, default=1,
                   help="fan --seeds out over N worker processes")
    p.add_argument("--spec", metavar="PATH", default=None,
                   help="run a serialized ExperimentSpec (JSON); other "
                        "experiment flags are ignored")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk result cache (--spec runs "
                        "are cached by spec hash by default)")
    p.add_argument("--export-json", metavar="PATH", default=None,
                   help="write the full run result as JSON")

    p = sub.add_parser("spec",
                       help="show, validate or dump experiment specs")
    spec_sub = p.add_subparsers(dest="spec_command", required=True)
    p_show = spec_sub.add_parser(
        "show", help="print a registry experiment as spec JSON")
    p_show.add_argument("ids", nargs="+", help="experiment ids")
    p_validate = spec_sub.add_parser(
        "validate", help="validate a spec JSON file")
    p_validate.add_argument("path", help="spec JSON file")
    p_dump = spec_sub.add_parser(
        "dump", help="write registry specs to <out>/<id>.json")
    p_dump.add_argument("ids", nargs="*",
                        help="experiment ids (or use --all)")
    p_dump.add_argument("--all", action="store_true", dest="dump_all",
                        help="dump every registry experiment")
    p_dump.add_argument("--out", metavar="DIR", default="specs",
                        help="output directory (default: specs/)")

    p = sub.add_parser("neighborhood",
                       parents=[execution, fleet, fleet_output],
                       help="N heterogeneous homes behind one feeder")
    p.add_argument("--homes", type=int, default=20)
    p.add_argument("--coordinate", nargs="?", const="feeder", default=None,
                   choices=("feeder", "online"), metavar="MODE",
                   help="run the feeder-level collaboration plane "
                        "(cross-home phase staggering) and report the "
                        "diversity-factor uplift; bare --coordinate means "
                        "'feeder' (post-hoc full-horizon negotiation), "
                        "'online' re-negotiates each CP epoch against "
                        "forecast envelopes")
    p.add_argument("--forecaster", choices=("oracle", "persistence",
                                            "seasonal", "ewma"),
                   default="oracle",
                   help="predictor for --coordinate online "
                        "(default: oracle — the zero-error ceiling)")
    p.add_argument("--forecast-noise", type=float, default=0.0,
                   help="multiplicative per-bin noise amplitude on the "
                        "forecaster (0 = exact predictions)")
    p.add_argument("--forecast-seed", type=int, default=1,
                   help="root seed of the forecast noise streams")

    p = sub.add_parser("grid", parents=[execution, fleet, fleet_output],
                       help="fleet of fleets: F feeders under one "
                            "substation")
    p.add_argument("--feeders", type=int, default=3,
                   help="number of feeders under the substation")
    p.add_argument("--homes", type=int, default=20,
                   help="homes per feeder")
    p.add_argument("--coordinate", choices=GRID_COORDINATION_MODES,
                   default="independent", metavar="TIER",
                   help="coordination tier: independent (none), feeder "
                        "(per-feeder CP rounds), or substation (feeder "
                        "rounds plus feeder-envelope negotiation at the "
                        "substation)")

    p = sub.add_parser("chaos",
                       help="fault-injection runs (seeded chaos testing)")
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)
    p_chaos = chaos_sub.add_parser(
        "run", parents=[execution, fleet],
        help="run an online neighborhood under an injected fault "
             "schedule and report the degradation + invariants")
    p_chaos.add_argument("--homes", type=int, default=12)
    p_chaos.add_argument("--fault-seed", type=int, default=0,
                         help="root seed of the fault schedule; the same "
                              "seed reproduces the exact same schedule")
    p_chaos.add_argument("--fault-rate", action="append", default=None,
                         metavar="RATE | SITE=RATE",
                         help="either a bare probability applied to every "
                              "telemetry site, or site_field=rate (e.g. "
                              "telemetry_drop=0.3, frame_loss=0.05); "
                              "repeatable")
    p_chaos.add_argument("--max-delay-epochs", type=int, default=2,
                         help="worst late delivery, in epochs (default 2)")
    p_chaos.add_argument("--forecaster",
                         choices=("oracle", "persistence", "seasonal",
                                  "ewma"),
                         default="persistence")

    p = sub.add_parser("regen",
                       help="regenerate registry artefacts (parallelisable)")
    p.add_argument("ids", nargs="*",
                   help="experiment ids (default: all; see `repro list`)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-cache", action="store_true",
                   help="re-simulate even when a cached result exists "
                        "for the same spec hash and code version")

    p = sub.add_parser("cache",
                       help="inspect or clear the on-disk result cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("ls", help="list cached results (LRU order)")
    cache_sub.add_parser("stats",
                         help="persisted hit/miss/byte counters")
    cache_sub.add_parser("clear", help="delete every cached result")

    p = sub.add_parser("worker", parents=[execution],
                       help="run a service worker daemon (drain the "
                            "durable job queue)")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="service store directory (default: "
                        "$REPRO_SERVICE_STORE or ~/.cache/repro-service)")
    p.add_argument("--max-jobs", type=int, default=None,
                   help="exit after finishing N jobs (default: run "
                        "forever)")
    p.add_argument("--idle-exit", type=float, default=None,
                   metavar="SECONDS",
                   help="exit after the queue stays empty this long "
                        "(default: wait forever)")
    p.add_argument("--lease-ttl", type=float, default=None,
                   metavar="SECONDS",
                   help="lease expiry between heartbeats (default: 30)")
    p.add_argument("--worker-id", default=None,
                   help="worker identity in leases (default: host.pid)")

    p = sub.add_parser("serve",
                       help="HTTP front door over the service store")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="service store directory (default: "
                        "$REPRO_SERVICE_STORE or ~/.cache/repro-service)")
    p.add_argument("--host", default=None,
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="bind port (default: 8787)")

    p = sub.add_parser("job",
                       help="submit to / inspect the service job queue")
    job_sub = p.add_subparsers(dest="job_command", required=True)
    p_submit = job_sub.add_parser(
        "submit", help="enqueue a spec JSON file; prints the job id")
    p_submit.add_argument("path", help="spec JSON file")
    p_submit.add_argument("--store", metavar="DIR", default=None)
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the result is ready and "
                               "print it")
    p_submit.add_argument("--timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="give up --wait after this long")
    p_status = job_sub.add_parser("status", help="one job's state")
    p_status.add_argument("job_id")
    p_status.add_argument("--store", metavar="DIR", default=None)
    p_result = job_sub.add_parser(
        "result", help="print a finished job's rendered result")
    p_result.add_argument("job_id")
    p_result.add_argument("--store", metavar="DIR", default=None)
    p_result.add_argument("--timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="block up to this long (default: only "
                               "return what is already stored)")
    p_ls = job_sub.add_parser("ls", help="list every job in the queue")
    p_ls.add_argument("--store", metavar="DIR", default=None)

    sub.add_parser("list", help="list every reproducible experiment")
    return parser


class _BadInput(Exception):
    """Invalid CLI input (clean `error:` + exit 2, never a traceback)."""


def _checked(factory, *factory_args, **factory_kwargs):
    """Run an input-validating call, converting its rejections to exit 2."""
    try:
        return factory(*factory_args, **factory_kwargs)
    except (KeyError, ValueError) as bad:
        raise _BadInput(bad.args[0] if bad.args else str(bad)) from bad


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise _BadInput(f"jobs must be >= 1, got {jobs}")


def _check_execution(args: argparse.Namespace) -> None:
    """Reject out-of-range ``--jobs``/``--shard-size`` (exit 2)."""
    _check_jobs(args.jobs)
    if args.shard_size is not None and args.shard_size < 1:
        raise _BadInput(
            f"--shard-size must be >= 1, got {args.shard_size}")


def _load_spec(path: str) -> ExperimentSpec:
    """Read + validate a spec JSON file; every failure is a _BadInput."""
    spec_path = Path(path)
    try:
        text = spec_path.read_text()
    except OSError as bad:
        raise _BadInput(f"cannot read spec file {path!r}: {bad}") from bad
    try:
        return ExperimentSpec.from_json(text)
    except SpecError as bad:
        raise _BadInput(f"invalid spec {path!r}: {bad}") from bad


def _registry_spec(exp_id: str) -> ExperimentSpec:
    """The declarative spec of a registry experiment (exit 2 if unknown)."""
    from repro.experiments.registry import get
    return _checked(get, exp_id).spec


def _export_run_results(spec: ExperimentSpec, results, base: str) -> None:
    """Write per-run JSON files, one per run of the spec.

    A lone run gets ``base`` itself (the whole spec regenerates exactly
    that file).  A single-kind fan-out keeps the ``.seedN`` suffixes;
    a sweep grid labels every (rate, policy, seed) cell, each stamped
    with the single-run spec that regenerates that cell alone.
    """
    from repro.analysis.export import run_result_to_json
    if len(results) == 1:
        path = run_result_to_json(results[0], base, spec=spec)
        print(f"result written to {path}")
        return
    base_path = Path(base)
    suffix = base_path.suffix or ".json"
    if spec.kind == "single":
        for result, seed in zip(results, spec.seeds):
            path = base_path.with_name(
                f"{base_path.stem}.seed{seed}{suffix}")
            run_result_to_json(result, path,
                               spec=replace(spec, seeds=(seed,)))
            print(f"result written to {path}")
        return
    for result in results:
        config = result.config
        label = (f"{config.scenario.name}.{config.policy}"
                 f".seed{config.seed}").replace("/", "-")
        path = base_path.with_name(f"{base_path.stem}.{label}{suffix}")
        run_result_to_json(result, path,
                           spec=spec_from_config(config,
                                                 until=spec.until_s))
        print(f"result written to {path}")


def _export(result, json_path: Optional[str],
            csv_path: Optional[str] = None) -> None:
    """Write a :class:`~repro.api.run.Result`'s exports, spec-stamped.

    Runs (single and sweep) export per-run JSON; a neighborhood or grid
    exports its JSON report and CSV load columns.  Artefacts have no
    export.
    """
    from repro.analysis import export
    if result.runs:
        if json_path:
            _export_run_results(result.spec, result.runs, json_path)
        return
    if result.neighborhood is not None:
        payload, to_json, to_csv = (result.neighborhood,
                                    export.neighborhood_to_json,
                                    export.neighborhood_to_csv)
    elif result.grid is not None:
        payload, to_json, to_csv = (result.grid, export.grid_to_json,
                                    export.grid_to_csv)
    else:
        if json_path:
            print("note: --export-json ignored for artefact specs")
        return
    if json_path:
        path = to_json(payload, json_path, spec=result.spec)
        print(f"result written to {path}")
    if csv_path:
        path = to_csv(payload, csv_path, spec=result.spec)
        print(f"series written to {path}")


def _run_spec_file(args: argparse.Namespace) -> int:
    """``repro run --spec path.json``: the fully declarative path."""
    _check_jobs(args.jobs)
    spec = _load_spec(args.spec)
    result = run_spec(spec, jobs=args.jobs, cache=not args.no_cache)
    print(result.render())
    _export(result, args.export_json)
    return 0


def _run_fleet(args: argparse.Namespace, spec: ExperimentSpec) -> None:
    """``repro neighborhood``/``grid``: run the flag-built spec through
    the one front door, print its report and write its exports.

    ``run`` re-validates the spec first, so the provenance block the
    exports embed always regenerates the run (``SpecError`` → exit 2).
    """
    result = _checked(run_spec, spec, jobs=args.jobs,
                      shard_size=args.shard_size)
    payload = result.neighborhood if result.neighborhood is not None \
        else result.grid
    print(payload.render())
    _export(result, args.export_json, args.export_csv)


def _run_seed_fanout(args: argparse.Namespace, spec: ExperimentSpec) -> None:
    """``repro run --jobs N``: one run per --seeds entry, in parallel."""
    import numpy as np
    if args.seed not in args.seeds:
        print(f"note: --seed {args.seed} ignored in fan-out mode; "
              f"fanning out --seeds {args.seeds}")
    result = run_spec(spec, jobs=args.jobs)
    all_stats = result.stats()
    rows = [[seed, st.peak_kw, st.mean_kw, st.std_kw, st.energy_kwh]
            for seed, st in zip(spec.seeds, all_stats)]
    for label, pick in (("mean", np.mean), ("std", np.std)):
        rows.append([label,
                     float(pick([s.peak_kw for s in all_stats])),
                     float(pick([s.mean_kw for s in all_stats])),
                     float(pick([s.std_kw for s in all_stats])),
                     float(pick([s.energy_kwh for s in all_stats]))])
    print(format_table(
        ["seed", "peak kW", "mean kW", "std kW", "energy kWh"], rows,
        title=f"run: {result.runs[0].config.scenario.name}, policy "
              f"{args.policy}, {len(spec.seeds)} seeds x {args.jobs} jobs"))
    _export(result, args.export_json)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``repro list | head -1``):
        # point stdout at devnull so the interpreter's exit flush cannot
        # raise again, and fail quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except WorkerFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    except (_BadInput, SpecError) as bad_input:
        # SpecError surfaces here when flag-built specs fail run()'s
        # re-validation (e.g. --devices 0) — same clean contract as
        # --spec files: the message with its field path, never a
        # traceback.
        print(f"error: {bad_input}", file=sys.stderr)
        return 2
    finally:
        # One command, one process: don't leave warm workers behind.
        from repro.experiments.pool import shutdown_all
        shutdown_all()


def _dispatch(args: argparse.Namespace) -> int:
    horizon = _horizon(args) if hasattr(args, "horizon_min") else None

    if args.command in ARTEFACTS or args.command == "ablation":
        print(run_spec(_artefact_spec(args, horizon)).artefact.text)
    elif args.command == "run":
        if args.spec:
            return _run_spec_file(args)
        scenario = paper_scenario("high").with_rate(args.rate)
        if args.devices != scenario.n_devices:
            scenario = replace(scenario, n_devices=args.devices)
        _check_jobs(args.jobs)
        spec = ExperimentSpec(
            name=f"cli-run-{scenario.name}",
            scenario=spec_from_scenario(scenario),
            control=ControlSpec(policy=args.policy,
                                cp_fidelity=args.fidelity),
            seeds=tuple(args.seeds) if args.jobs > 1 else (args.seed,),
            until_s=horizon)
        if args.jobs > 1:
            _run_seed_fanout(args, spec)
            return 0
        outcome = run_spec(spec)
        result = outcome.run_result()
        stats = result.stats(end=horizon)
        print(format_table(
            ["metric", "value"],
            [["policy", args.policy],
             ["peak load", f"{stats.peak_kw:.2f} kW"],
             ["average load", f"{stats.mean_kw:.2f} kW"],
             ["load std-dev", f"{stats.std_kw:.2f} kW"],
             ["largest load step", f"{stats.max_step_kw:.2f} kW"],
             ["energy", f"{stats.energy_kwh:.2f} kWh"],
             ["requests", len(result.requests)],
             ["completed", result.completed_requests()]],
            title=f"run: {scenario.name}, seed {args.seed}"))
        _export(outcome, args.export_json)
    elif args.command == "spec":
        return _dispatch_spec(args)
    elif args.command == "neighborhood":
        _check_execution(args)
        coordination = args.coordinate or "independent"
        forecast = ForecastPlan(forecaster=args.forecaster,
                                noise=args.forecast_noise,
                                noise_seed=args.forecast_seed) \
            if coordination == "online" else None
        spec = ExperimentSpec(
            name=f"cli-neighborhood-{args.mix}-{args.homes}homes",
            kind="neighborhood",
            scenario=ScenarioSpec(horizon_s=horizon),
            control=ControlSpec(policy=args.policy,
                                cp_fidelity=args.fidelity),
            seeds=(args.seed,),
            fleet=FleetPlan(homes=args.homes, mix=args.mix,
                            coordination=coordination),
            forecast=forecast)
        _run_fleet(args, spec)
    elif args.command == "grid":
        _check_execution(args)
        if args.feeders < 1:
            raise _BadInput(f"feeders must be >= 1, got {args.feeders}")
        spec = ExperimentSpec(
            name=f"cli-grid-{args.feeders}x{args.homes}",
            kind="grid",
            scenario=ScenarioSpec(horizon_s=horizon),
            control=ControlSpec(policy=args.policy,
                                cp_fidelity=args.fidelity),
            seeds=(args.seed,),
            grid=GridPlan(
                feeders=tuple(FeederPlan(homes=args.homes, mix=args.mix)
                              for _ in range(args.feeders)),
                coordination=args.coordinate))
        _run_fleet(args, spec)
    elif args.command == "chaos":
        return _dispatch_chaos(args, horizon)
    elif args.command == "regen":
        _check_jobs(args.jobs)
        from repro.api.cache import ResultCache
        cache = None if args.no_cache else ResultCache()
        for exp_id, artefact in _checked(run_registry, args.ids or None,
                                         jobs=args.jobs, cache=cache):
            print(f"== {exp_id} ==")
            print(artefact.text)
    elif args.command == "cache":
        return _dispatch_cache(args)
    elif args.command == "worker":
        return _dispatch_worker(args)
    elif args.command == "serve":
        from repro.service.server import serve
        kwargs = {}
        if args.host is not None:
            kwargs["host"] = args.host
        if args.port is not None:
            kwargs["port"] = args.port
        _checked(serve, args.store, **kwargs)
    elif args.command == "job":
        return _dispatch_job(args)
    elif args.command == "list":
        from repro.experiments.registry import all_experiments
        rows = [[e.exp_id, e.paper_artefact, e.description]
                for e in all_experiments()]
        print(format_table(["id", "paper artefact", "description"], rows,
                           title="Reproducible experiments "
                                 "(see docs/architecture.md)"))
    return 0


def _parse_fault_rates(entries: Optional[Sequence[str]]) -> dict:
    """``--fault-rate`` values → FaultPlan kwargs (exit 2 on bad input).

    A bare number storms every telemetry site at that probability; a
    ``field=rate`` pair sets one site's field by name (repeatable).
    """
    from repro.faults import RATE_FIELDS
    rates: dict = {}
    for entry in entries or ["0.1"]:
        if "=" in entry:
            name, _, raw = entry.partition("=")
            name = name.strip()
            if name not in RATE_FIELDS:
                known = ", ".join(RATE_FIELDS)
                raise _BadInput(f"unknown fault site field {name!r}; "
                                f"one of: {known}")
            fields = (name,)
        else:
            raw = entry
            fields = ("telemetry_drop", "telemetry_delay",
                      "telemetry_dup")
        try:
            rate = float(raw)
        except ValueError:
            raise _BadInput(
                f"fault rate must be a number, got {raw!r}") from None
        if not 0.0 <= rate <= 1.0:
            raise _BadInput(f"fault rate must be in [0, 1], got {rate}")
        for name in fields:
            rates[name] = rate
    return rates


def _dispatch_chaos(args: argparse.Namespace,
                    horizon: Optional[float]) -> int:
    """``repro chaos run``: an online fleet under an injected schedule."""
    from repro.faults import FaultPlan, last_injector
    _check_execution(args)
    plan = _checked(FaultPlan, seed=args.fault_seed,
                    max_delay_epochs=args.max_delay_epochs,
                    **_parse_fault_rates(args.fault_rate))
    spec = ExperimentSpec(
        name=f"cli-chaos-{args.mix}-{args.homes}homes",
        kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=horizon),
        seeds=(args.seed,),
        fleet=FleetPlan(homes=args.homes, mix=args.mix,
                        coordination="online"),
        forecast=ForecastPlan(forecaster=args.forecaster),
        faults=plan)
    result = _checked(run_spec, spec, jobs=args.jobs,
                      shard_size=args.shard_size)
    neighborhood = result.neighborhood
    print(neighborhood.render())
    coordination = neighborhood.coordination
    injector = last_injector()
    schedule = injector.schedule() if injector is not None else ()
    rows = [["fault seed", args.fault_seed],
            ["faults fired", len(schedule)],
            ["schedule digest",
             injector.schedule_digest()[:12] if injector else "-"],
            ["telemetry dropped", coordination.telemetry_dropped],
            ["telemetry delayed", coordination.telemetry_delayed],
            ["telemetry duplicated", coordination.telemetry_duplicated],
            ["stale predictions", coordination.stale_predictions],
            ["epochs applied",
             f"{coordination.epochs_applied}/{coordination.n_epochs}"]]
    print(format_table(["fault metric", "value"], rows,
                       title="chaos: injected schedule + degradation"))
    raised = [outcome for outcome in coordination.epochs
              if outcome.coordinated_peak_w
              > outcome.independent_peak_w + 1e-9]
    if raised:
        print(f"error: {len(raised)} epoch(s) raised the realized peak "
              f"under faults", file=sys.stderr)
        return 1
    print("invariants: never-raise-peak OK, energy conserved by "
          "rotation (guard-enforced)")
    return 0


def _dispatch_cache(args: argparse.Namespace) -> int:
    """The ``repro cache ls/clear`` family."""
    from repro.api.cache import ResultCache
    cache = ResultCache()
    if args.cache_command == "ls":
        entries = cache.entries()
        if not entries:
            print(f"cache empty ({cache.root})")
            return 0
        rows = [[e.name, e.kind, e.spec_hash[:12], e.code_version,
                 f"{e.size_bytes / 1e3:.1f} kB"] for e in entries]
        total = sum(e.size_bytes for e in entries)
        print(format_table(
            ["name", "kind", "spec", "code", "size"], rows,
            title=f"Result cache at {cache.root} "
                  f"({len(entries)} entries, {total / 1e6:.1f} MB of "
                  f"{cache.max_bytes / 1e6:.0f} MB)"))
    elif args.cache_command == "stats":
        stats = cache.stats()
        print(format_table(
            ["counter", "value"],
            [["lookups", stats.lookups],
             ["hits", stats.hits],
             ["misses", stats.misses],
             ["hit ratio", f"{stats.hit_ratio:.2f}"],
             ["stores", stats.stores],
             ["bytes read", f"{stats.bytes_read / 1e6:.1f} MB"],
             ["bytes written", f"{stats.bytes_written / 1e6:.1f} MB"]],
            title=f"Result cache usage ({cache.root}; cleared on "
                  f"`repro cache clear`)"))
    elif args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
    return 0


def _dispatch_worker(args: argparse.Namespace) -> int:
    """``repro worker``: one daemon draining the service job queue."""
    from repro.service.worker import WorkerDaemon
    _check_execution(args)
    daemon = _checked(WorkerDaemon, args.store,
                      worker_id=args.worker_id, jobs=args.jobs,
                      shard_size=args.shard_size,
                      lease_ttl=args.lease_ttl)
    print(f"worker {daemon.worker_id} draining {daemon.store.root}",
          flush=True)
    finished = daemon.run_forever(max_jobs=args.max_jobs,
                                  idle_exit_s=args.idle_exit)
    print(f"worker {daemon.worker_id} exiting after {finished} job(s)")
    return 0


def _dispatch_job(args: argparse.Namespace) -> int:
    """The ``repro job submit/status/result/ls`` family."""
    from repro.service.client import ServiceClient, ServiceError
    client = ServiceClient(args.store)
    try:
        if args.job_command == "submit":
            spec = _load_spec(args.path)
            job_id = client.submit(spec)
            status = client.status(job_id)
            source = "artifact store" if status.cached else "queue"
            print(f"job {job_id} ({status.state}, via {source})")
            if args.wait:
                print(client.result(job_id,
                                    timeout=args.timeout).render())
        elif args.job_command == "status":
            status = client.status(args.job_id)
            print(format_table(
                ["field", "value"],
                [["state", status.state],
                 ["attempts", status.attempts],
                 ["worker", status.worker or "-"],
                 ["cached", "yes" if status.cached else "no"],
                 ["error", status.error or "-"]],
                title=f"job {status.job_id[:12]}"))
        elif args.job_command == "result":
            timeout = args.timeout if args.timeout is not None else 0
            print(client.result(args.job_id, timeout=timeout).render())
        elif args.job_command == "ls":
            records = client.queue.jobs()
            if not records:
                print(f"queue empty ({client.store.root})")
                return 0
            rows = [[record.job_id[:12], record.name, record.kind,
                     record.state, record.attempts]
                    for record in records]
            print(format_table(
                ["job", "name", "kind", "state", "attempts"], rows,
                title=f"Service queue at {client.store.root} "
                      f"({len(records)} jobs)"))
    except ServiceError as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


def _dispatch_spec(args: argparse.Namespace) -> int:
    """The ``repro spec show/validate/dump`` family."""
    if args.spec_command == "show":
        for exp_id in args.ids:
            print(_registry_spec(exp_id).to_json())
    elif args.spec_command == "validate":
        spec = _load_spec(args.path)
        from repro.api import spec_hash
        print(f"ok: {spec.name} (kind {spec.kind}, "
              f"spec {spec_hash(spec)[:12]})")
    elif args.spec_command == "dump":
        from repro.experiments.registry import all_experiments
        if args.dump_all and args.ids:
            raise _BadInput("spec dump takes experiment ids or --all, "
                            "not both")
        if args.dump_all:
            ids = [e.exp_id for e in all_experiments()]
        elif args.ids:
            ids = list(args.ids)
        else:
            raise _BadInput("spec dump needs experiment ids or --all")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for exp_id in ids:
            spec = _registry_spec(exp_id)
            path = out_dir / f"{exp_id}.json"
            path.write_text(spec.to_json() + "\n")
            print(f"spec written to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
