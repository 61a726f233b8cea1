"""Sharded neighborhood execution: fleets lowered to per-shard sub-specs.

The one fleet execution path.  At N≥500 homes a per-home fan-out would
cost one dispatch, one result pickle and one parent-side aggregation
step *per home*; sharding cuts the work so every unit is a contiguous
**sub-fleet** (a small in-process fleet is a single shard):

* :func:`shard_fleet` lowers a :class:`~repro.neighborhood.fleet.FleetSpec`
  into per-shard sub-specs (``<fleet>/shard<i>`` slices) — the
  declarative layer exposes the same lowering as
  :func:`repro.api.compile.compile_shards`;
* each persistent-pool worker (:func:`_execute_shard`) runs its whole
  shard and **pre-reduces locally**: the shard's compensated partial
  feeder sum (:func:`~repro.neighborhood.aggregate.partial_sum`) and the
  per-home scalar :class:`~repro.analysis.loadstats.LoadStats`, so the
  parent aggregates S partials instead of N homes;
* per-home series travel as **one batched frame per shard**
  (:mod:`repro.neighborhood.transport`) instead of N per-home pickles.

Every feeder — a ``neighborhood`` spec or one feeder of a ``grid`` —
shards here, through :mod:`repro.neighborhood.federation`'s runner.
Sharding is an execution strategy, never an experiment parameter:
results are bit-identical for every ``(shard_size, jobs)`` combination
— the feeder profile is the correctly rounded per-event sum regardless
of partitioning (see
:func:`~repro.neighborhood.aggregate.combine_partials`), and home runs
are independently seeded.  ``tests/test_fleet_sharding.py`` locks the
invariance by digest.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.analysis.loadstats import LoadStats, load_stats
from repro.core.system import RunResult, execute_config
from repro.neighborhood.aggregate import SeriesPartial, partial_sum
from repro.neighborhood.fleet import FleetSpec
from repro.neighborhood.transport import FrameUnavailableError, \
    SeriesFrame, pack_series, unpack_series

#: Auto shard size for in-process (``jobs=1``) fleet runs — a fleet
#: smaller than this runs as one shard.
DEFAULT_SHARD_SIZE = 64


@dataclass(frozen=True)
class ShardSpec:
    """One shard's complete, picklable work order: a sub-fleet to run.

    ``framed`` ships the series back as one
    :class:`~repro.neighborhood.transport.SeriesFrame` (cross-process
    shards); ``False`` keeps results in-process (the ``jobs=1`` fast
    path — no frame, no pickle).
    """

    index: int
    fleet: FleetSpec
    until: Optional[float]
    #: stats window end — per-home :class:`LoadStats` cover ``[0, horizon)``
    horizon: float
    framed: bool = False
    #: when set, the worker also pre-reduces each home's
    #: :func:`~repro.neighborhood.coordination.phase_envelope_window`
    #: over ``[0, horizon)`` at this (already snapped — see
    #: ``snap_bin``) bin width, so the parent's coordination plane never
    #: touches raw per-home series
    envelope_bin_s: Optional[float] = None


@dataclass
class ShardOutcome:
    """What one shard worker hands back, pre-reduced.

    ``homes`` ride with their ``load_w`` stripped when ``frame`` is set
    (the series travel batched); :func:`execute_shards` re-attaches the
    unpacked views before anyone downstream sees the results.
    """

    index: int
    homes: list[RunResult]
    frame: Optional[SeriesFrame]
    partial: SeriesPartial
    home_stats: list[LoadStats]
    #: per-home phase envelopes (shard order) when the spec asked for
    #: them (:attr:`ShardSpec.envelope_bin_s`), else ``None``
    envelopes: Optional[list[tuple[float, ...]]] = None


def shard_fleet(fleet: FleetSpec, shard_size: int) -> list[FleetSpec]:
    """Lower a fleet into contiguous per-shard sub-fleets (sub-specs).

    Slicing preserves home identity completely — each
    :class:`~repro.neighborhood.fleet.HomeSpec` carries its own derived
    seed and scenario — so running the sub-fleets in any grouping
    reproduces the unsharded fleet bit for bit.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [replace(fleet, name=f"{fleet.name}/shard{index}",
                    homes=fleet.homes[start:start + shard_size])
            for index, start in enumerate(
                range(0, fleet.n_homes, shard_size))]


def plan_shards(fleet: FleetSpec, until: Optional[float] = None,
                shard_size: Optional[int] = None, jobs: int = 1,
                envelope_bin_s: Optional[float] = None,
                horizon: Optional[float] = None) -> list[ShardSpec]:
    """Decide the shard layout for one fleet run.

    ``shard_size=None`` sizes shards automatically: in process
    (``jobs=1``) :data:`DEFAULT_SHARD_SIZE` homes per shard, so a small
    fleet is one shard; across processes ``jobs``-aware so every worker
    sees several shards (load balancing, same policy as
    :func:`repro.experiments.pool.dispatch_chunksize`).  Any value
    ``>= 1`` is used as given.  Cross-process shards are ``framed``.

    ``envelope_bin_s`` (a bin width already snapped to the horizon —
    see :func:`repro.neighborhood.coordination.snap_bin`) asks the shard
    workers to pre-reduce each home's phase envelope locally, so a
    coordinating parent aggregates S envelope batches instead of
    touching N raw series; :func:`phase_envelope_window
    <repro.neighborhood.coordination.phase_envelope_window>` is pure,
    so the result is bit-identical to computing them parent-side.

    ``horizon`` is the window the shard workers pre-reduce stats and
    envelopes over (default: ``until``, else the fleet's own horizon);
    a grid feeder passes the grid's, which may exceed its fleet's.
    """
    size = shard_size
    if size is None:
        if jobs <= 1:
            size = DEFAULT_SHARD_SIZE
        else:
            from repro.experiments.pool import CHUNKS_PER_WORKER
            size = max(1, math.ceil(fleet.n_homes
                                    / (jobs * CHUNKS_PER_WORKER)))
    sub_fleets = shard_fleet(fleet, size)
    if horizon is None:
        horizon = until if until is not None else fleet.horizon
    framed = jobs > 1 and len(sub_fleets) > 1
    return [ShardSpec(index=index, fleet=sub_fleet, until=until,
                      horizon=horizon, framed=framed,
                      envelope_bin_s=envelope_bin_s)
            for index, sub_fleet in enumerate(sub_fleets)]


def _execute_shard(spec: ShardSpec) -> tuple:
    """Worker body: run every home of the shard, pre-reduce, pack.

    Module-level and returning ``(status, name, payload)`` triples for
    the same reasons as
    :func:`repro.experiments.runner._execute_run_spec`; a failing home
    names itself, not the shard, so
    :class:`~repro.experiments.runner.WorkerFailure` messages name the
    home that raised.
    """
    results: list[RunResult] = []
    for home in spec.fleet.homes:
        try:
            results.append(
                execute_config(home.config(), until=spec.until).portable())
        except Exception:
            return ("err", home.scenario.name, traceback.format_exc())
    try:
        series = [result.load_w for result in results]
        partial = partial_sum(series)
        stats = [load_stats(result.load_w, 0.0, spec.horizon)
                 for result in results]
        envelopes = None
        if spec.envelope_bin_s is not None:
            from repro.neighborhood.coordination import (
                phase_envelope_window)
            envelopes = [phase_envelope_window(one, 0.0, spec.horizon,
                                               spec.envelope_bin_s)
                         for one in series]
        frame = None
        if spec.framed:
            frame = pack_series(series)
            results = [replace(result, load_w=None) for result in results]
        return ("ok", spec.fleet.name,
                ShardOutcome(index=spec.index, homes=results, frame=frame,
                             partial=partial, home_stats=stats,
                             envelopes=envelopes))
    except Exception:
        return ("err", spec.fleet.name, traceback.format_exc())


def execute_shards(shards: Sequence[ShardSpec], jobs: int = 1,
                   executor=None,
                   ) -> tuple[list[RunResult], list[SeriesPartial],
                              list[LoadStats],
                              Optional[list[tuple[float, ...]]]]:
    """Run every shard and fan the pre-reduced pieces back in.

    Returns ``(home_results, shard_partials, home_stats, envelopes)``,
    all in fleet order; ``envelopes`` is ``None`` unless the shards
    carried an :attr:`ShardSpec.envelope_bin_s`.  Cross-process shards
    come back as one frame each; the series are re-attached as
    zero-copy views before return.

    ``executor`` swaps the per-shard worker body (default
    :func:`_execute_shard`): a module-level picklable callable with the
    same ``ShardSpec -> (status, name, payload)`` contract.  The service
    plane injects a checkpointing wrapper here
    (:func:`repro.service.worker._checkpointed_shard`); since outcomes
    are bit-identical however produced, the hook cannot change results.
    """
    from repro.experiments.runner import WorkerFailure, fan_out
    shards = list(shards)
    if not shards:
        return [], [], [], None
    triples = fan_out(executor if executor is not None else _execute_shard,
                      shards, jobs=jobs)
    homes: list[RunResult] = []
    partials: list[SeriesPartial] = []
    home_stats: list[LoadStats] = []
    envelopes: list[tuple[float, ...]] = []
    for shard, (status, name, payload) in zip(shards, triples):
        if status == "ok" and payload.frame is not None:
            try:
                series = unpack_series(payload.frame)
            except FrameUnavailableError:
                # The shard's batched series are lost (an injected
                # transport.frame fault) or malformed.  Home runs are
                # bit-deterministic, so re-executing the shard here,
                # in-process and frameless, reproduces the lost data
                # exactly; only the transport optimization is lost.
                status, name, payload = _execute_shard(
                    replace(shard, framed=False))
            else:
                payload.homes = [replace(result, load_w=one)
                                 for result, one in zip(payload.homes,
                                                        series)]
        if status == "err":
            raise WorkerFailure(name, payload)
        outcome: ShardOutcome = payload
        homes.extend(outcome.homes)
        partials.append(outcome.partial)
        home_stats.extend(outcome.home_stats)
        if outcome.envelopes is not None:
            envelopes.extend(outcome.envelopes)
    return homes, partials, home_stats, \
        envelopes if len(envelopes) == len(homes) and homes else None
