"""Sharded neighborhood execution: fleets lowered to per-shard sub-specs.

The one fleet execution path.  At N≥500 homes a per-home fan-out would
cost one dispatch and one result pickle *per home*; sharding cuts the
work so every unit is a contiguous **sub-fleet** (a small in-process
fleet is a single shard):

* :func:`shard_fleet` lowers a :class:`~repro.neighborhood.fleet.FleetSpec`
  into per-shard sub-specs (``<fleet>/shard<i>`` slices) — the
  declarative layer exposes the same lowering as
  :func:`repro.api.compile.compile_shards`;
* each persistent-pool worker (:func:`_execute_shard`) runs its whole
  shard and returns only the home results; the parent folds the
  feeder profile once from the series it keeps anyway;
* per-home series travel as **one batched frame per shard**
  (:mod:`repro.neighborhood.transport`) instead of N per-home pickles.

Every feeder — a ``neighborhood`` spec or one feeder of a ``grid`` —
shards here, through :mod:`repro.neighborhood.federation`'s runner.
Sharding is an execution strategy, never an experiment parameter:
results are bit-identical for every ``(shard_size, jobs)`` combination
— home runs are independently seeded, and the parent folds every
feeder from the same per-home series in fleet order.
``tests/test_fleet_sharding.py`` locks the invariance by digest.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.core.system import RunResult, execute_config
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
    framed: bool = False


@dataclass
class ShardOutcome:
    """What one shard worker hands back: its home runs.

    ``homes`` ride with their ``load_w`` stripped when ``frame`` is set
    (the series travel batched); :func:`execute_shards` re-attaches the
    unpacked views before anyone downstream sees the results.
    """

    index: int
    homes: list[RunResult]
    frame: Optional[SeriesFrame]


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
                shard_size: Optional[int] = None,
                jobs: int = 1) -> list[ShardSpec]:
    """Decide the shard layout for one fleet run.

    ``shard_size=None`` sizes shards automatically: in process
    (``jobs=1``) :data:`DEFAULT_SHARD_SIZE` homes per shard, so a small
    fleet is one shard; across processes ``jobs``-aware so every worker
    sees several shards (load balancing, same policy as
    :func:`repro.experiments.pool.dispatch_chunksize`).  Any value
    ``>= 1`` is used as given.  Cross-process shards are ``framed``.
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
    framed = jobs > 1 and len(sub_fleets) > 1
    return [ShardSpec(index=index, fleet=sub_fleet, until=until,
                      framed=framed)
            for index, sub_fleet in enumerate(sub_fleets)]


def _execute_shard(spec: ShardSpec) -> tuple:
    """Worker body: run every home of the shard, pack the series.

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
        frame = None
        if spec.framed:
            frame = pack_series([result.load_w for result in results])
            results = [replace(result, load_w=None) for result in results]
        return ("ok", spec.fleet.name,
                ShardOutcome(index=spec.index, homes=results, frame=frame))
    except Exception:
        return ("err", spec.fleet.name, traceback.format_exc())


def execute_shards(shards: Sequence[ShardSpec], jobs: int = 1,
                   executor=None) -> list[RunResult]:
    """Run every shard and return the home results in fleet order.

    Cross-process shards come back as one frame each; the series are
    re-attached as zero-copy views before return.

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
        return []
    triples = fan_out(executor if executor is not None else _execute_shard,
                      shards, jobs=jobs)
    homes: list[RunResult] = []
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
        homes.extend(payload.homes)
    return homes
