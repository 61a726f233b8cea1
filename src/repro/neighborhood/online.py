"""Online per-epoch coordination against predicted envelopes.

The feeder plane runs one coordination loop
(:func:`repro.neighborhood.coordination._epoch_loop`); the batch tiers
are its one-window call, over realized profiles, *post hoc*.  This
module is the loop's online envelope source, after arXiv:2304.11770's
epoch-replanning online HEMS: the horizon is tiled into CP epochs, and
at each epoch start the gateways re-negotiate phase offsets against
**predicted** envelopes from a :mod:`repro.forecast` forecaster fed by
the :mod:`repro.telemetry` stream of everything realized so far.

:func:`coordinate_fleet_online` runs the loop over the epoch grid, per
epoch:

1. **predict** (this module) — every home's forecaster emits its
   envelope for the upcoming window from telemetry strictly *before*
   the window (the oracle alone may peek, by design — it is the
   zero-error ceiling);
2. **diff + renegotiate** (the loop) — homes whose predicted envelope
   moved re-publish (:meth:`~repro.neighborhood.coordination.FeederPlane
   .update_envelope`) and only they take claim tokens
   (:func:`~repro.neighborhood.coordination.renegotiate_offsets`),
   seeded with the previous epoch's claims — incremental, not
   from-scratch; the first epoch is a cold full negotiation;
3. **apply + guard** (the loop) — offsets rotate every home's
   *realized* window in one flat pass over the fleet's record table
   (:func:`~repro.neighborhood.coordination.rotate_windows`, energy- and
   per-home-peak-conserving), and the windows are summed exactly
   (:func:`~repro.neighborhood.aggregate.table_sums`): the
   realized-improvement guard re-checks each epoch independently and
   declines to zero offsets any epoch whose rotated sum does not
   strictly beat the independent profile — so online coordination
   never raises any epoch's peak;
4. **ingest** (this module, the loop's ``observe`` hook) — the
   realized window streams into telemetry (journalled in a replayable
   :class:`~repro.telemetry.log.TelemetryLog`), becoming history for
   the next epoch's predictions.

**Degradation under telemetry faults.**  With an active
:mod:`repro.faults` plan, a home's per-epoch batch can be dropped,
delayed (delivered whole a few epochs later through
:meth:`~repro.telemetry.stream.TelemetryIngest.ingest_late`), or
duplicated in the journal.  A per-home staleness ledger tracks the
newest epoch each home has reported through; a home whose ledger lags
the prediction boundary falls down a two-step ladder instead of
feeding stale data to its configured forecaster:

1. **persistence** — any telemetry at all → predict the last observed
   window forward (:class:`repro.forecast.PersistenceForecaster`);
2. **last committed envelope** — no telemetry yet → reuse the previous
   epoch's committed envelope.

No home is stale at epoch 0, and every later epoch has a committed
envelope for every home, so the ladder always ends at step 2.  A home
that never reports therefore replays its epoch-0 prediction for the
rest of the run — and under the oracle that prediction was a peek at
its realized load.

The ladder only shapes *predictions*; offsets still rotate realized
windows under the per-epoch guard, so energy conservation and
never-raise-peak hold under **any** fault schedule — the invariants
``tests/test_fault_matrix.py`` locks.  Each home's rotated window keeps
its energy bit-exactly; the feeder-level energy drift is float
rounding of the summed profiles (exactly 0.0 Wh on the test fleets, a
few 1e-10 Wh on some 500-home replays).

**Stitching.**  The loop keeps each epoch's rotated windows and its
feeder sum as flat records and builds the whole-horizon series once,
after the last epoch.  A home's contribution is its windows in epoch
order less any record that repeats the home's previous value — exactly
what appending the windows one by one with
:meth:`~repro.sim.monitor.StepSeries.append` records.  The coordinated
feeder profile is the epochs' sums joined the same way, with the
independent profile's window on declined epochs.  Every per-event sum
is correctly rounded, so summing per epoch gives the same bits as
summing the stitched contributions over the whole horizon; both
identities are locked by ``tests/test_online_coordination.py``.

Determinism: the loop consumes only the bit-deterministic per-home
results in fleet order, forecasters are pure (noise comes from named
streams keyed on home and window), and the stitch is a pure function
of the epochs' records — so online runs are bit-identical across jobs
counts and shard sizes, locked by ``tests/test_online_coordination.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.api.spec import ForecastPlan
from repro.core.system import RunResult
from repro.neighborhood.aggregate import sum_series
from repro.neighborhood.coordination import (
    EpochOutcome,
    FeederConfig,
    FeederCoordination,
    _default_epoch,
    _epoch_loop,
    snap_bin,
)
from repro.telemetry import TelemetryIngest

if TYPE_CHECKING:  # pragma: no cover
    from repro.neighborhood.fleet import FleetSpec


#: Forecaster selection + knobs for an online coordination run: the
#: spec API's :class:`~repro.api.spec.ForecastPlan` itself, defaulting
#: to the oracle with no noise — the uplift-ceiling configuration.
ForecastConfig = ForecastPlan


@dataclass
class OnlineCoordination(FeederCoordination):
    """Outcome of an online run: the feeder record plus per-epoch detail.

    Subclasses :class:`~repro.neighborhood.coordination
    .FeederCoordination` so every batch consumer — result rendering,
    exporters, comparison stats — reads an online plan unchanged.  The
    inherited ``epoch`` is the epoch *length*; ``planned_offsets_s`` /
    ``offsets_s`` are the final epoch's plan (per-epoch offsets live in
    :attr:`epochs`); ``applied`` is True when any epoch applied.
    """

    #: per-epoch records, epoch order
    epochs: tuple[EpochOutcome, ...] = ()
    #: forecaster name the run predicted with
    forecaster: str = "oracle"
    #: total claim tokens granted across all re-negotiations
    replanned_homes: int = 0
    #: digest of the full telemetry journal (replay fingerprint)
    telemetry_digest: str = ""
    #: number of samples journalled across the run
    telemetry_events: int = 0
    #: per-epoch telemetry batches dropped by an injected fault plan
    telemetry_dropped: int = 0
    #: batches delivered late (whole, a few epochs on) by injection
    telemetry_delayed: int = 0
    #: batches journalled twice by injection (duplicate storms)
    telemetry_duplicated: int = 0
    #: home-epochs predicted off the degradation ladder (stale inputs)
    stale_predictions: int = 0

    @property
    def n_epochs(self) -> int:
        """How many CP epochs tiled the horizon."""
        return len(self.epochs)

    @property
    def epochs_applied(self) -> int:
        """How many epochs survived the per-epoch realized guard."""
        return sum(1 for outcome in self.epochs if outcome.applied)


def epoch_grid(horizon: float, epoch_s: float) -> list[tuple[float, float]]:
    """The epoch windows tiling ``[0, horizon)``, in order.

    Window ``k`` is ``[k·epoch_s, (k+1)·epoch_s)`` with the last end
    pinned to ``horizon`` exactly.  Every window satisfies
    :func:`~repro.neighborhood.coordination.rotate_window`'s exact-span
    contract (``start == 0`` or ``end ≤ 2·start``).
    """
    n_epochs = max(int(round(horizon / epoch_s)), 1)
    step = horizon / n_epochs
    return [(k * step, horizon if k == n_epochs - 1 else (k + 1) * step)
            for k in range(n_epochs)]


def coordinate_fleet_online(fleet: "FleetSpec",
                            results: Sequence[RunResult],
                            horizon: float,
                            config: Optional[FeederConfig] = None,
                            forecast: Optional[ForecastConfig] = None,
                            replan: str = "diff",
                            ) -> OnlineCoordination:
    """Run the online epoch loop over a finished fleet run.

    Like :func:`~repro.neighborhood.coordination.coordinate_fleet` this
    is pure post-exchange — the per-home simulations already ran; what
    is *online* is the information structure: every epoch's offsets are
    chosen from predictions computed before that epoch's telemetry
    exists, then applied to the realized windows under the per-epoch
    guard.  The epoch length is the feeder phase period
    (:attr:`~repro.neighborhood.coordination.FeederConfig.epoch`,
    defaulting to the fleet's largest ``maxDCP``), snapped to tile the
    horizon; envelope bins snap to tile the epoch.

    ``replan`` picks the epoch 2+ negotiation path: ``"diff"`` (the
    production default) re-publishes only homes whose predicted
    envelope moved and renegotiates incrementally from the previous
    epoch's claims; ``"cold"`` re-runs the full n² negotiation from
    scratch every epoch.  The two paths may settle on different (both
    guard-checked) claims; NBHD-ONLINE uses an oracle ``"cold"`` run
    as the hindsight ceiling the incremental loop is measured against.
    """
    if config is None:
        config = FeederConfig()
    if forecast is None:
        forecast = ForecastConfig()
    if len(results) != fleet.n_homes:
        raise ValueError(
            f"fleet has {fleet.n_homes} homes but got {len(results)} "
            f"results")
    phase = min(_default_epoch(config, fleet.homes), horizon)
    windows = epoch_grid(horizon, phase)
    epoch_s = horizon / len(windows)
    bin_s = snap_bin(epoch_s, config.bin_s)
    bins = max(int(round(epoch_s / bin_s)), 1)

    home_ids = [home.home_id for home in fleet.homes]
    profiles = [result.load_w for result in results]
    realized = dict(zip(home_ids, profiles))
    independent = sum_series(profiles)
    # Imported here, not at module top: repro.forecast itself imports
    # the coordination module (for envelope shapes), and this package's
    # __init__ pulls us in — a top-level import would cycle whenever
    # repro.forecast is imported first.
    from repro.forecast import PersistenceForecaster, make_forecaster
    forecaster = make_forecaster(
        forecast.forecaster, realized=realized, noise=forecast.noise,
        noise_seed=forecast.noise_seed, ewma_alpha=forecast.ewma_alpha,
        season_epochs=forecast.season_epochs)
    telemetry = TelemetryIngest()
    from repro.faults import get_injector
    injector = get_injector()
    fallback = PersistenceForecaster()
    #: newest source epoch each home has reported through (the
    #: staleness ledger) — only consulted when an injector is active;
    #: without one it tracks `index` exactly and no home is ever stale
    latest_ingested: dict[int, int] = {}
    #: delayed batches awaiting delivery: target epoch -> batches of
    #: ``(home_id, times, values, source_epoch)``
    held: dict[int, list[tuple[int, list, list, int]]] = {}
    #: the previous epoch's committed envelopes (ladder step 2)
    committed: dict[int, tuple[float, ...]] = {}
    dropped = delayed = duplicated = 0

    def predict(index: int, start: float, end: float):
        nonlocal committed
        # Deliver any batches whose injected delay expires this epoch
        # *before* predicting — a recovered home predicts from real
        # (late) telemetry again instead of riding the ladder.
        for home_id, times, values, source in held.pop(index, []):
            telemetry.ingest_late(home_id, times, values)
            latest_ingested[home_id] = max(
                latest_ingested.get(home_id, -1), source)
        predictions = {}
        stale_homes = 0
        for home_id in home_ids:
            stale = index > 0 and \
                latest_ingested.get(home_id, -1) < index - 1
            if not stale:
                predictions[home_id] = forecaster.predict(
                    home_id, telemetry.series(home_id), start, end,
                    bin_s, bins)
                continue
            # Degradation ladder: persistence over whatever telemetry
            # exists, else the last committed envelope (a stale home is
            # never at epoch 0, so there always is one).
            stale_homes += 1
            if len(telemetry.series(home_id)):
                predictions[home_id] = fallback.predict(
                    home_id, telemetry.series(home_id), start, end,
                    bin_s, bins)
            else:
                predictions[home_id] = committed[home_id]
        committed = predictions
        return predictions, stale_homes

    def observe(index: int, start: float, end: float) -> None:
        nonlocal dropped, delayed, duplicated
        for home_id in home_ids:
            window = realized[home_id].window(start, end)
            if injector is not None:
                key = f"e{index}:{home_id}"
                if injector.fire("telemetry.drop", key):
                    dropped += 1
                    continue
                if injector.fire("telemetry.delay", key):
                    target = index + injector.delay_epochs(key)
                    if target < len(windows):
                        held.setdefault(target, []).append(
                            (home_id, list(window.times),
                             list(window.values), index))
                        delayed += 1
                    else:
                        dropped += 1  # past the horizon = never arrives
                    continue
            telemetry.ingest(home_id, window.times, window.values)
            latest_ingested[home_id] = max(
                latest_ingested.get(home_id, -1), index)
            if injector is not None and \
                    injector.fire("telemetry.dup", f"e{index}:{home_id}"):
                # Duplicate storm: the journal sees the batch twice;
                # replay() collapses the copies bit-identically.
                telemetry.log.extend(home_id, window.times,
                                     window.values)
                duplicated += 1

    plan, outcomes, replanned = _epoch_loop(
        profiles, home_ids, independent, windows, epoch_s, bin_s, bins,
        config, predict, observe, replan)
    return OnlineCoordination(
        **vars(plan),
        epochs=outcomes, forecaster=forecast.forecaster,
        replanned_homes=replanned,
        telemetry_digest=telemetry.log.digest(),
        telemetry_events=len(telemetry.log),
        telemetry_dropped=dropped, telemetry_delayed=delayed,
        telemetry_duplicated=duplicated,
        stale_predictions=sum(outcome.stale_homes for outcome in outcomes))
