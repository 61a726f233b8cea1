"""Streaming ingestion: per-home series and journalling.

:class:`TelemetryIngest` is the front door the online loop feeds each
epoch: a batch of realized samples per home goes through
:meth:`~repro.sim.monitor.StepSeries.append` (the vectorized bulk-record
path) into that home's history series, and is journalled in the shared
:class:`~repro.telemetry.log.TelemetryLog` so the whole run can be
replayed bit-identically.  The history series is all the forecasters
read (after arXiv:1708.04613's per-home stream prediction).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.sim.monitor import StepSeries
from repro.telemetry.log import TelemetryLog, _replay_home


class TelemetryIngest:
    """Per-home streaming front door: history series + journal."""

    __slots__ = ("log", "_series")

    def __init__(self, log: Optional[TelemetryLog] = None) -> None:
        self.log = log if log is not None else TelemetryLog()
        self._series: dict[int, StepSeries] = {}

    def ingest(self, home_id: int, times: Iterable[float],
               values: Iterable[float]) -> None:
        """Append one home's batch: series and journal."""
        times = [float(time) for time in times]
        values = [float(value) for value in values]
        self.series(home_id).append(times, values)
        self.log.extend(home_id, times, values)

    def ingest_late(self, home_id: int, times: Iterable[float],
                    values: Iterable[float]) -> None:
        """Fold in a batch that arrived *out of order* (late or duplicate).

        The fast path (:meth:`ingest`) assumes non-decreasing time; a
        delayed batch whose samples precede already-ingested ones would
        be rejected there.  This path journals the batch exactly as it
        arrived (the journal records *arrival*, late or not), then
        rebuilds the home's series from its journal events with the
        rebuild :meth:`repro.telemetry.log.TelemetryLog.replay` applies
        per home, so the post-recovery state is bit-identical to what
        an on-time delivery would have produced.  Duplicate batches
        collapse under :meth:`~repro.sim.monitor.StepSeries.record`
        semantics.

        Cost is one scan of the journal plus a rebuild of the home's
        events per late batch — the price of recovery, paid only on
        actual late arrivals.
        """
        self.log.extend(home_id, times, values)
        self._series[home_id] = _replay_home(
            home_id, [event for event in self.log.events
                      if event.home_id == home_id])

    def series(self, home_id: int) -> StepSeries:
        """The home's ingested history (empty series before first batch)."""
        series = self._series.get(home_id)
        if series is None:
            series = StepSeries(name=f"telemetry/home-{home_id}")
            self._series[home_id] = series
        return series
