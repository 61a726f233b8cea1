"""Replayable append-only telemetry log.

The online coordination loop (:mod:`repro.neighborhood.online`) is only
bit-deterministic if the stream of realized samples it consumed can be
reproduced exactly.  :class:`TelemetryLog` is that record: every sample
appended into the telemetry plane is also journalled here, in arrival
order, and :meth:`TelemetryLog.replay` rebuilds the per-home
:class:`~repro.sim.monitor.StepSeries` from nothing but the journal —
bit-identical to the series the live ingestion path maintained, which
``tests/test_telemetry.py`` locks.

The log is append-only by construction (no mutation API), and
:meth:`TelemetryLog.digest` fingerprints the full event stream so two
runs can assert they ingested identical telemetry without shipping the
events themselves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from repro.sim.monitor import StepSeries


@dataclass(frozen=True)
class TelemetryEvent:
    """One journalled sample: ``home_id`` reported ``value`` at ``time``."""

    home_id: int
    time: float
    value: float


class TelemetryLog:
    """Append-only journal of every sample the telemetry plane ingested."""

    __slots__ = ("_events",)

    def __init__(self) -> None:
        self._events: list[TelemetryEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> tuple[TelemetryEvent, ...]:
        """The journal so far, in arrival order (immutable view)."""
        return tuple(self._events)

    def extend(self, home_id: int, times: Iterable[float],
               values: Iterable[float]) -> None:
        """Journal one home's batch of samples, in batch order."""
        self._events.extend(
            TelemetryEvent(home_id=int(home_id), time=float(time),
                           value=float(value))
            for time, value in zip(times, values))

    def digest(self) -> str:
        """SHA-256 over the exact event stream (ids, times, value bits).

        Arrival-order sensitive by design: it fingerprints *what the
        plane experienced*, including delivery order — two runs whose
        homes reported in different interleavings digest differently.
        Use :meth:`canonical_digest` for an order-insensitive
        fingerprint of the event multiset.
        """
        hasher = hashlib.sha256()
        for event in self._events:
            hasher.update(
                repr((event.home_id, event.time, event.value)).encode())
        return hasher.hexdigest()

    def canonical_digest(self) -> str:
        """SHA-256 over the *sorted* event multiset (order-insensitive).

        Two journals holding the same samples — however shuffled or
        delayed their arrival order was — produce the same canonical
        digest, which is the equality the late-arrival-storm tests
        assert: a storm permutes arrival, never content.
        """
        hasher = hashlib.sha256()
        ordered = sorted(self._events,
                         key=lambda event: (event.home_id, event.time,
                                            event.value))
        for event in ordered:
            hasher.update(
                repr((event.home_id, event.time, event.value)).encode())
        return hasher.hexdigest()

    def replay(self) -> dict[int, StepSeries]:
        """Rebuild every home's series from the journal alone.

        Per home, events replay through
        :meth:`~repro.sim.monitor.StepSeries.record` in *stable time
        order* — for an in-order journal that is exactly journal order
        (the original replay contract, bit-identical to live
        ingestion), and for a journal whose batches arrived shuffled,
        delayed or duplicated (a late-arrival storm) the sort restores
        the unique time-ordered stream, so the rebuilt series are
        bit-identical to the in-order run's.  Same-time duplicates
        collapse exactly as :meth:`record` defines (last wins;
        no-change records are dropped).
        """
        per_home: dict[int, list[TelemetryEvent]] = {}
        for event in self._events:
            per_home.setdefault(event.home_id, []).append(event)
        return {home_id: _replay_home(home_id, events)
                for home_id, events in per_home.items()}


def _replay_home(home_id: int,
                 events: list[TelemetryEvent]) -> StepSeries:
    """One home's series rebuilt from its journal ``events``, given in
    arrival order and sorted in place: a stable time sort, then one
    :meth:`~repro.sim.monitor.StepSeries.record` per event."""
    events.sort(key=lambda event: event.time)  # stable
    series = StepSeries(name=f"telemetry/home-{home_id}")
    for event in events:
        series.record(event.time, event.value)
    return series
