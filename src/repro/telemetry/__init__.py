"""Streaming telemetry plane: ingestion and a replayable log.

The high-velocity side of online coordination (after
arXiv:1708.04613): realized per-home load arrives as append-only
batches (:meth:`repro.sim.monitor.StepSeries.append`) into each home's
history series (:class:`TelemetryIngest`), and every sample is
journalled in a :class:`TelemetryLog` whose replay rebuilds the exact
per-home series — the bit-determinism contract
:mod:`repro.neighborhood.online` builds on.
"""

from repro.telemetry.log import TelemetryEvent, TelemetryLog
from repro.telemetry.stream import TelemetryIngest

__all__ = [
    "TelemetryEvent",
    "TelemetryIngest",
    "TelemetryLog",
]
