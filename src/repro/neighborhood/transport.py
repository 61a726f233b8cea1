"""Batched result transport for fleet-scale neighborhood runs.

Per-home pickles were measured fine at N=200 (~8 kB/home, <1 % of the
run), but at N≥500 the per-object serialisation — one ``StepSeries``
pickle per home, each a separate dispatch through the result pipe —
becomes pure overhead on the hot fan-in path.  This module replaces N
per-home series pickles with **one frame per shard**:

* the worker concatenates every series' ``(times, values)`` arrays into
  a single ``float64`` block and ships it as one ``bytes`` blob through
  the ordinary result pipe — a :class:`SeriesFrame` records the
  per-series names and lengths beside it;
* the parent hands out ``np.frombuffer`` views over the blob —
  **zero-copy**: every bulk consumer (aggregation, coordination,
  statistics) reads them directly, and each view keeps the blob alive
  through its ``.base``.  The O(events) plain-list twin each series also
  carries is for the scalar paths and is negligible at fleet event
  densities.

Transport never touches values: the frame carries the exact recorded
float64 bits, so cross-process results are bit-identical to in-process
ones — the shard-invariance tests diff digests across ``jobs`` and
shard sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.faults import get_injector
from repro.sim.monitor import StepSeries


class FrameUnavailableError(RuntimeError):
    """A frame's data cannot be unpacked; the shard must be re-executed.

    Raised by :func:`unpack_series` when the frame is lost (an injected
    ``transport.frame`` fault) or its blob does not match the layout
    its names and lengths claim.  Home runs are bit-deterministic, so
    the caller re-executes the shard in process
    (:func:`repro.neighborhood.shard.execute_shards`).
    """

    def __init__(self, detail: str):
        super().__init__(f"series frame is unavailable: {detail} "
                         f"(re-execute the shard)")


@dataclass
class SeriesFrame:
    """Many step series batched into one contiguous transport block.

    Layout: ``blob`` holds a ``(2, max(total, 1))`` float64 array — row
    0 the concatenated event times, row 1 the concatenated values — with
    ``lengths[i]`` spans in series order.
    """

    names: tuple[str, ...]
    lengths: tuple[int, ...]
    blob: bytes

    @property
    def total(self) -> int:
        """Total number of ``(time, value)`` records in the block."""
        return sum(self.lengths)


def pack_series(series_list: Sequence[StepSeries]) -> SeriesFrame:
    """Batch ``series_list`` into one frame (worker side)."""
    names = tuple(series.name for series in series_list)
    lengths = tuple(len(series) for series in series_list)
    total = sum(lengths)
    # np.zeros, not np.empty: the block keeps one padding slot when
    # ``total == 0``, and that slot is never written below —
    # uninitialized padding made ``tobytes()`` blobs
    # byte-nondeterministic, breaking digests/dedup over pickled frames.
    block = np.zeros((2, max(total, 1)), dtype=np.float64)
    cursor = 0
    for series in series_list:
        times, values = series._data()
        span = times.size
        block[0, cursor:cursor + span] = times
        block[1, cursor:cursor + span] = values
        cursor += span
    return SeriesFrame(names=names, lengths=lengths, blob=block.tobytes())


def unpack_series(frame: SeriesFrame) -> list[StepSeries]:
    """Rebuild the batched series from a frame (parent side), zero-copy.

    The blob is viewed via ``np.frombuffer``, copy-free.  A frame whose
    blob is not exactly ``16 * max(total, 1)`` bytes, or whose names and
    lengths differ in count, raises :class:`FrameUnavailableError`
    instead of unpacking to wrong series.

    Under an active fault plan, the ``transport.frame`` site (keyed on
    the frame's first series name — stable for a given shard layout) can
    make the frame unavailable, exercising callers' re-execution
    fallback.
    """
    injector = get_injector()
    if injector is not None and frame.names and injector.fire(
            "transport.frame", frame.names[0]):
        raise FrameUnavailableError("injected frame loss")
    width = max(frame.total, 1)
    if len(frame.names) != len(frame.lengths):
        raise FrameUnavailableError(
            f"{len(frame.names)} names for {len(frame.lengths)} lengths")
    if len(frame.blob) != 16 * width:
        raise FrameUnavailableError(
            f"blob holds {len(frame.blob)} bytes, layout needs "
            f"{16 * width}")
    block = np.frombuffer(frame.blob, dtype=np.float64).reshape(2, width)
    series_list: list[StepSeries] = []
    cursor = 0
    for name, span in zip(frame.names, frame.lengths):
        series_list.append(StepSeries.from_arrays(
            name,
            block[0, cursor:cursor + span],
            block[1, cursor:cursor + span]))
        cursor += span
    return series_list
