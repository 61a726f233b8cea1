"""Time-series recording for simulations.

:class:`StepSeries` records a piecewise-constant signal (e.g. total system
load): each ``record(t, v)`` states that the signal holds value ``v`` from
time ``t`` until the next record.  All summary statistics are *time-weighted*
so that sampling frequency does not bias them.

Storage is hybrid: recording appends to plain Python lists (O(1) on the
simulation hot path), while every bulk query — ``sample``, ``window`` and
the time-weighted statistics — runs over lazily materialized NumPy arrays
cached until the next ``record``.  The vectorized paths are bit-compatible
with the scalar definitions they replaced: segment durations and products
are the same IEEE-754 operations, and reductions that are sensitive to
float ordering (``integral``, ``variance``) still accumulate through
``math.fsum`` over identical per-segment terms.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class StepSeries:
    """A right-open piecewise-constant time series."""

    __slots__ = ("name", "_times", "_values", "_arrays", "_views")

    def __init__(self, name: str = ""):
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []
        #: cached ``(times, values)`` ndarray pair; None until first use
        self._arrays: Optional[tuple[np.ndarray, np.ndarray]] = None
        #: cached immutable ``(times, values)`` tuple pair for the
        #: :attr:`times` / :attr:`values` properties
        self._views: Optional[tuple[tuple[float, ...],
                                    tuple[float, ...]]] = None

    # -- recording ----------------------------------------------------------

    def record(self, time: float, value: float) -> None:
        """State that the signal equals ``value`` from ``time`` onward."""
        if self._times:
            last = self._times[-1]
            if time < last:
                raise ValueError(
                    f"record at t={time} precedes last record t={last}")
            if time == last:
                # Same-instant update wins (e.g. several devices switching in
                # one event): overwrite in place.
                self._values[-1] = value
                self._arrays = None
                self._views = None
                return
            if value == self._values[-1]:
                return  # no change, keep the series minimal
        self._times.append(float(time))
        self._values.append(float(value))
        self._arrays = None
        self._views = None

    def append(self, times: Iterable[float],
               values: Iterable[float]) -> None:
        """Bulk-record a batch of ``(time, value)`` pairs.

        The streaming-ingestion primitive (:mod:`repro.telemetry`): the
        whole batch lands in one vectorized pass when it is strictly
        time-increasing and strictly later than the last record, falling
        back to a scalar :meth:`record` loop otherwise — so semantics
        (monotonicity errors, same-instant overwrite, no-change skip)
        are *exactly* those of calling :meth:`record` per pair.

        Both cached array forms are invalidated on every mutation, so a
        ``times``/``values`` view or ``_data()`` pair fetched before the
        append is never returned stale afterwards (locked by
        ``tests/test_telemetry.py``).
        """
        batch_times = np.asarray(times, dtype=float)
        batch_values = np.asarray(values, dtype=float)
        if batch_times.shape != batch_values.shape \
                or batch_times.ndim != 1:
            raise ValueError("append needs equal-length 1-D batches; got "
                             f"shapes {batch_times.shape} and "
                             f"{batch_values.shape}")
        if batch_times.size == 0:
            return
        fast = bool(np.all(np.diff(batch_times) > 0)) and (
            not self._times or batch_times[0] > self._times[-1])
        if fast:
            previous = np.empty_like(batch_values)
            # NaN compares unequal to everything, so on an empty series
            # the first batch entry is always kept — same as record().
            previous[0] = self._values[-1] if self._values else np.nan
            previous[1:] = batch_values[:-1]
            keep = batch_values != previous
            self._times.extend(batch_times[keep].tolist())
            self._values.extend(batch_values[keep].tolist())
            self._arrays = None
            self._views = None
            return
        for time, value in zip(batch_times.tolist(),
                               batch_values.tolist()):
            self.record(time, value)

    @classmethod
    def from_arrays(cls, name: str, times: np.ndarray,
                    values: np.ndarray) -> "StepSeries":
        """Build a series directly from already-recorded arrays.

        The bulk constructor for transport and aggregation: ``times`` must
        be strictly increasing and ``values`` free of consecutive
        duplicates — i.e. exactly what replaying the pairs through
        :meth:`record` would keep (callers that hold raw event streams
        normalize through :func:`repro.neighborhood.aggregate.dedup_records`
        first).  The arrays are adopted as the series' cached ndarray
        form, so vectorized consumers (statistics, sampling, feeder
        aggregation) read them zero-copy; the plain-list form is
        materialized once, keeping every scalar path (``record``, ``at``,
        pickling) identical to a recorded series.
        """
        series = cls(name)
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        series._times = times.tolist()
        series._values = values.tolist()
        series._arrays = (times, values)
        return series

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._times, self._values))

    def __getstate__(self) -> tuple:
        # Caches are derived state: drop them so pickles stay compact and
        # two series with equal recordings pickle identically.
        return (self.name, self._times, self._values)

    def __setstate__(self, state: tuple) -> None:
        self.name, self._times, self._values = state
        self._arrays = None
        self._views = None

    @property
    def times(self) -> Sequence[float]:
        """Record times as an immutable view (cached until next record)."""
        return self._tuple_views()[0]

    @property
    def values(self) -> Sequence[float]:
        """Record values as an immutable view (cached until next record)."""
        return self._tuple_views()[1]

    def _tuple_views(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        views = self._views
        if views is None:
            views = (tuple(self._times), tuple(self._values))
            self._views = views
        return views

    def _data(self) -> tuple[np.ndarray, np.ndarray]:
        """The cached ndarray form of the recordings."""
        arrays = self._arrays
        if arrays is None:
            arrays = (np.asarray(self._times, dtype=float),
                      np.asarray(self._values, dtype=float))
            self._arrays = arrays
        return arrays

    # -- queries --------------------------------------------------------------

    def at(self, time: float) -> float:
        """Signal value at ``time`` (0.0 before the first record)."""
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            return 0.0
        return self._values[index]

    def window(self, start: float, end: float) -> "StepSeries":
        """The series restricted to ``[start, end)``."""
        if end < start:
            raise ValueError(f"end={end} precedes start={start}")
        clipped = StepSeries(self.name)
        lo = bisect.bisect_right(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        at_start = self._values[lo - 1] if lo > 0 else 0.0
        times = [float(start)]
        values = [float(at_start)]
        # Replicate record()'s minimality: drop entries equal to the value
        # already in force.  The source is *almost* minimal, but
        # same-instant overwrites can leave adjacent equal values, and the
        # boundary record can duplicate the first in-window entry.
        previous = at_start
        for i in range(lo, hi):
            value = self._values[i]
            if value != previous:
                times.append(self._times[i])
                values.append(value)
                previous = value
        clipped._times = times
        clipped._values = values
        return clipped

    def sample(self, times: Iterable[float]) -> np.ndarray:
        """Signal values at each query time, as an array."""
        query = np.asarray(list(times) if not isinstance(times, np.ndarray)
                           else times, dtype=float)
        rec_times, rec_values = self._data()
        if rec_times.size == 0:
            return np.zeros(query.shape, dtype=float)
        index = np.searchsorted(rec_times, query, side="right") - 1
        out = rec_values[np.maximum(index, 0)]
        return np.where(index >= 0, out, 0.0)

    def sample_grid(self, start: float, end: float,
                    step: float) -> tuple[np.ndarray, np.ndarray]:
        """Sample on a regular grid; returns ``(times, values)`` arrays."""
        grid = np.arange(start, end, step, dtype=float)
        return grid, self.sample(grid)

    def segments(self, start: float,
                 end: float) -> Iterator[tuple[float, float, float]]:
        """Yield ``(seg_start, seg_end, value)`` partitioning ``[start, end)``.

        The canonical constant-segment decomposition of the series: the
        signal is 0 before the first record (matching :meth:`at`), and
        consecutive segments are contiguous.  Derived views (rotation,
        envelopes, the time-weighted statistics below) should build on
        this rather than re-deriving the semantics.
        """
        if end <= start:
            return
        value = self.at(start)
        t = start
        lo = bisect.bisect_right(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        for i in range(lo, hi):
            yield t, self._times[i], value
            t, value = self._times[i], self._values[i]
        yield t, end, value

    # -- time-weighted statistics over [start, end) ---------------------------

    def segment_arrays(self, start: float,
                       end: float) -> tuple[np.ndarray, np.ndarray]:
        """``(bounds, values)`` arrays of the segments in ``[start, end)``.

        The vectorized counterpart of :meth:`segments`: segment ``k``
        holds ``values[k]`` over ``[bounds[k], bounds[k + 1])``, with the
        same boundaries and values and no arithmetic on either.  The
        statistics below and the feeder plane's envelopes read this one
        partition.  Callers must have checked ``end > start``.
        """
        times, values = self._data()
        lo = int(np.searchsorted(times, start, side="right"))
        hi = int(np.searchsorted(times, end, side="left"))
        bounds = np.empty(hi - lo + 2, dtype=float)
        bounds[0] = start
        bounds[1:-1] = times[lo:hi]
        bounds[-1] = end
        seg_values = np.empty(hi - lo + 1, dtype=float)
        seg_values[0] = values[lo - 1] if lo > 0 else 0.0
        seg_values[1:] = values[lo:hi]
        return bounds, seg_values

    def integral(self, start: float, end: float) -> float:
        """∫ signal dt over ``[start, end)`` (e.g. energy from power)."""
        if end <= start:
            return 0.0
        bounds, values = self.segment_arrays(start, end)
        return math.fsum((np.diff(bounds) * values).tolist())

    def mean(self, start: float, end: float) -> float:
        """Time-weighted mean over ``[start, end)``."""
        if end <= start:
            raise ValueError("empty interval")
        return self.integral(start, end) / (end - start)

    def variance(self, start: float, end: float) -> float:
        """Time-weighted population variance over ``[start, end)``."""
        mu = self.mean(start, end)
        bounds, values = self.segment_arrays(start, end)
        deviation = values - mu
        second = math.fsum(
            (np.diff(bounds) * (deviation * deviation)).tolist())
        return second / (end - start)

    def std(self, start: float, end: float) -> float:
        """Time-weighted standard deviation over ``[start, end)``."""
        return math.sqrt(self.variance(start, end))

    def maximum(self, start: float, end: float) -> float:
        """Maximum signal value attained in ``[start, end)``."""
        if end <= start:
            raise ValueError("empty interval")
        bounds, values = self.segment_arrays(start, end)
        held = values[np.diff(bounds) > 0]
        if held.size == 0:  # pragma: no cover - end > start implies one
            raise ValueError("empty interval")
        return float(held.max())

    def minimum(self, start: float, end: float) -> float:
        """Minimum signal value attained in ``[start, end)``."""
        if end <= start:
            raise ValueError("empty interval")
        bounds, values = self.segment_arrays(start, end)
        held = values[np.diff(bounds) > 0]
        if held.size == 0:  # pragma: no cover - end > start implies one
            raise ValueError("empty interval")
        return float(held.min())

    def max_step(self, start: float, end: float) -> float:
        """Largest instantaneous upward jump in ``[start, end)``.

        This is the paper's "sudden rise in load": the biggest one-instant
        increase of the signal.
        """
        times, values = self._data()
        lo = int(np.searchsorted(times, start, side="right"))
        hi = int(np.searchsorted(times, end, side="left"))
        if hi <= lo:
            return 0.0
        stepped = values[lo:hi]
        previous = np.empty_like(stepped)
        previous[0] = values[lo - 1] if lo > 0 else 0.0
        previous[1:] = stepped[:-1]
        return float(max(0.0, (stepped - previous).max()))


class Counter:
    """A monotonically increasing named tally (packets sent, rounds run...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only count up")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Counter({self.name!r}, {self.value})"


class GaugeSum:
    """Aggregates many per-contributor gauges into one :class:`StepSeries`.

    Each contributor publishes its own level (e.g. one appliance's power
    draw); the gauge records the *sum* whenever any contributor changes.
    """

    __slots__ = ("series", "_levels", "_total")

    def __init__(self, name: str = ""):
        self.series = StepSeries(name)
        self._levels: dict[object, float] = {}
        self._total = 0.0

    @property
    def total(self) -> float:
        """Current aggregate level."""
        return self._total

    def set_level(self, key: object, level: float, time: float) -> None:
        """Set contributor ``key``'s level at ``time`` and record the sum."""
        self._total += level - self._levels.get(key, 0.0)
        self._levels[key] = level
        # Clamp tiny float residue so long runs don't drift below zero.
        if abs(self._total) < 1e-9:
            self._total = 0.0
        self.series.record(time, self._total)

    def level_of(self, key: object) -> float:
        """Current level of one contributor."""
        return self._levels.get(key, 0.0)
