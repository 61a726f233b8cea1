"""Feeder-level aggregation of per-home load series.

Homes behind one feeder are electrically independent; the feeder sees the
*sum* of their step-function load profiles.  Aggregation is exact (event
merge, no resampling) and deterministic: the per-event totals are the
*correctly rounded* sums of the member values — the same value
``math.fsum`` produces — so the aggregate is bit-identical regardless of
which worker produced which home **and regardless of how the fleet was
partitioned into shards**.  The members' records are flattened into
one :class:`RecordTable`, and the fast path is a vectorized compensated
sum over it (:func:`_sum2_blocks`) with a per-event rounding-certainty
margin; the events the margin cannot certify are re-summed with
``math.fsum`` directly.  :func:`table_sums` is that one exact-sum core:
:func:`sum_series` and every online epoch's feeder window go through it.

Fleet-scale runs pre-reduce per shard: each worker folds its homes into
one :class:`SeriesPartial` (hi/lo compensated pair per event), and the
parent combines S partials instead of N homes
(:func:`combine_partials`) — same bits, a fleet-size-independent parent
loop.

:class:`FeederStats` summarises one feeder profile;
:class:`FeederComparison` puts two of them side by side — the independent
and the feeder-coordinated profile of the *same* fleet run — and reports
the diversity-factor uplift the coordination plane
(:mod:`repro.neighborhood.coordination`) achieved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.analysis.loadstats import (
    LoadStats,
    coincidence_factor,
    diversity_factor,
    load_stats,
    percent_reduction,
    relative_difference,
)
from repro.sim.monitor import StepSeries

#: unit roundoff of IEEE-754 binary64
_U = 2.0 ** -53


@dataclass(frozen=True)
class RecordTable:
    """Several step series' records as one flat (CSR) table.

    ``times`` and ``values`` concatenate every member's records in
    member order; member ``k`` owns entries ``first[k]`` up to
    ``first[k + 1]`` (``first`` has one entry per member plus the
    total).  Within a member, times strictly increase, as
    :meth:`~repro.sim.monitor.StepSeries.record` keeps them.  The
    batched rotation
    (:func:`repro.neighborhood.coordination.rotate_windows`) reads and
    writes this form, and :func:`table_sums` sums it, so a whole fleet
    is rotated and summed without one array call per home.
    """

    times: np.ndarray
    values: np.ndarray
    first: np.ndarray

    @classmethod
    def of(cls, members: Iterable[tuple[np.ndarray, np.ndarray]],
           ) -> "RecordTable":
        """The table of ``(times, values)`` array pairs, in order."""
        pairs = list(members)
        first = np.zeros(len(pairs) + 1, dtype=np.intp)
        np.cumsum([times.size for times, _values in pairs], out=first[1:])
        if not pairs:
            return cls(np.zeros(0), np.zeros(0), first)
        return cls(np.concatenate([times for times, _values in pairs]),
                   np.concatenate([values for _times, values in pairs]),
                   first)

    @classmethod
    def of_series(cls, series_list: Iterable[StepSeries]) -> "RecordTable":
        """The table of ``series_list``'s recordings, in order."""
        return cls.of(series._data() for series in series_list)

    @classmethod
    def of_owned(cls, times: np.ndarray, values: np.ndarray,
                 owner: np.ndarray, n: int) -> "RecordTable":
        """The table of entries already grouped by ``owner`` (ascending
        member indices below ``n``)."""
        first = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner, minlength=n), out=first[1:])
        return cls(times, values, first)

    @property
    def n(self) -> int:
        """How many members the table holds."""
        return self.first.size - 1

    def owners(self) -> np.ndarray:
        """The member index of every entry."""
        return np.repeat(np.arange(self.n), np.diff(self.first))

    def member(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Member ``k``'s ``(times, values)`` arrays."""
        lo, hi = self.first[k], self.first[k + 1]
        return self.times[lo:hi], self.values[lo:hi]

    def series(self, names: Sequence[str]) -> list[StepSeries]:
        """One step series per member, named in order."""
        return [StepSeries.from_arrays(name, *self.member(k))
                for k, name in enumerate(names)]


def record_keep(times: np.ndarray, values: np.ndarray,
                owner: Optional[np.ndarray] = None) -> np.ndarray:
    """Indices of the entries :meth:`~repro.sim.monitor.StepSeries.record`
    would keep, replaying a ``(time, value)``-lexsorted event stream.

    Same-instant groups collapse to their last entry, and an entry equal
    to the value already in force is dropped *unless* it got there via
    a same-instant overwrite.  ``owner`` (ascending member indices, one
    per entry) replays several members' streams at once: groups also
    split where the owner changes, and each member's first group is
    always kept.

    The lexsort precondition is load-bearing, not cosmetic: within a
    same-instant group the record loop's skip-then-overwrite behaviour
    depends on entry order, and the vectorized collapse below is only
    its equal for value-ascending groups — so unsorted input is rejected
    rather than silently mis-collapsed.
    """
    if times.size == 0:
        return np.zeros(0, dtype=np.intp)
    time_step = np.diff(times)
    same = True if owner is None else owner[1:] == owner[:-1]
    if (owner is not None and np.any(owner[1:] < owner[:-1])) \
            or np.any(same & (time_step < 0)) \
            or np.any(same & (time_step == 0)
                      & (np.diff(values) < 0)):
        raise ValueError("dedup_records needs a (time, value)-lexsorted "
                         "stream")
    # Last entry of each same-instant group wins (same-instant overwrite);
    # the group's *first* value decides whether the whole group was a
    # no-change skip (record() only skips while nothing of the group has
    # been appended, and values within a group arrive sorted).
    boundary = times[1:] != times[:-1]
    if owner is not None:
        boundary |= ~same
    last = np.flatnonzero(np.concatenate([boundary, [True]]))
    first = np.flatnonzero(np.concatenate([[True], boundary]))
    group_last = values[last]
    repeat = (values[first[1:]] == group_last[1:]) \
        & (group_last[1:] == group_last[:-1])
    if owner is not None:
        repeat &= owner[last[1:]] == owner[last[:-1]]
    keep = np.empty(last.size, dtype=bool)
    keep[0] = True
    keep[1:] = ~repeat
    return last[keep]


def dedup_records(times: np.ndarray,
                  values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What :meth:`~repro.sim.monitor.StepSeries.record` would keep of a
    ``(time, value)``-lexsorted stream (see :func:`record_keep`).

    The returned arrays feed
    :meth:`~repro.sim.monitor.StepSeries.from_arrays` bit-identically to
    a scalar record loop over the same (sorted) stream.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    kept = record_keep(times, values)
    return times[kept], values[kept]


def _sample_arrays(times: np.ndarray, values: np.ndarray,
                   query: np.ndarray) -> np.ndarray:
    """Step-function sampling on raw arrays (0.0 before the first event).

    The array twin of :meth:`~repro.sim.monitor.StepSeries.sample`, for
    consumers that hold a series as bare ``(times, values)`` pairs (shard
    partials, transport frames).
    """
    if times.size == 0:
        return np.zeros(query.shape, dtype=float)
    index = np.searchsorted(times, query, side="right") - 1
    out = values[np.maximum(index, 0)]
    return np.where(index >= 0, out, 0.0)


#: (member, event) cells :func:`_sum2_blocks` samples at once: its working
#: set is a few arrays of this many entries, however large the table
_SUM_BLOCK_CELLS = 1 << 14


def _sum2_blocks(table: RecordTable, events: np.ndarray,
                 ) -> Iterator[tuple[slice, np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray]]:
    """Compensated (Sum2) sum of ``table``'s members at ``events``.

    ``events`` is the sorted union of the record times; each member is
    sampled there as a step function (0.0 before its first record).
    One error-free two-sum per member keeps ``hi + lo`` within
    ``O((n·u)²) · Σ|x|`` of the exact sum (Ogita–Rump–Oishi *Sum2*);
    ``abs_sum`` scales that bound per event.

    Events go in blocks of at most :data:`_SUM_BLOCK_CELLS` sampled
    cells, and each block yields ``(events slice, samples, hi, lo,
    abs_sum)`` with ``samples`` the ``n × width`` member values.  A
    block's samples are each member's latest record index, filled
    forward along the events with ``np.maximum.accumulate`` (a member's
    record indices grow with its times) and carried into the next block.
    The members are added in order, from 0.0: ``np.add.accumulate``
    along the member axis adds row by row below a zero row, which is the
    order of one two-sum per member column (``sum``/``add.reduce``
    promise no order).
    """
    n = table.n
    owner = table.owners()
    position = np.searchsorted(events, table.times)
    # index -1 (no record yet) reads the trailing 0.0
    padded = np.append(table.values, 0.0)
    carry = np.full(n, -1, dtype=np.intp)
    width = max(_SUM_BLOCK_CELLS // (n + 1), 1)
    for begin in range(0, events.size, width):
        stop = min(begin + width, events.size)
        latest = np.full((n, stop - begin), -1, dtype=np.intp)
        inside = np.flatnonzero((position >= begin) & (position < stop))
        latest[owner[inside], position[inside] - begin] = inside
        np.maximum(latest[:, 0], carry, out=latest[:, 0])
        np.maximum.accumulate(latest, axis=1, out=latest)
        carry = latest[:, -1]
        terms = np.zeros((n + 1, stop - begin))
        np.take(padded, latest, out=terms[1:])
        totals = np.add.accumulate(terms, axis=0)
        hi = totals[-1].copy()
        # err = (before − (after − virtual)) + (term − virtual), with
        # virtual = after − before: one buffer per operand, no temporaries
        before, after = totals[:-1], totals[1:]
        virtual = after - before
        errors = np.empty_like(terms)
        errors[0] = 0.0
        np.subtract(after, virtual, out=errors[1:])
        np.subtract(before, errors[1:], out=errors[1:])
        np.subtract(terms[1:], virtual, out=virtual)
        np.add(errors[1:], virtual, out=errors[1:])
        lo = np.add.accumulate(errors, axis=0, out=errors)[-1].copy()
        np.abs(terms, out=totals)
        abs_sum = np.add.accumulate(totals, axis=0, out=totals)[-1].copy()
        yield slice(begin, stop), terms[1:], hi, lo, abs_sum


def _sum2_table(table: RecordTable,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(events, hi, lo, abs_sum)`` of :func:`_sum2_blocks` over the
    table's whole event union."""
    events = np.unique(table.times)
    hi = np.empty(events.size)
    lo = np.empty(events.size)
    abs_sum = np.empty(events.size)
    for block, _samples, block_hi, block_lo, block_abs \
            in _sum2_blocks(table, events):
        hi[block] = block_hi
        lo[block] = block_lo
        abs_sum[block] = block_abs
    return events, hi, lo, abs_sum


def _sum2_error_bound(n_terms: int, abs_sum: np.ndarray) -> np.ndarray:
    """Per-row bound on ``|exact − (hi + lo)|`` after :func:`_sum2_table`.

    Published Sum2 bound is ``2·γ²(n−1)·Σ|x|``; the factor 8 absorbs the
    γ-vs-``n·u`` slack and the rounding of ``abs_sum`` itself.
    """
    return (8.0 * (n_terms * _U) ** 2) * abs_sum


def _round_to_nearest(hi: np.ndarray, lo: np.ndarray,
                      err_bound: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Round ``hi + lo (± err_bound)`` to one float; flag uncertain rows.

    Returns ``(sums, uncertain)``: ``sums[i]`` is guaranteed to equal the
    correctly rounded exact sum wherever ``uncertain[i]`` is False.  The
    certainty test is conservative — the residual of ``fl(hi + lo)`` plus
    the error bound must clear a quarter-ulp margin, which keeps the exact
    sum strictly inside the rounding interval and away from ties.
    """
    rounded = hi + lo
    virtual = rounded - hi
    residual = (hi - (rounded - virtual)) + (lo - virtual)
    margin = 0.25 * np.spacing(np.abs(rounded))
    certain = (np.abs(residual) + err_bound) < margin
    # Exactly-zero rows (no load anywhere) under-run the spacing test.
    certain |= (err_bound == 0.0) & (residual == 0.0)
    return rounded, ~certain


def table_sums(table: RecordTable) -> tuple[np.ndarray, np.ndarray]:
    """The exact sum of ``table``'s members: ``(events, sums)``.

    The one exact-sum core: :func:`sum_series` and every online epoch's
    feeder window go through it.  ``events`` is the sorted union of the
    record times and ``sums[i]`` the *correctly rounded* total of every
    member's value at ``events[i]`` — the ``math.fsum`` value.  The
    vectorized Sum2 pass (:func:`_sum2_blocks`) certifies most events;
    the rest are re-summed with ``math.fsum`` over the block's samples.
    The quarter-ulp margin is conservative: an exact sum that sits a
    quarter-ulp from a float fails it, and on fleets whose loads are
    multiples of a few appliance ratings that is common (428 of 912
    events of one 100-home suburb fleet's hour).
    """
    events = np.unique(table.times)
    sums = np.empty(events.size)
    for block, samples, hi, lo, abs_sum in _sum2_blocks(table, events):
        rounded, uncertain = _round_to_nearest(
            hi, lo, _sum2_error_bound(table.n, abs_sum))
        columns = np.flatnonzero(uncertain)
        rounded[columns] = [math.fsum(values)
                            for values in samples[:, columns].T.tolist()]
        sums[block] = rounded
    return events, sums


def sum_series(series_list: Sequence[StepSeries],
               name: str = "feeder") -> StepSeries:
    """Exact sum of step functions: a new series stepping at every event.

    Fully vectorized, bit-identical to the scalar definition: the
    members' records are flattened into one :class:`RecordTable`,
    per-event totals are the correctly rounded sums of the member values
    (the ``math.fsum`` value, via :func:`table_sums`), and the output
    keeps exactly the events a scalar ``record`` loop would keep.
    """
    table = RecordTable.of_series(series_list)
    if not table.times.size:
        return StepSeries(name)
    return StepSeries.from_arrays(name, *dedup_records(*table_sums(table)))


@dataclass(frozen=True)
class SeriesPartial:
    """A shard's pre-reduced (compensated) partial sum of its home series.

    ``hi + lo`` tracks the shard's exact per-event total to within
    :func:`_sum2_error_bound` of ``n_series`` terms scaled by ``abs_w``;
    between events every component is constant, so sampling the three
    arrays at any later event grid reproduces the shard's exact state
    there.  Produced by workers (:func:`partial_sum`), consumed by the
    parent (:func:`combine_partials`) — N per-home columns collapse to S
    shard columns without changing a bit of the final feeder profile.
    """

    times: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    abs_w: np.ndarray
    n_series: int

    @classmethod
    def empty(cls, n_series: int = 0) -> "SeriesPartial":
        """The partial of a shard with no recorded events."""
        zero = np.zeros(0, dtype=float)
        return cls(times=zero, hi=zero, lo=zero, abs_w=zero,
                   n_series=n_series)


def partial_sum(series_list: Sequence[StepSeries]) -> SeriesPartial:
    """Pre-reduce a group of series into one :class:`SeriesPartial`.

    Runs in the shard worker: the group's union event grid plus the
    compensated column sum over its members.  Deterministic — pure
    arithmetic on the (bit-deterministic) member series, no rounding
    decision is taken here.
    """
    table = RecordTable.of_series(series_list)
    if not table.times.size:
        return SeriesPartial.empty(len(series_list))
    events, hi, lo, abs_sum = _sum2_table(table)
    return SeriesPartial(times=events, hi=hi, lo=lo, abs_w=abs_sum,
                         n_series=len(series_list))


def combine_partials(partials: Sequence[SeriesPartial],
                     series_list: Optional[Sequence[StepSeries]] = None,
                     name: str = "feeder") -> StepSeries:
    """Fold shard partials into the feeder profile, bit-identically.

    The parent-side half of sharded aggregation: samples every shard's
    ``(hi, lo, abs)`` state at the global union of events and re-reduces
    2·S compensated columns.  Because each certified row is the
    *correctly rounded* exact total — a value independent of the
    partition — the result equals :func:`sum_series` over the flat home
    list for any shard size.  ``series_list`` (the full per-home series,
    which the parent holds anyway for per-home reporting) serves the
    ``math.fsum`` fallback on uncertain rows; omitting it is only safe
    for callers that accept a (never yet observed) ``ValueError`` there.
    """
    nonempty = [p for p in partials if p.times.size]
    if not nonempty:
        return StepSeries(name)
    events, hi, lo, abs_sum = _sum2_table(RecordTable.of(
        column for partial in nonempty
        for column in ((partial.times, partial.hi),
                       (partial.times, partial.lo))))
    carried_bound = np.zeros(events.size, dtype=float)
    for partial in nonempty:
        carried_bound += _sum2_error_bound(
            partial.n_series,
            _sample_arrays(partial.times, partial.abs_w, events))
    bound = carried_bound + _sum2_error_bound(2 * len(nonempty), abs_sum)
    sums, uncertain = _round_to_nearest(hi, lo, bound)
    if uncertain.any():
        if series_list is None:
            raise ValueError(
                "combine_partials needs the member series to settle "
                "rounding-boundary events; pass series_list")
        rows = np.flatnonzero(uncertain)
        row_times = events[rows]
        stacked = np.stack([series.sample(row_times)
                            for series in series_list], axis=1)
        sums[rows] = [math.fsum(row.tolist()) for row in stacked]
    times, values = dedup_records(events, sums)
    return StepSeries.from_arrays(name, times, values)


@dataclass(frozen=True)
class FeederStats:
    """What the feeder operator cares about, beyond one home's LoadStats."""

    feeder: LoadStats
    n_homes: int
    #: Peak of the *summed* profile — what the feeder must actually carry.
    coincident_peak_kw: float
    #: Sum of each home's individual peak — the no-diversity worst case.
    sum_home_peaks_kw: float
    #: sum_home_peaks / coincident_peak (>= 1; higher = more staggering).
    diversity_factor: float
    #: 1 / diversity_factor (<= 1).
    coincidence_factor: float
    #: Time-weighted std of the feeder load — the paper's "load variation"
    #: lifted to neighborhood scale.
    load_variation_kw: float

    def rows(self) -> list[list[object]]:
        """Table rows for plain-text reporting."""
        return [
            ["homes", self.n_homes],
            ["coincident peak", f"{self.coincident_peak_kw:.2f} kW"],
            ["sum of home peaks", f"{self.sum_home_peaks_kw:.2f} kW"],
            ["diversity factor", f"{self.diversity_factor:.3f}"],
            ["coincidence factor", f"{self.coincidence_factor:.3f}"],
            ["load variation (std)", f"{self.load_variation_kw:.2f} kW"],
            ["average load", f"{self.feeder.mean_kw:.2f} kW"],
            ["energy", f"{self.feeder.energy_kwh:.2f} kWh"],
        ]


@dataclass(frozen=True)
class FeederComparison:
    """Coordinated vs independent feeder behaviour of one fleet run.

    Both sides describe the *same* homes over the same window; the
    coordinated side only re-phases them (see
    :func:`repro.neighborhood.coordination.rotate_windows`), so per-home
    peaks and energies are identical by construction and every difference
    below is pure cross-home staggering.
    """

    independent: FeederStats
    coordinated: FeederStats

    @property
    def diversity_uplift(self) -> float:
        """coordinated / independent diversity factor (> 1 = improvement)."""
        return self.coordinated.diversity_factor \
            / self.independent.diversity_factor

    @property
    def peak_reduction_pct(self) -> float:
        """Coincident-peak reduction achieved by cross-home staggering."""
        return percent_reduction(self.independent.coincident_peak_kw,
                                 self.coordinated.coincident_peak_kw)

    @property
    def variation_reduction_pct(self) -> float:
        """Feeder load-variation (std) reduction."""
        return percent_reduction(self.independent.load_variation_kw,
                                 self.coordinated.load_variation_kw)

    @property
    def energy_drift_pct(self) -> float:
        """Feeder energy disagreement — 0 up to float rounding, because
        phase rotation conserves every home's energy exactly."""
        return 100.0 * relative_difference(
            self.independent.feeder.energy_kwh,
            self.coordinated.feeder.energy_kwh)

    def rows(self) -> list[list[object]]:
        """Table rows for plain-text reporting."""
        indep, coord = self.independent, self.coordinated
        return [
            ["coincident peak",
             f"{indep.coincident_peak_kw:.2f} kW",
             f"{coord.coincident_peak_kw:.2f} kW"],
            ["diversity factor",
             f"{indep.diversity_factor:.3f}",
             f"{coord.diversity_factor:.3f}"],
            ["load variation (std)",
             f"{indep.load_variation_kw:.2f} kW",
             f"{coord.load_variation_kw:.2f} kW"],
            ["energy",
             f"{indep.feeder.energy_kwh:.2f} kWh",
             f"{coord.feeder.energy_kwh:.2f} kWh"],
            ["diversity uplift", "-", f"{self.diversity_uplift:.3f}x"],
            ["peak reduction", "-", f"{self.peak_reduction_pct:.1f}%"],
        ]


def feeder_stats(feeder_w: StepSeries,
                 home_series: Sequence[StepSeries],
                 start: float, end: float,
                 precomputed_home_stats: Optional[Sequence[LoadStats]] = None,
                 ) -> FeederStats:
    """Compute :class:`FeederStats` over ``[start, end)``."""
    stats = load_stats(feeder_w, start, end)
    if precomputed_home_stats is not None:
        home_peaks = [s.peak_kw for s in precomputed_home_stats]
    else:
        home_peaks = [load_stats(series, start, end).peak_kw
                      for series in home_series]
    return FeederStats(
        feeder=stats,
        n_homes=len(home_series),
        coincident_peak_kw=stats.peak_kw,
        sum_home_peaks_kw=float(sum(home_peaks)),
        diversity_factor=diversity_factor(home_peaks, stats.peak_kw),
        coincidence_factor=coincidence_factor(home_peaks, stats.peak_kw),
        load_variation_kw=stats.std_kw)
