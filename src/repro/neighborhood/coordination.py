"""Feeder-level collaboration plane: the paper's CP, one level up.

The paper's collaborative scheme (§II) never crosses the home's meter:
every Device Interface shares a :class:`~repro.core.state.CpItem` over
MiniCast rounds, and the shared deterministic scheduler staggers bursts
*inside* one home.  Behind a feeder, independently coordinated homes still
peak together — PR 1's neighborhood layer measures that as a diversity
factor barely above 1.

This module extends the same announce/claim/stagger structure across
homes, in the spirit of distributed neighborhood scheduling
(arXiv:2011.04338) and online multi-home load coordination
(arXiv:2304.11770):

* each home's gateway (its smart meter uplink) publishes a compact
  :class:`HomeItem` — the home's *claimed-burst envelope*, i.e. the
  per-phase-bin upper bound of its realized Type-2 load — the
  neighborhood analogue of a :class:`~repro.core.state.CpItem`;
* a decentralized **feeder round** mirrors the in-home CP's loss-free
  all-to-all exchange (:class:`~repro.st.rounds.IdealCP` semantics,
  executed directly at fleet scale — see :class:`FeederPlane`): one
  gateway per round holds the claim token and picks the **phase offset**
  minimising the projected feeder peak given every other home's claimed
  envelope — exactly the in-home scheduler's one-by-one stagger logic,
  one level up;
* the negotiated offsets are applied by *phase-rotating* each home's
  realized load profile (:func:`rotate_series`).  The workloads are
  time-homogeneous (Poisson / MMPP / batch arrivals with no
  time-of-day structure), so a cyclic rotation of a home's trajectory
  is a sample path of the phase-shifted home — and rotation preserves
  each home's energy and individual peak *exactly*, which pins the
  conservation law the invariant tests rely on: coordination moves
  load, it never sheds it.

Determinism: the plane consumes only the (already bit-deterministic)
per-home results, in fleet order, and draws no randomness — so
a ``coordination="feeder"`` fleet stays bit-identical for any ``jobs``
count.

Safety: the per-bin envelope makes the negotiated objective an *upper
bound* on the realized feeder peak, so the plane re-evaluates the final
plan against the realized profiles and falls back to zero offsets
(``applied=False``) if staggering would not strictly lower the realized
coincident peak.  The feeder plane is advisory — it never regresses the
feeder it coordinates.

One core serves every tier: :func:`coordinate_profiles` runs
negotiate → rotate → sum → guard over any list of profiles — a fleet's
homes (:func:`coordinate_fleet`) or a grid's feeders (the substation
tier) — and each epoch of the online loop
(:func:`repro.neighborhood.online.coordinate_fleet_online`) applies its
plan through the same rotate-and-guard step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.core.system import RunResult
from repro.neighborhood.aggregate import (
    RecordTable,
    combine_partials,
    dedup_records,
    record_keep,
    sum_series,
    table_sums,
)
from repro.sim.monitor import StepSeries
from repro.st.rounds import CpStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.neighborhood.fleet import FleetSpec, HomeSpec

#: serialized footprint of a HomeItem header on the wire, bytes
HOME_ITEM_HEADER_BYTES: int = 10
#: bytes per quantized envelope bin on the wire
ENVELOPE_BIN_BYTES: int = 2


@dataclass(frozen=True)
class FeederConfig:
    """Knobs of the feeder collaboration plane.

    Defaults mirror the in-home Communication Plane where a counterpart
    exists: feeder rounds run every ``period`` (= the paper's 2 s MiniCast
    period), and the phase ``epoch`` defaults to the fleet's largest
    ``maxDCP`` — the recurrence period of the bursts being staggered.
    """

    #: phase period the offsets live in; None = max home ``maxDCP``
    epoch: Optional[float] = None
    #: nominal envelope bin width (seconds) — also the offset
    #: granularity; snapped so bins tile the horizon exactly
    bin_s: float = 60.0
    #: maximum full claim sweeps (every gateway claims once per sweep)
    max_sweeps: int = 4
    #: feeder CP round period, seconds (one claim token per round)
    period: float = 2.0
    #: re-check the realized feeder peak and refuse a non-improving plan
    guard: bool = True

    def __post_init__(self) -> None:
        if self.bin_s <= 0:
            raise ValueError(f"bin_s must be > 0, got {self.bin_s}")
        if self.max_sweeps < 1:
            raise ValueError(
                f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.epoch is not None and self.epoch <= 0:
            raise ValueError(f"epoch must be > 0, got {self.epoch}")


@dataclass(frozen=True)
class HomeItem:
    """One home gateway's payload for a feeder CP round.

    The neighborhood analogue of the in-home
    :class:`~repro.core.state.CpItem`: instead of one device's status plus
    announcements, a gateway shares its whole home's *aggregate
    claimed-burst envelope* — the per-bin upper bound of the home's load
    over the observation window — plus the phase ``shift`` (in bins) it
    currently claims.  Items are versioned so view merges stay idempotent
    and order-insensitive, mirroring
    :meth:`repro.core.state.SharedView.merge_item`.
    """

    home_id: int
    version: int
    #: claimed phase offset, in envelope bins
    shift: int
    #: per-bin upper bound of the home's load over the horizon, watts
    envelope: tuple[float, ...]
    #: the home's individual peak (max of the envelope), watts
    peak_w: float

    @property
    def wire_bytes(self) -> int:
        """Approximate serialized size (quantized bins), for airtime
        accounting — the feeder analogue of
        :attr:`repro.core.state.CpItem.wire_bytes`."""
        return (HOME_ITEM_HEADER_BYTES
                + ENVELOPE_BIN_BYTES * len(self.envelope))


@dataclass
class FeederCoordination:
    """Outcome of one feeder-plane negotiation over a finished fleet run.

    Carries both the coordinated and the independent (un-rotated) feeder
    series so :class:`~repro.neighborhood.federation.NeighborhoodResult`
    can report the diversity-factor uplift without re-running anything.
    """

    #: resolved phase period (seconds)
    epoch: float
    #: envelope bin width = offset granularity (seconds)
    bin_s: float
    #: negotiated per-home phase offsets (seconds, fleet order)
    planned_offsets_s: tuple[float, ...]
    #: offsets actually applied (all zero when the guard declined)
    offsets_s: tuple[float, ...]
    #: False when the guard found no realized improvement and fell back
    applied: bool
    #: full claim sweeps the negotiation ran before converging
    sweeps: int
    #: feeder CP round statistics (reused :class:`~repro.st.rounds.CpStats`)
    cp_stats: CpStats
    #: per-home feeder contributions (phase-rotated load), fleet order
    contributions_w: list[StepSeries]
    #: Σ un-rotated homes — the independent baseline feeder profile
    independent_w: StepSeries
    #: Σ rotated homes — what the feeder carries under coordination
    coordinated_w: StepSeries


# ---------------------------------------------------------------------------
# envelopes and rotation
# ---------------------------------------------------------------------------

def snap_bin(horizon: float, bin_s: float) -> float:
    """The envelope bin width snapped so bins tile ``horizon`` exactly.

    The claim objective rolls envelopes on a cycle of ``bins × bin_s``
    and rotation wraps at the horizon — the two cycles must be the same
    length or the negotiated offsets optimize a mis-wrapped profile.
    Both :func:`coordinate_fleet` and the shard planner's envelope
    pre-reduction (:attr:`repro.neighborhood.shard.ShardSpec.envelope_bin_s`)
    go through this one function, so a worker-side envelope is always
    computed at exactly the bin the parent will negotiate with.
    """
    n_bins = max(int(round(horizon / bin_s)), 1)
    return horizon / n_bins


def _window_segment_table(series: StepSeries, start: float, end: float,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(starts, ends, values)`` arrays partitioning ``[start, end)``.

    The vectorized twin of :meth:`~repro.sim.monitor.StepSeries.segments`
    (same boundaries, same values, no arithmetic on either) — envelopes
    and rotations must agree with the statistics' decomposition bit for
    bit.
    """
    times, values = series._data()
    lo = int(np.searchsorted(times, start, side="right"))
    hi = int(np.searchsorted(times, end, side="left"))
    starts = np.empty(hi - lo + 1, dtype=float)
    starts[0] = start
    starts[1:] = times[lo:hi]
    ends = np.empty(hi - lo + 1, dtype=float)
    ends[:-1] = times[lo:hi]
    ends[-1] = end
    seg_values = np.empty(hi - lo + 1, dtype=float)
    seg_values[0] = values[lo - 1] if lo > 0 else 0.0
    seg_values[1:] = values[lo:hi]
    return starts, ends, seg_values


def phase_envelope(series: StepSeries, horizon: float,
                   bin_s: float) -> tuple[float, ...]:
    """Per-bin upper bound of ``series`` over ``[0, horizon)``: the
    :func:`phase_envelope_window` starting at 0."""
    return phase_envelope_window(series, 0.0, horizon, bin_s)


def phase_envelope_window(series: StepSeries, start: float, end: float,
                          bin_s: float,
                          bins: Optional[int] = None,
                          ) -> tuple[float, ...]:
    """Per-bin upper bound of ``series`` over the window ``[start, end)``.

    Bin ``b`` covers ``[start + b·bin_s, start + (b+1)·bin_s)``; its
    envelope value is the *maximum* signal value attained inside, so
    summed envelopes upper-bound the summed signals — the property the
    claim objective relies on.  One vectorized slice-max per constant
    segment, not one Python comparison per bin.

    ``bins`` pins the envelope length explicitly — the online loop
    passes the per-epoch bin count so every epoch's envelope (including
    a last epoch whose span differs by one float ulp) has the same shape
    and the claim plane can roll them against each other.
    """
    if bins is None:
        # The tiny slack keeps exact divisions (the usual case — see
        # snap_bin) from spilling into an extra bin through rounding.
        bins = int(math.ceil((end - start) / bin_s - 1e-9))
    envelope = np.zeros(bins, dtype=float)
    starts, ends, values = _window_segment_table(series, start, end)
    for seg_start, seg_end, value in zip(starts.tolist(), ends.tolist(),
                                         values.tolist()):
        if value <= 0.0:
            continue
        first = int((seg_start - start) // bin_s)
        last = min(int(math.ceil((seg_end - start) / bin_s)), bins)
        if first < last:
            np.maximum(envelope[first:last], value,
                       out=envelope[first:last])
    return tuple(envelope.tolist())


def rotate_windows(table: RecordTable, offsets: Sequence[float],
                   start: float, end: float) -> RecordTable:
    """Cyclically delay every member's ``[start, end)`` window at once.

    Member ``k`` of the returned table is member ``k`` of ``table``
    rotated by ``offsets[k]``, as :func:`rotate_window` describes it,
    and :func:`rotate_window` is the one-member call of this function.
    All members go through one flat pass:

    * every member's segment table (the :func:`_window_segment_table`
      partition: same boundaries, same values, no arithmetic on either)
      comes from index arithmetic on the table;
    * each segment start moves by its member's offset and wraps at
      ``end``; a segment that straddles ``end`` re-enters at ``start``;
    * one ``np.lexsort`` keyed on (member, time, value), stable, puts
      each member's entries in the order its own lexsort would;
    * :func:`~repro.neighborhood.aggregate.record_keep` replays the
      record semantics with groups also split where the member changes.
    """
    if not end > start:
        raise ValueError(f"empty window [{start}, {end})")
    span = end - start
    n = table.n
    # np.remainder is Python's float modulo (fmod, then the divisor's sign).
    shift = np.remainder(np.asarray(offsets, dtype=float), span)
    if shift.shape != (n,):
        raise ValueError(f"need {n} offsets, got {shift.size}")
    owner = table.owners()
    first = table.first[:-1]
    # Per member: records at or before start (the one in force there is
    # the last of them) and records before end.
    lo = first + np.bincount(owner[table.times <= start], minlength=n)
    hi = first + np.bincount(owner[table.times < end], minlength=n)
    count = hi - lo + 1
    seg_owner = np.repeat(np.arange(n), count)
    head_at = np.zeros(n, dtype=np.intp)
    np.cumsum(count[:-1], out=head_at[1:])
    position = np.arange(seg_owner.size) - head_at[seg_owner]
    # Segment k > 0 opens at record lo − 1 + k; segment 0 opens at start
    # with the record in force there (0.0 when there is none).
    record = lo[seg_owner] - 1 + position
    body = position > 0
    inner = position < count[seg_owner] - 1
    prior = ~body & (record >= first[seg_owner])
    starts = np.full(seg_owner.size, start)
    starts[body] = table.times[record[body]]
    ends = np.full(seg_owner.size, end)
    ends[inner] = table.times[record[inner] + 1]
    values = np.zeros(seg_owner.size)
    held = body | prior
    values[held] = table.values[record[held]]

    seg_shift = shift[seg_owner]
    moved = seg_shift != 0.0
    shifted = starts + seg_shift
    wrapped = moved & (shifted >= end)
    split = moved & ~wrapped & (ends + seg_shift > end)
    entry_times = np.concatenate([
        np.where(wrapped, shifted - span, np.where(moved, shifted, starts)),
        np.full(int(split.sum()), start, dtype=float)])
    entry_values = np.concatenate([values, values[split]])
    entry_owner = np.concatenate([seg_owner, seg_owner[split]])
    order = np.lexsort((entry_values, entry_times, entry_owner))
    entry_times = entry_times[order]
    entry_values = entry_values[order]
    entry_owner = entry_owner[order]
    kept = record_keep(entry_times, entry_values, entry_owner)
    return RecordTable.of_owned(entry_times[kept], entry_values[kept],
                                entry_owner[kept], n)


def rotate_window(series: StepSeries, offset: float, start: float,
                  end: float, name: Optional[str] = None) -> StepSeries:
    """Cyclically delay the ``[start, end)`` window of ``series``.

    Returns a step series defined on ``[start, end)`` only — beginning
    with a record exactly at ``start`` — holding
    ``s(start + ((t − start − offset) mod span))`` with
    ``span = end − start``: the window started ``offset`` later, with
    the displaced tail wrapping to the front (the steady-state reading
    of a phase shift).  Segment durations and values are permuted,
    never changed, so the window's energy, time-weighted distribution
    and peak are preserved exactly; with ``offset == 0`` the window's
    own records come back untouched (no float round-trip), which is
    what lets declined plans keep bit-identical realized profiles.

    The one-member call of :func:`rotate_windows`.

    Caller contract (which epoch grids satisfy by construction): the
    computed ``span`` must be the *exact* real difference ``end − start``
    — true whenever ``start == 0`` or ``end ≤ 2·start`` (Sterbenz) — so
    wrapped record times can never land before ``start``.
    """
    rotated = rotate_windows(RecordTable.of_series([series]), [offset],
                             start, end)
    return StepSeries.from_arrays(name if name is not None else series.name,
                                  rotated.times, rotated.values)


def rotate_series(series: StepSeries, offset: float, horizon: float,
                  name: Optional[str] = None) -> StepSeries:
    """Cyclically delay ``series`` by ``offset`` within ``[0, horizon)``:
    the :func:`rotate_window` starting at 0."""
    return rotate_window(series, offset, 0.0, horizon, name)


# ---------------------------------------------------------------------------
# the decentralized feeder round
# ---------------------------------------------------------------------------

class FeederPlane:
    """The feeder-level claim plane, one gateway per home.

    Claims are made one by one — each claim round hands one gateway the
    token to re-claim its phase offset against the envelopes everyone
    else published, mirroring the paper's one-by-one admission order.
    A claim is only moved when it *strictly* lowers the projected feeder
    peak, so the negotiation is a descent on a finite lattice and always
    converges.

    The rounds used to be driven through
    :class:`~repro.st.rounds.IdealCP` with every gateway re-sharing its
    full :class:`HomeItem` every round; at fleet scale (N≥500) that
    all-to-all merge was O(N³) per sweep and dominated the whole run.
    Because IdealCP delivery is loss-free, every gateway's merged view is
    simply "each home's latest claim", so :meth:`reclaim` evolves that
    shared state directly and :func:`negotiate_offsets` accounts the
    identical :class:`~repro.st.rounds.CpStats` the IdealCP rounds
    produced.
    :class:`HomeItem` remains the wire format the stats meter airtime
    against.

    The shared state is array-backed.  One ``(n+1) × bins`` table holds
    every home's envelope rolled by its current claim, in ``home_ids``
    order below an all-zero row 0; each home also keeps its
    ``shifts × bins`` stack of candidate rolls, built only when its
    envelope is published.  A claim round is then one sequential
    accumulate over the table (the others' projected load, summed left
    to right from 0.0 in home order — never incrementally updated, so no
    float drift) and one broadcast max over the claimant's stack: the
    same claim sequence, bit for bit, as summing the rolled envelopes
    one by one.
    """

    def __init__(self, home_ids: Sequence[int],
                 envelopes: dict[int, tuple[float, ...]],
                 shifts: int,
                 claims: Optional[dict[int, int]] = None):
        if shifts < 1:
            raise ValueError(f"need >= 1 candidate shift, got {shifts}")
        self.home_ids = list(home_ids)
        self.shifts = shifts
        #: seeded claims carry a previous epoch's negotiation state into
        #: an online re-negotiation (:func:`renegotiate_offsets`)
        self.claims: dict[int, int] = (
            {home: 0 for home in self.home_ids} if claims is None
            else {home: int(claims[home]) for home in self.home_ids})
        self._row = {home: row for row, home in
                     enumerate(self.home_ids, start=1)}
        self._bins = (len(envelopes[self.home_ids[0]])
                      if self.home_ids else 0)
        #: row ``_row[home]`` is ``home``'s envelope rolled by its
        #: current claim — what the other gateways' merged views hold
        #: for it; row 0 stays zero so every sum starts from 0.0
        self._table = np.zeros((len(self.home_ids) + 1, self._bins),
                               dtype=float)
        #: per home, ``stack[s, j] = envelope[(j − s) mod bins]``
        self._stacks: dict[int, np.ndarray] = {}
        for home in self.home_ids:
            self._publish(home, envelopes[home])

    def _publish(self, node: int, envelope: tuple[float, ...]) -> None:
        """Store ``node``'s shift stack and its claimed row."""
        values = np.asarray(envelope, dtype=float)
        if values.shape != (self._bins,):
            raise ValueError(
                f"home {node} envelope has {values.size} bins, "
                f"expected {self._bins}")
        bins = np.arange(self._bins)
        self._stacks[node] = values[
            (bins[None, :] - np.arange(self.shifts)[:, None]) % self._bins]
        self._table[self._row[node]] = values[
            (bins - self.claims[node]) % self._bins]

    def update_envelope(self, node: int,
                        envelope: tuple[float, ...]) -> None:
        """Replace one gateway's published envelope, keeping its claim.

        The online plane's per-epoch re-publication: a home whose
        predicted envelope changed announces the new one; its claimed
        shift stands until a later claim round moves it.
        """
        self._publish(node, envelope)

    def reclaim(self, token: int) -> bool:
        """Give ``token`` the claim round: re-pick its phase offset.

        Returns whether the claim moved.
        """
        best = self._best_shift(token)
        if best == self.claims[token]:
            return False
        self.claims[token] = best
        self._table[self._row[token]] = self._stacks[token][best]
        return True

    # -- the claim rule ----------------------------------------------------------

    def _combined_others(self, node: int) -> np.ndarray:
        """Projected feeder load per bin from everyone else's claims.

        ``np.add.accumulate`` fixes the order: row by row, from the zero
        row, in home order — ``sum``/``add.reduce`` promise no order and
        pairwise-sum long axes.
        """
        row = self._row[node]
        own = self._table[row].copy()
        self._table[row] = 0.0
        combined = np.add.accumulate(self._table, axis=0)[-1]
        self._table[row] = own
        return combined

    def _best_shift(self, node: int) -> int:
        """Least-peak phase for ``node`` given the others, stagger-style.

        Selection keys mirror :func:`repro.core.scheduler._pick_start`
        one level up: (1) smallest projected feeder peak, (2) the current
        claim when it ties (stability — only strict improvements move),
        (3) the earliest phase.
        """
        peaks = (self._combined_others(node)
                 + self._stacks[node]).max(axis=1)
        candidates = np.flatnonzero(peaks <= float(peaks.min()) + 1e-9)
        current = self.claims[node]
        if current in candidates:
            return current
        return int(candidates[0])


def _claim_sweeps(plane: FeederPlane, tokens: Sequence[int],
                  deliveries: int, config: FeederConfig,
                  ) -> tuple[dict[int, int], CpStats, int]:
    """The claim loop: sweep ``tokens`` (one claim round each) until a
    full sweep moves no claim or :attr:`FeederConfig.max_sweeps` is
    reached.  Every round is active and delivers ``deliveries`` items."""
    stats = CpStats()
    sweeps = 0
    for _sweep in range(config.max_sweeps):
        moved = False
        for token in tokens:
            stats.rounds_total += 1
            stats.rounds_active += 1
            stats.deliveries += deliveries
            moved = plane.reclaim(token) or moved
        sweeps += 1
        if not moved:
            break
    return dict(plane.claims), stats, sweeps


def negotiate_offsets(home_ids: Sequence[int],
                      envelopes: dict[int, tuple[float, ...]],
                      shifts: int,
                      config: FeederConfig,
                      ) -> tuple[dict[int, int], CpStats, int]:
    """Run feeder claim rounds from zero claims until they converge.

    Every gateway holds the token once per sweep, in ``home_ids`` order
    (n rounds to a sweep).  Returns the claimed shifts (bins) per home,
    the CP round statistics — identical to what driving the plane
    through :class:`~repro.st.rounds.IdealCP` produced (every round is
    active, all n items reach all n gateways) — and the number of
    sweeps run.
    """
    return _negotiate(FeederPlane(home_ids, envelopes, shifts), config)


def _negotiate(plane: FeederPlane, config: FeederConfig,
               ) -> tuple[dict[int, int], CpStats, int]:
    """:func:`negotiate_offsets`' claim rounds on a freshly published
    ``plane``, which keeps the negotiated claims — the online loop's cold
    epochs carry it into the next epoch instead of building it again."""
    n = len(plane.home_ids)
    return _claim_sweeps(plane, plane.home_ids, n * n, config)


def renegotiate_offsets(plane: FeederPlane, changed: Sequence[int],
                        config: FeederConfig,
                        ) -> tuple[dict[int, int], CpStats, int]:
    """Incrementally re-run claim rounds after an envelope diff.

    The online plane's per-epoch re-negotiation: ``plane`` carries every
    gateway's current claims and (already re-published) envelopes from
    the previous epoch, and only the homes in ``changed`` — those whose
    predicted envelope actually moved — get claim tokens.  Unchanged
    homes keep claims that are still optimal against their unchanged
    envelopes, so the per-sweep work is O(|changed|·n·bins) rather than
    the from-scratch O(n²·bins) of :func:`negotiate_offsets`, and with
    nothing changed no round runs at all — the sub-linear replan cost
    ``benchmarks/test_bench_online.py`` measures.

    CP accounting matches the incremental wire traffic: each round
    delivers *one* updated :class:`HomeItem` to the n gateways (``n``
    deliveries), not the all-to-all re-share of a cold negotiation.
    Returns ``(claims, stats, sweeps)`` like :func:`negotiate_offsets`.
    """
    changed_set = set(changed)
    order = [home for home in plane.home_ids if home in changed_set]
    if not order:
        return dict(plane.claims), CpStats(), 0
    return _claim_sweeps(plane, order, len(plane.home_ids), config)


# ---------------------------------------------------------------------------
# the guarded-apply core
# ---------------------------------------------------------------------------

def _default_epoch(config: FeederConfig, homes: Iterable["HomeSpec"],
                   ) -> float:
    """The phase period: ``config.epoch``, else the largest ``maxDCP``
    of ``homes`` — the recurrence period of the bursts being staggered."""
    if config.epoch is not None:
        return config.epoch
    return max(home.scenario.max_dcp for home in homes)


def _guarded_rotate(table: RecordTable, offsets: Sequence[float],
                    start: float, end: float, baseline_peak: float,
                    guard: bool,
                    ) -> tuple[RecordTable, Optional[tuple[np.ndarray,
                                                           np.ndarray]],
                               bool]:
    """Apply one plan to the ``[start, end)`` window, under the guard.

    Rotates every member of ``table`` by its offset in one
    :func:`rotate_windows` pass and sums the windows exactly
    (:func:`~repro.neighborhood.aggregate.table_sums`).  The plan is
    kept only when some offset is non-zero and — with ``guard`` on — the
    realized peak of the sum strictly beats ``baseline_peak`` (the
    un-rotated sum's peak over the window); otherwise every window comes
    back un-rotated, through the same call at zero offsets.  Returns
    ``(rotated windows, their sum's records, applied)``; the sum is
    ``None`` when the plan is declined, where it is the baseline's.
    Both the full-horizon plans and every online epoch go through here,
    so neither can raise the peak it coordinates.
    """
    applied = any(offset != 0.0 for offset in offsets)
    rotated = rotate_windows(table, offsets, start, end)
    window_sum = None
    if applied:
        window_sum = dedup_records(*table_sums(rotated))
        if guard and float(window_sum[1].max()) >= baseline_peak - 1e-9:
            applied = False
            window_sum = None
            rotated = rotate_windows(table, [0.0] * table.n, start, end)
    return rotated, window_sum, applied


def _coordinate(profiles: Sequence[StepSeries], horizon: float,
                config: FeederConfig, epoch: float, name: str,
                envelopes: Optional[Sequence[tuple[float, ...]]] = None,
                baseline: Optional[StepSeries] = None,
                ) -> FeederCoordination:
    """negotiate → rotate → sum → guard over whole-horizon profiles.

    ``envelopes`` (per profile, at :func:`snap_bin`'s width) and
    ``baseline`` (the profiles' sum) may come precomputed; both are pure
    functions of ``profiles``, so passing them never changes a bit.
    """
    if not profiles:
        raise ValueError("need at least one profile to coordinate")
    epoch = min(epoch, horizon)
    bin_s = snap_bin(horizon, config.bin_s)
    shifts = max(int(epoch / bin_s + 1e-9), 1)
    ids = list(range(len(profiles)))
    if envelopes is None:
        envelopes = [phase_envelope(profile, horizon, bin_s)
                     for profile in profiles]
    claims, cp_stats, sweeps = negotiate_offsets(
        ids, dict(zip(ids, envelopes)), shifts, config)
    planned = tuple(claims[index] * bin_s for index in ids)
    if baseline is None:
        baseline = sum_series(list(profiles), name=name)
    rotated, window_sum, applied = _guarded_rotate(
        RecordTable.of_series(profiles), planned, 0.0, horizon,
        baseline.maximum(0.0, horizon), config.guard)
    return FeederCoordination(
        epoch=epoch, bin_s=bin_s,
        planned_offsets_s=planned,
        offsets_s=planned if applied else tuple(0.0 for _ in planned),
        applied=applied, sweeps=sweeps, cp_stats=cp_stats,
        contributions_w=rotated.series(
            [profile.name for profile in profiles]),
        independent_w=baseline,
        coordinated_w=(StepSeries.from_arrays(name, *window_sum)
                       if applied else baseline))


def coordinate_profiles(profiles: Sequence[StepSeries], horizon: float,
                        config: Optional[FeederConfig] = None,
                        epoch: Optional[float] = None,
                        name: str = "substation") -> FeederCoordination:
    """Negotiate and apply phase offsets between load profiles.

    The one coordination core every full-horizon tier runs: each
    profile is compressed to its :func:`phase_envelope`, round-robin
    claim rounds (:func:`negotiate_offsets`) pick per-profile offsets,
    and offsets apply as :func:`rotate_series` — conserving each
    profile's energy and individual peak exactly.  The
    realized-improvement guard re-checks the rotated sum against the
    un-rotated baseline and declines (zero offsets, ``applied=False``)
    unless the realized aggregate peak strictly improves.
    :func:`coordinate_fleet` is this core over a fleet's homes; the grid's
    substation tier runs it over feeder profiles.

    ``epoch`` (default ``config.epoch``, else the horizon) bounds the
    offsets.  In the returned :class:`FeederCoordination`,
    ``independent_w`` is the *pre-negotiation baseline* — the plain sum
    of the incoming profiles (which may themselves already be
    coordinated).
    """
    if config is None:
        config = FeederConfig()
    if epoch is None:
        epoch = config.epoch if config.epoch is not None else horizon
    return _coordinate(profiles, horizon, config, epoch, name)


def coordinate_fleet(fleet: "FleetSpec", results: Sequence[RunResult],
                     horizon: float,
                     config: Optional[FeederConfig] = None,
                     partials: Optional[Sequence[object]] = None,
                     envelopes: Optional[
                         Sequence[tuple[float, ...]]] = None,
                     ) -> FeederCoordination:
    """Negotiate and apply cross-home phase offsets for a finished run.

    :func:`coordinate_profiles`' core over the homes' load series, with
    the phase period defaulting to the fleet's largest ``maxDCP``.
    ``results`` are the per-home :class:`~repro.core.system.RunResult`
    objects of ``fleet`` (fleet order).  Pure post-exchange: no
    randomness, no re-simulation, bit-identical for any worker count.

    ``partials`` — the per-shard
    :class:`~repro.neighborhood.aggregate.SeriesPartial` pre-reductions
    of the run — let the independent baseline fold from S shard columns
    instead of N homes; ``envelopes`` — per-home phase envelopes (fleet
    order) the shard workers pre-reduced at :func:`snap_bin`'s width —
    skip the parent-side :func:`phase_envelope` pass.  Both are
    bit-identical to computing them here.
    """
    if config is None:
        config = FeederConfig()
    if len(results) != fleet.n_homes:
        raise ValueError(
            f"fleet has {fleet.n_homes} homes but got {len(results)} "
            f"results")
    if envelopes is not None and len(envelopes) != fleet.n_homes:
        raise ValueError(
            f"fleet has {fleet.n_homes} homes but got "
            f"{len(envelopes)} precomputed envelopes")
    series = [result.load_w for result in results]
    baseline = combine_partials(partials, series) \
        if partials is not None else None
    return _coordinate(series, horizon, config,
                       _default_epoch(config, fleet.homes), "feeder",
                       envelopes=envelopes, baseline=baseline)
