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

* each home's gateway (its smart meter uplink) announces the home's
  *claimed-burst envelope* — the per-phase-bin upper bound of its
  Type-2 load (:func:`phase_envelope_window`) — the neighborhood
  analogue of a :class:`~repro.core.state.CpItem`;
* a decentralized **feeder round** mirrors the in-home CP's loss-free
  all-to-all exchange (:class:`~repro.st.rounds.IdealCP` semantics,
  executed directly at fleet scale — see :class:`FeederPlane`): one
  gateway per round holds the claim token and picks the **phase offset**
  minimising the projected feeder peak given every other home's claimed
  envelope — exactly the in-home scheduler's one-by-one stagger logic,
  one level up;
* the negotiated offsets are applied by *phase-rotating* each home's
  realized load profile (:func:`rotate_windows`).  The workloads are
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

One loop serves every tier: :func:`_epoch_loop` runs announce →
claim → rotate → guard → sum once per window of a list of windows and
stitches the windows once at the end.  The batch tiers —
:func:`coordinate_fleet` over a fleet's homes and
:func:`coordinate_profiles` over a grid's feeders (the substation
tier) — are its one-window call over the whole horizon, announcing
the profiles' own envelopes; the online plane
(:func:`repro.neighborhood.online.coordinate_fleet_online`) runs it
over the epoch grid, announcing forecast envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

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

@dataclass(frozen=True)
class FeederConfig:
    """Knobs of the feeder collaboration plane.

    The phase ``epoch`` defaults to the fleet's largest ``maxDCP`` — the
    recurrence period of the bursts being staggered, as in the in-home
    Communication Plane.
    """

    #: phase period the offsets live in; None = max home ``maxDCP``
    epoch: Optional[float] = None
    #: nominal envelope bin width (seconds) — also the offset
    #: granularity; snapped so bins tile the horizon exactly
    bin_s: float = 60.0
    #: maximum full claim sweeps (every gateway claims once per sweep)
    max_sweeps: int = 4
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


@dataclass(frozen=True)
class EpochOutcome:
    """What one CP epoch of an online run decided and realized."""

    #: epoch index, 0-based
    index: int
    #: epoch window ``[start_s, end_s)`` in seconds
    start_s: float
    end_s: float
    #: False when the per-epoch guard declined (offsets forced to zero)
    applied: bool
    #: offsets actually applied this epoch (seconds, fleet order)
    offsets_s: tuple[float, ...]
    #: homes whose predicted envelope moved (= claim tokens granted)
    changed_homes: int
    #: CP rounds this epoch's (re-)negotiation ran
    cp_rounds: int
    #: peak of the independent profile inside the window, watts
    independent_peak_w: float
    #: realized peak of the (possibly rotated) window as applied, watts
    coordinated_peak_w: float
    #: homes served off the degradation ladder this epoch (stale
    #: telemetry → persistence / last committed envelope)
    stale_homes: int = 0


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
    bounds, values = series.segment_arrays(start, end)
    for seg_start, seg_end, value in zip(bounds[:-1].tolist(),
                                         bounds[1:].tolist(),
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

    * every member's segment table (the
      :meth:`~repro.sim.monitor.StepSeries.segment_arrays` partition:
      same boundaries, same values, no arithmetic on either) comes from
      index arithmetic on the table;
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
    of a phase shift).  A ramping fleet is not in steady state, so
    there the wrap moves real load in time: 41% of a 20-home 60-min
    suburb fleet's energy wraps.  Segment durations and values are
    permuted, never changed, so the window's energy, time-weighted
    distribution and peak are preserved exactly; with ``offset == 0``
    the window's own records come back untouched (no float round-trip),
    which is what lets declined plans keep bit-identical realized
    profiles.

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
    envelope and claim every round; at fleet scale (N≥500) that
    all-to-all merge was O(N³) per sweep and dominated the whole run.
    Because IdealCP delivery is loss-free, every gateway's merged view is
    simply "each home's latest claim", so :meth:`reclaim` evolves that
    shared state directly and :func:`negotiate_offsets` accounts the
    identical :class:`~repro.st.rounds.CpStats` the IdealCP rounds
    produced.

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


def negotiate_offsets(plane: FeederPlane, config: FeederConfig,
                      ) -> tuple[dict[int, int], CpStats, int]:
    """Run feeder claim rounds on a freshly published ``plane`` until
    they converge: the cold negotiation.

    Every gateway holds the token once per sweep, in ``plane.home_ids``
    order (n rounds to a sweep).  Returns the claimed shifts (bins) per
    home, the CP round statistics — identical to what driving the plane
    through :class:`~repro.st.rounds.IdealCP` produced (every round is
    active, all n items reach all n gateways) — and the number of
    sweeps run.  ``plane`` keeps the negotiated claims, so an online
    loop carries it into its next epoch's :func:`renegotiate_offsets`.
    """
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
    delivers *one* gateway's updated envelope and claim to the n
    gateways (``n`` deliveries), not the all-to-all re-share of a cold
    negotiation.
    Returns ``(claims, stats, sweeps)`` like :func:`negotiate_offsets`.
    """
    changed_set = set(changed)
    order = [home for home in plane.home_ids if home in changed_set]
    if not order:
        return dict(plane.claims), CpStats(), 0
    return _claim_sweeps(plane, order, len(plane.home_ids), config)


# ---------------------------------------------------------------------------
# the coordination loop
# ---------------------------------------------------------------------------

def _default_epoch(config: FeederConfig, homes: Iterable["HomeSpec"],
                   ) -> float:
    """The phase period: ``config.epoch``, else the largest ``maxDCP``
    of ``homes`` — the recurrence period of the bursts being staggered."""
    if config.epoch is not None:
        return config.epoch
    return max(home.scenario.max_dcp for home in homes)


#: ``predict(index, start, end)``: see :func:`_epoch_loop`
_Predict = Callable[[int, float, float],
                   tuple[dict[int, tuple[float, ...]], int]]


def _epoch_loop(profiles: Sequence[StepSeries], ids: Sequence[int],
                independent: StepSeries,
                windows: Sequence[tuple[float, float]], epoch: float,
                bin_s: float, shifts: int, config: FeederConfig,
                predict: _Predict,
                observe: Optional[Callable[[int, float, float], None]] = None,
                replan: str = "cold", name: str = "feeder",
                ) -> tuple[FeederCoordination, tuple[EpochOutcome, ...], int]:
    """The coordination loop: announce → claim → rotate → guard → sum,
    once per window, then one stitch.

    Per window ``[start, end)`` of ``windows`` (in time order, tiling
    the profiles' horizon):

    1. ``predict(index, start, end)`` returns every member's envelope
       (keyed by id) and how many members it served off a degradation
       ladder.  The first window — and every window under
       ``replan="cold"`` — publishes the envelopes on a fresh
       :class:`FeederPlane` and negotiates from zero claims
       (:func:`negotiate_offsets`); a ``"diff"`` window re-publishes
       only the members whose envelope moved and gives only them claim
       tokens (:func:`renegotiate_offsets`);
    2. every member's offset is its ``claim × bin_s``;
    3. every profile's window rotates by its offset in one
       :func:`rotate_windows` pass and the windows are summed exactly
       (:func:`~repro.neighborhood.aggregate.table_sums`).  The plan is
       kept only when some offset is non-zero and — with
       ``config.guard`` — the sum's peak strictly beats the peak of
       ``independent`` in the window; otherwise every window comes back
       un-rotated through the same call, so no window's peak is raised;
    4. the window's sum is kept — the independent window's records when
       the plan was declined;
    5. ``observe(index, start, end)``, if given, runs, and the window's
       :class:`EpochOutcome` is recorded.

    After the last window each member's contribution is stitched from
    its windows, and the coordinated profile from the window sums
    (:func:`_stitch`); with no window applied it is ``independent``
    itself.  Returns the :class:`FeederCoordination` (``epoch`` as
    given; planned and applied offsets of the last window), the
    outcomes, and the number of claim tokens granted.
    """
    if replan not in ("diff", "cold"):
        raise ValueError(
            f"replan must be 'diff' or 'cold', got {replan!r}")
    table = RecordTable.of_series(profiles)
    #: per window, the applied windows and the sum's records (one
    #: member); stitched into whole-horizon series after the loop
    window_tables: list[RecordTable] = []
    window_sums: list[RecordTable] = []
    outcomes: list[EpochOutcome] = []
    plane: Optional[FeederPlane] = None
    previous: dict[int, tuple[float, ...]] = {}
    totals = CpStats()
    total_sweeps = replanned = 0
    planned = offsets = tuple(0.0 for _ in ids)
    for index, (start, end) in enumerate(windows):
        envelopes, stale = predict(index, start, end)
        if plane is None:
            changed = list(ids)
            plane = FeederPlane(ids, envelopes, shifts)
            claims, stats, sweeps = negotiate_offsets(plane, config)
        else:
            changed = [member for member in ids
                       if envelopes[member] != previous[member]]
            for member in changed:
                plane.update_envelope(member, envelopes[member])
            claims, stats, sweeps = renegotiate_offsets(plane, changed,
                                                        config)
        if replan == "cold":
            # Every window negotiates on a fresh plane; dropping this
            # one now also frees its shift stacks before the apply.
            plane = None
        totals.rounds_total += stats.rounds_total
        totals.rounds_active += stats.rounds_active
        totals.deliveries += stats.deliveries
        totals.misses += stats.misses
        totals.duration_on_air += stats.duration_on_air
        total_sweeps += sweeps
        replanned += len(changed)

        planned = tuple(claims[member] * bin_s for member in ids)
        independent_peak = independent.maximum(start, end)
        rotated = rotate_windows(table, planned, start, end)
        applied = any(offset != 0.0 for offset in planned)
        if applied:
            window_sum = dedup_records(*table_sums(rotated))
            coordinated_peak = float(window_sum[1].max())
            if config.guard \
                    and coordinated_peak >= independent_peak - 1e-9:
                applied = False
                rotated = rotate_windows(table, [0.0] * table.n, start,
                                         end)
        if not applied:
            bounds, values = independent.segment_arrays(start, end)
            window_sum = (bounds[:-1], values)
            coordinated_peak = independent_peak
        window_tables.append(rotated)
        window_sums.append(RecordTable.of([window_sum]))
        offsets = planned if applied else tuple(0.0 for _ in planned)
        if observe is not None:
            observe(index, start, end)
        outcomes.append(EpochOutcome(
            index=index, start_s=start, end_s=end, applied=applied,
            offsets_s=offsets, changed_homes=len(changed),
            cp_rounds=stats.rounds_total,
            independent_peak_w=independent_peak,
            coordinated_peak_w=coordinated_peak,
            stale_homes=stale))
        previous = envelopes

    applied_any = any(outcome.applied for outcome in outcomes)
    coordinated = independent
    if applied_any:
        stitched = _stitch(window_sums)
        coordinated = StepSeries.from_arrays(name, stitched.times,
                                             stitched.values)
    plan = FeederCoordination(
        epoch=epoch, bin_s=bin_s,
        planned_offsets_s=planned, offsets_s=offsets,
        applied=applied_any, sweeps=total_sweeps, cp_stats=totals,
        contributions_w=_stitch(window_tables).series(
            [profile.name for profile in profiles]),
        independent_w=independent, coordinated_w=coordinated)
    return plan, tuple(outcomes), replanned


def _stitch(windows: Sequence[RecordTable]) -> RecordTable:
    """Per-window tables (same members, windows in time order) joined
    into one whole-horizon table.

    Each member's entries are its windows' entries in window order,
    less any entry that repeats the member's previous value — what
    :meth:`~repro.sim.monitor.StepSeries.append` drops when the windows
    arrive one by one.
    """
    times = np.concatenate([window.times for window in windows])
    values = np.concatenate([window.values for window in windows])
    owner = np.concatenate([window.owners() for window in windows])
    order = np.argsort(owner, kind="stable")
    times, values, owner = times[order], values[order], owner[order]
    keep = np.ones(times.size, dtype=bool)
    keep[1:] = (values[1:] != values[:-1]) | (owner[1:] != owner[:-1])
    return RecordTable.of_owned(times[keep], values[keep], owner[keep],
                                windows[0].n)


def _coordinate(profiles: Sequence[StepSeries], horizon: float,
                config: FeederConfig, epoch: float, name: str,
                envelopes: Optional[Sequence[tuple[float, ...]]] = None,
                baseline: Optional[StepSeries] = None,
                ) -> FeederCoordination:
    """The batch tiers: :func:`_epoch_loop`'s one-window call over the
    whole horizon ``[0, horizon)``, announcing each profile's own
    envelope with offsets bounded by ``min(epoch, horizon)``.

    ``envelopes`` (per profile, at :func:`snap_bin`'s width) and
    ``baseline`` (the profiles' sum) may come precomputed; both are pure
    functions of ``profiles``, so passing them never changes a bit.
    """
    if not profiles:
        raise ValueError("need at least one profile to coordinate")
    epoch = min(epoch, horizon)
    bin_s = snap_bin(horizon, config.bin_s)
    ids = list(range(len(profiles)))
    if envelopes is None:
        envelopes = [phase_envelope_window(profile, 0.0, horizon, bin_s)
                     for profile in profiles]
    announced = (dict(zip(ids, envelopes)), 0)
    if baseline is None:
        baseline = sum_series(list(profiles), name=name)
    plan, _outcomes, _replanned = _epoch_loop(
        profiles, ids, baseline, [(0.0, horizon)], epoch, bin_s,
        max(int(epoch / bin_s + 1e-9), 1), config,
        lambda _index, _start, _end: announced, name=name)
    return plan


def coordinate_profiles(profiles: Sequence[StepSeries], horizon: float,
                        config: Optional[FeederConfig] = None,
                        epoch: Optional[float] = None,
                        name: str = "substation") -> FeederCoordination:
    """Negotiate and apply phase offsets between load profiles.

    The one-window call of the coordination loop every full-horizon
    tier runs: each profile is compressed to its
    :func:`phase_envelope_window` over ``[0, horizon)``, round-robin
    claim rounds (:func:`negotiate_offsets`) pick per-profile offsets,
    and offsets apply as :func:`rotate_windows` — conserving each
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
    skip the parent-side :func:`phase_envelope_window` pass.  Both are
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
