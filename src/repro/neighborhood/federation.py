"""Running a neighborhood: fan the homes out, aggregate the feeder.

Each home is one independent :class:`~repro.core.system.HanSystem` run (the
paper's decentralized coordination never crosses the home's meter), so a
neighborhood is embarrassingly parallel: the federation runs the fleet as
shards of homes (:mod:`repro.neighborhood.shard` — a small fleet is one
shard) and folds the returned load series into the feeder profile.

With ``coordination="feeder"`` a second, cross-home collaboration plane
runs after the fan-out: the feeder CP of
:mod:`repro.neighborhood.coordination` negotiates per-home phase offsets
(the paper's announce/claim/stagger exchange, one level up) and the feeder
profile becomes the sum of the re-phased homes.  The home runs themselves
— and therefore per-home peaks, energies and request logs — are untouched,
and the whole pipeline stays bit-identical for any ``jobs`` count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.analysis.loadstats import LoadStats, load_stats
from repro.analysis.report import format_table
from repro.core.system import RunResult
from repro.neighborhood.aggregate import (
    FeederComparison,
    FeederStats,
    combine_partials,
    feeder_stats,
)
from repro.neighborhood.shard import execute_shards, plan_shards
from repro.neighborhood.coordination import (
    FeederConfig,
    FeederCoordination,
    coordinate_fleet,
    snap_bin,
)
from repro.neighborhood.fleet import FleetSpec
from repro.sim.monitor import StepSeries

#: How homes behind the feeder relate: ``"independent"`` (the paper's
#: scheme stops at the meter), ``"feeder"`` (post-hoc cross-home
#: staggering via :mod:`repro.neighborhood.coordination`), or
#: ``"online"`` (per-epoch re-negotiation against predicted envelopes
#: via :mod:`repro.neighborhood.online`).
COORDINATION_MODES = ("independent", "feeder", "online")


@dataclass
class NeighborhoodResult:
    """One neighborhood run: per-home results plus the feeder aggregate.

    When the run was feeder-coordinated, :attr:`coordination` carries the
    negotiated :class:`~repro.neighborhood.coordination.FeederCoordination`
    and :attr:`feeder_w` is the *coordinated* profile; :meth:`comparison`
    then reports the uplift over the independent baseline (which rides
    along in the coordination record — no second run needed).
    """

    fleet: FleetSpec
    homes: list[RunResult]
    feeder_w: StepSeries
    horizon: float
    coordination: Optional[FeederCoordination] = field(default=None)
    #: The declarative :class:`~repro.api.spec.ExperimentSpec` this run
    #: compiled from, when it came through the spec API (``None`` for
    #: hand-built fleets); exporters embed its hash + canonical JSON.
    spec: Optional[object] = field(default=None)
    #: Per-home stats over the default ``[0, horizon)`` window, when the
    #: shard workers pre-computed them (fleet order); :meth:`home_stats`
    #: serves this cache for the default window — same code path in the
    #: worker, so the values are bit-identical to computing them here.
    precomputed_home_stats: Optional[list[LoadStats]] = \
        field(default=None, repr=False)

    @property
    def contributions_w(self) -> list[StepSeries]:
        """Per-home feeder contributions, fleet order.

        The homes' own load series when independent; their phase-rotated
        series under feeder coordination.  Either way the feeder profile
        is exactly their sum.
        """
        if self.coordination is not None:
            return self.coordination.contributions_w
        return [result.load_w for result in self.homes]

    def home_stats(self, start: float = 0.0,
                   end: Optional[float] = None) -> list[LoadStats]:
        """Per-home :class:`~repro.analysis.loadstats.LoadStats`.

        Computed from the homes' own (un-rotated) series: phase rotation
        preserves peak, mean, std and energy, so these are the homes'
        statistics under either coordination mode.
        """
        window_end = end if end is not None else self.horizon
        if (self.precomputed_home_stats is not None and start == 0.0
                and window_end == self.horizon):
            return list(self.precomputed_home_stats)
        return [load_stats(result.load_w, start, window_end)
                for result in self.homes]

    def feeder_stats(self, start: float = 0.0,
                     end: Optional[float] = None,
                     home_stats: Optional[list[LoadStats]] = None,
                     ) -> FeederStats:
        """Feeder aggregate; pass ``home_stats`` to reuse per-home stats
        already computed for the same window."""
        window_end = end if end is not None else self.horizon
        if home_stats is None:
            home_stats = self.home_stats(start, window_end)
        return feeder_stats(
            self.feeder_w, self.contributions_w,
            start, window_end, precomputed_home_stats=home_stats)

    def comparison(self, start: float = 0.0,
                   end: Optional[float] = None) -> Optional[FeederComparison]:
        """Coordinated-vs-independent uplift, if this run was coordinated.

        Returns ``None`` for an independent run (there is nothing to
        compare against without re-running the fleet).
        """
        if self.coordination is None:
            return None
        window_end = end if end is not None else self.horizon
        home_stats = self.home_stats(start, window_end)
        independent = feeder_stats(
            self.coordination.independent_w,
            [result.load_w for result in self.homes],
            start, window_end, precomputed_home_stats=home_stats)
        coordinated = feeder_stats(
            self.coordination.coordinated_w, self.contributions_w,
            start, window_end, precomputed_home_stats=home_stats)
        return FeederComparison(independent=independent,
                                coordinated=coordinated)

    def total_requests(self) -> int:
        """Number of user requests across every home."""
        return sum(len(result.requests) for result in self.homes)

    def render(self) -> str:
        """Plain-text report: one row per home, then the feeder summary.

        Coordinated runs additionally show each home's phase offset and
        the coordinated-vs-independent comparison table.
        """
        home_stats = self.home_stats()
        coordinated = self.coordination is not None
        rows = []
        for index, (spec, stats) in enumerate(zip(self.fleet.homes,
                                                  home_stats)):
            scenario = spec.scenario
            row = [scenario.name, spec.archetype, scenario.n_devices,
                   f"{scenario.arrival_rate_per_hour:.1f}",
                   stats.peak_kw, stats.mean_kw, stats.std_kw]
            if coordinated:
                offset = self.coordination.offsets_s[index]
                row.append(f"{offset / 60.0:.1f}")
            rows.append(row)
        headers = ["home", "archetype", "devices", "rate/h", "peak kW",
                   "mean kW", "std kW"]
        if coordinated:
            headers.append("phase min")
        homes_table = format_table(
            headers, rows,
            title=f"Neighborhood {self.fleet.name} (seed "
                  f"{self.fleet.seed}, {self.fleet.total_devices} "
                  f"devices)")
        feeder_table = format_table(
            ["feeder metric", "value"],
            self.feeder_stats(home_stats=home_stats).rows(),
            title="Feeder aggregate")
        parts = [homes_table, feeder_table]
        if coordinated:
            plan = self.coordination
            comparison = self.comparison()
            status = "applied" if plan.applied else \
                "declined (no realized improvement)"
            epochs = getattr(plan, "epochs", None)
            if epochs:
                title = (f"Online coordination ({status}; "
                         f"{plan.forecaster} forecast, "
                         f"{plan.epochs_applied}/{plan.n_epochs} epochs "
                         f"applied, {plan.cp_stats.rounds_total} CP "
                         f"rounds, {plan.replanned_homes} replans)")
            else:
                title = (f"Feeder coordination ({status}; "
                         f"epoch {plan.epoch / 60.0:.0f} min, "
                         f"{plan.cp_stats.rounds_total} CP rounds, "
                         f"{plan.sweeps} sweeps)")
            comparison_table = format_table(
                ["feeder metric", "independent", "coordinated"],
                comparison.rows(), title=title)
            parts.append(comparison_table)
        return "\n\n".join(parts)


def execute_fleet(fleet: FleetSpec, jobs: int = 1,
                  until: Optional[float] = None,
                  coordination: str = "independent",
                  feeder: Optional[FeederConfig] = None,
                  spec: Optional[object] = None,
                  shard_size: Optional[int] = None,
                  shard_executor=None,
                  forecast: Optional[object] = None) -> NeighborhoodResult:
    """Run every home of ``fleet`` (over ``jobs`` workers) and aggregate.

    This is the neighborhood execution primitive the spec API bottoms
    out in (:func:`repro.api.run.run` compiles the fleet and calls
    here, threading the originating spec through for provenance);
    application code should describe neighborhoods declaratively and go
    through the spec API.

    Homes are seeded independently (see
    :func:`~repro.neighborhood.fleet.home_seed`), so the result is
    bit-identical for any ``jobs``.

    ``coordination`` selects the feeder behaviour (one of
    :data:`COORDINATION_MODES`): ``"independent"`` sums the homes as they
    ran; ``"feeder"`` additionally negotiates cross-home phase offsets
    through :func:`~repro.neighborhood.coordination.coordinate_fleet`
    (optionally tuned by a
    :class:`~repro.neighborhood.coordination.FeederConfig`) and sums the
    re-phased homes instead; ``"online"`` re-negotiates every CP epoch
    against predicted envelopes
    (:func:`~repro.neighborhood.online.coordinate_fleet_online`), with
    ``forecast`` — a :class:`~repro.api.spec.ForecastPlan` (alias
    :class:`~repro.neighborhood.online.ForecastConfig`) — selecting the
    forecaster.

    ``shard_size`` tunes the execution strategy (see
    :mod:`repro.neighborhood.shard`): every fleet runs as shards — each
    worker runs a whole sub-fleet, pre-reduces it locally and ships one
    batched series frame; ``shard_size=None`` sizes shards
    automatically (a small in-process fleet is one shard).  A pure
    execution knob — results are bit-identical for every value.

    ``shard_executor`` swaps the per-shard worker body (see
    :func:`repro.neighborhood.shard.execute_shards`) — the service
    plane's checkpointing hook.
    """
    if coordination not in COORDINATION_MODES:
        known = ", ".join(COORDINATION_MODES)
        raise ValueError(
            f"coordination must be one of: {known}; got {coordination!r}")
    result, _ = _run_feeder(
        fleet, until if until is not None else fleet.horizon, until, jobs,
        coordination, feeder, shard_size, shard_executor, forecast=forecast)
    result.spec = spec
    return result


def _run_feeder(fleet: FleetSpec, horizon: float, until: Optional[float],
                jobs: int, coordination: str,
                feeder: Optional[FeederConfig], shard_size: Optional[int],
                shard_executor, forecast: Optional[object] = None,
                first_shard: int = 0) -> tuple[NeighborhoodResult, list]:
    """Shard, execute and coordinate one feeder's fleet.

    The one feeder path of :func:`execute_fleet` and of every feeder of
    :func:`repro.neighborhood.grid.execute_grid` (which passes its grid
    ``horizon``).  Shard indices start at ``first_shard`` so a grid's
    checkpoint sub-addresses stay unique.  Returns the result (no
    ``spec`` stamped) and the shard partials.
    """
    # Coordinating runs ask the shard workers to pre-reduce each home's
    # phase envelope at the exact (snapped) bin the plane will negotiate
    # with, so the parent-side cost of coordination stays flat in N.
    envelope_bin = None
    if coordination == "feeder":
        envelope_bin = snap_bin(
            horizon, (feeder or FeederConfig()).bin_s)
    shards = [replace(shard, index=first_shard + shard.index)
              for shard in plan_shards(fleet, until=until,
                                       shard_size=shard_size, jobs=jobs,
                                       envelope_bin_s=envelope_bin,
                                       horizon=horizon)]
    results, partials, home_stats, envelopes = execute_shards(
        shards, jobs=jobs, executor=shard_executor)
    plan = None
    if coordination == "feeder":
        plan = coordinate_fleet(fleet, results, horizon, config=feeder,
                                partials=partials, envelopes=envelopes)
    elif coordination == "online":
        from repro.neighborhood.online import coordinate_fleet_online
        plan = coordinate_fleet_online(fleet, results, horizon,
                                       config=feeder, forecast=forecast,
                                       partials=partials)
    feeder_w = plan.coordinated_w if plan is not None else \
        combine_partials(partials, [result.load_w for result in results])
    return NeighborhoodResult(fleet=fleet, homes=results, feeder_w=feeder_w,
                              horizon=horizon, coordination=plan,
                              precomputed_home_stats=home_stats), partials
