"""Fleet of fleets: hierarchical multi-feeder grids under one substation.

The paper coordinates homes behind a *single* feeder; real distribution
grids are trees — homes → feeder → substation → region.  This module
generalizes the neighborhood layer one level up (in the spirit of
distributed residential-neighborhood scheduling, arXiv:2011.04338): a
:class:`GridSpec` holds one built fleet per feeder, and
:func:`execute_grid` runs the whole tree with a **two-tier**
coordination pass:

1. **Feeder tier** — every feeder runs the one feeder runner behind
   :func:`~repro.neighborhood.federation.execute_fleet`, staggering its
   homes exactly as a neighborhood run would.  Shard workers pre-reduce
   each home's phase envelope locally
   (:attr:`repro.neighborhood.shard.ShardSpec.envelope_bin_s`), so the
   parent never recomputes per-home envelopes.
2. **Substation tier** — the *feeder-level* profiles become the unit
   that flows up the tree (per arXiv:2304.11770's aggregate-envelope
   evaluation): the same coordination loop
   (:func:`repro.neighborhood.coordination.coordinate_profiles`) runs
   over feeder profiles instead of homes — envelopes, claim rounds,
   energy/peak-conserving rotation and the realized-improvement guard.
   The substation plane never regresses the grid it coordinates.

Aggregation composes exactly up the tree because
:func:`repro.neighborhood.aggregate.combine_partials` is
partition-invariant: the substation's fully-independent profile is the
*correctly rounded* (``math.fsum``-equal) per-event sum of **all** home
series, no matter how homes are grouped into feeders or shards — the
invariant ``tests/test_grid_invariants.py`` locks over randomized
topologies.

Determinism mirrors the single-feeder plane: feeder ``i`` of a grid
builds with :func:`feeder_seed`, feeder 0 inheriting the root seed, so
a flat single-feeder :class:`GridSpec` reproduces the ``neighborhood``
spec kind bit for bit, and every execution knob (``jobs``,
``shard_size``, shard executor) is a pure strategy that never changes
result bits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.report import format_table
from repro.neighborhood.aggregate import (
    FeederComparison,
    FeederStats,
    combine_partials,
    feeder_stats,
    sum_series,
)
from repro.neighborhood.coordination import (
    FeederConfig,
    FeederCoordination,
    _default_epoch,
    coordinate_profiles,
)
from repro.neighborhood.federation import NeighborhoodResult, _run_feeder
from repro.neighborhood.fleet import FleetSpec, build_fleet
from repro.sim.monitor import StepSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import FeederPlan

#: How the grid's tiers coordinate: ``"independent"`` (no negotiation
#: anywhere), ``"feeder"`` (today's per-feeder CP rounds, nothing
#: above), or ``"substation"`` (per-feeder rounds, then feeder-level
#: envelopes negotiate at the substation tier).
GRID_COORDINATION_MODES = ("independent", "feeder", "substation")


def feeder_seed(root_seed: int, feeder_index: int) -> int:
    """Derive feeder ``feeder_index``'s fleet seed from the grid seed.

    Feeder 0 *inherits* the root seed, so a single-feeder grid builds
    exactly the fleet the ``neighborhood`` kind builds from the same
    spec seed — the flat-grid bit-identity the invariant suite locks.
    Later feeders hash, exactly like
    :func:`repro.neighborhood.fleet.home_seed` one level down:
    collision-free in practice, stable across processes and platforms.
    """
    if feeder_index == 0:
        return root_seed
    token = f"feeder-seed:{root_seed}:{feeder_index}".encode()
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class GridSpec:
    """One grid, fully built: a tuple of feeder fleets under a substation.

    Produced by :func:`build_grid` (or assembled by hand from
    :class:`~repro.neighborhood.fleet.FleetSpec` values — the escape
    hatch the feeder-grouping invariance tests use); executed by
    :func:`execute_grid`.
    """

    name: str
    seed: int
    feeders: tuple[FleetSpec, ...]

    @property
    def n_feeders(self) -> int:
        """Number of feeder fleets under the substation."""
        return len(self.feeders)

    @property
    def n_homes(self) -> int:
        """Total homes across every feeder."""
        return sum(fleet.n_homes for fleet in self.feeders)

    @property
    def total_devices(self) -> int:
        """Total appliance count across every home of every feeder."""
        return sum(fleet.total_devices for fleet in self.feeders)

    @property
    def horizon(self) -> float:
        """Grid observation window: the largest feeder horizon."""
        return max(fleet.horizon for fleet in self.feeders)


def build_grid(feeders: Sequence[FeederPlan], seed: int = 1,
               policy: str = "coordinated", cp_fidelity: str = "round",
               horizon: Optional[float] = None,
               name: Optional[str] = None) -> GridSpec:
    """Deterministically build a grid of feeder fleets from plans.

    Each entry of ``feeders`` is a :class:`repro.api.spec.FeederPlan`
    (the :func:`~repro.neighborhood.fleet.build_fleet` build knobs of
    one feeder).  Feeder ``i`` builds with :func:`feeder_seed(seed, i)
    <feeder_seed>` and is renamed ``<grid>/feeder<i>`` so shard-level
    diagnostics name the feeder they came from.
    """
    if not feeders:
        raise ValueError("a grid needs at least one feeder plan")
    fleets = [build_fleet(plan.homes, mix=plan.mix,
                          seed=feeder_seed(seed, index), policy=policy,
                          cp_fidelity=cp_fidelity, horizon=horizon,
                          rate_jitter=plan.rate_jitter,
                          size_jitter=plan.size_jitter)
              for index, plan in enumerate(feeders)]
    grid_name = name if name is not None else \
        f"grid-{len(fleets)}feeders-{sum(f.n_homes for f in fleets)}homes"
    fleets = [replace(fleet, name=f"{grid_name}/feeder{index}")
              for index, fleet in enumerate(fleets)]
    return GridSpec(name=grid_name, seed=seed, feeders=tuple(fleets))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class GridResult:
    """One grid run: per-feeder results plus the substation aggregate.

    :attr:`feeders` are full
    :class:`~repro.neighborhood.federation.NeighborhoodResult` values —
    each feeder is inspectable exactly like a single-feeder run,
    including its own tier-1 coordination record.  :attr:`coordination`
    (when the grid ran in ``"substation"`` mode) is the tier-2 record
    over feeder profiles; its ``independent_w`` is the pre-substation
    baseline, while :attr:`independent_w` here is the *fully*
    independent substation profile — the partition-invariant
    correctly-rounded sum of every home series in the grid.
    """

    grid: GridSpec
    feeders: list[NeighborhoodResult]
    #: what the substation carries under the selected coordination mode
    substation_w: StepSeries
    #: correctly rounded Σ of all (un-rotated) home series in the grid
    independent_w: StepSeries
    horizon: float
    #: the :data:`GRID_COORDINATION_MODES` entry this grid ran with
    coordination_mode: str = "independent"
    #: tier-2 (substation) negotiation record, ``"substation"`` mode only
    coordination: Optional[FeederCoordination] = field(default=None)
    #: originating :class:`~repro.api.spec.ExperimentSpec`, when any
    spec: Optional[object] = field(default=None)

    @property
    def n_feeders(self) -> int:
        """Number of executed feeders feeding the substation."""
        return len(self.feeders)

    @property
    def n_homes(self) -> int:
        """Total homes across every executed feeder."""
        return sum(len(feeder.homes) for feeder in self.feeders)

    def total_requests(self) -> int:
        """Number of user requests across every home of every feeder."""
        return sum(feeder.total_requests() for feeder in self.feeders)

    @property
    def feeder_profiles_w(self) -> list[StepSeries]:
        """Per-feeder substation contributions, feeder order.

        Each feeder's own profile (tier-1 coordinated when the mode
        says so), rotated by its substation offset when tier 2 applied
        one.  The substation profile is exactly their sum.
        """
        if self.coordination is not None:
            return self.coordination.contributions_w
        return [feeder.feeder_w for feeder in self.feeders]

    def substation_stats(self, start: float = 0.0,
                         end: Optional[float] = None) -> FeederStats:
        """Substation aggregate statistics; members are *feeders*.

        Same :class:`~repro.neighborhood.aggregate.FeederStats` shape
        one tier up — ``n_homes``/``sum_home_peaks_kw`` count feeder
        profiles, so ``diversity_factor`` reads as the *inter-feeder*
        diversity the substation sees.
        """
        window_end = end if end is not None else self.horizon
        return feeder_stats(self.substation_w, self.feeder_profiles_w,
                            start, window_end)

    def comparison(self, start: float = 0.0,
                   end: Optional[float] = None,
                   ) -> Optional[FeederComparison]:
        """Coordinated-vs-independent uplift at the substation tier.

        The independent side is the fully-independent grid (no
        negotiation at either tier); the coordinated side is the grid
        as ran.  ``None`` in ``"independent"`` mode — both sides would
        be the same profile.
        """
        if self.coordination_mode == "independent":
            return None
        window_end = end if end is not None else self.horizon
        independent_members = [
            feeder.coordination.independent_w
            if feeder.coordination is not None else feeder.feeder_w
            for feeder in self.feeders]
        independent = feeder_stats(self.independent_w,
                                   independent_members, start, window_end)
        coordinated = feeder_stats(self.substation_w,
                                   self.feeder_profiles_w, start,
                                   window_end)
        return FeederComparison(independent=independent,
                                coordinated=coordinated)

    def render(self) -> str:
        """Plain-text report: one row per feeder, then the substation."""
        coordinated = self.coordination is not None
        rows = []
        for index, feeder in enumerate(self.feeders):
            stats = feeder.feeder_stats()
            row = [f"feeder{index}", feeder.fleet.n_homes,
                   feeder.fleet.total_devices,
                   f"{stats.coincident_peak_kw:.2f}",
                   f"{stats.diversity_factor:.3f}"]
            if coordinated:
                offset = self.coordination.offsets_s[index]
                row.append(f"{offset / 60.0:.1f}")
            rows.append(row)
        headers = ["feeder", "homes", "devices", "peak kW", "diversity"]
        if coordinated:
            headers.append("phase min")
        feeders_table = format_table(
            headers, rows,
            title=f"Grid {self.grid.name} (seed {self.grid.seed}, "
                  f"{self.n_homes} homes, "
                  f"{self.grid.total_devices} devices)")
        substation_table = format_table(
            ["substation metric", "value"],
            self.substation_stats().rows(),
            title="Substation aggregate")
        parts = [feeders_table, substation_table]
        comparison = self.comparison()
        if comparison is not None:
            if coordinated:
                plan = self.coordination
                status = "applied" if plan.applied else \
                    "declined (no realized improvement)"
                title = (f"Substation coordination ({status}; "
                         f"epoch {plan.epoch / 60.0:.0f} min, "
                         f"{plan.cp_stats.rounds_total} CP rounds, "
                         f"{plan.sweeps} sweeps)")
            else:
                title = "Grid coordination (feeder tier only)"
            parts.append(format_table(
                ["substation metric", "independent", "coordinated"],
                comparison.rows(), title=title))
        return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def execute_grid(grid: GridSpec, jobs: int = 1,
                 until: Optional[float] = None,
                 coordination: str = "independent",
                 feeder: Optional[FeederConfig] = None,
                 spec: Optional[object] = None,
                 shard_size: Optional[int] = None,
                 shard_executor=None) -> GridResult:
    """Run every feeder of ``grid`` and aggregate up to the substation.

    The grid execution primitive the spec API bottoms out in
    (:func:`repro.api.run.run` compiles a ``grid`` spec and calls
    here).  Every feeder runs :func:`~repro.neighborhood.federation
    .execute_fleet`'s feeder runner, with shard indices numbered
    *globally* across feeders so service-plane checkpoint
    sub-addresses (:func:`repro.api.compile.shard_sub_hash`) stay
    unique.

    ``coordination`` is one of :data:`GRID_COORDINATION_MODES`; the
    optional ``feeder`` :class:`FeederConfig` tunes both tiers (the
    substation tier negotiates over feeder profiles with the same
    knobs).  Every other parameter is a pure execution strategy,
    bit-identical across all values — locked by
    ``tests/test_grid_invariants.py``.
    """
    if coordination not in GRID_COORDINATION_MODES:
        known = ", ".join(GRID_COORDINATION_MODES)
        raise ValueError(
            f"coordination must be one of: {known}; got {coordination!r}")
    config = feeder if feeder is not None else FeederConfig()
    horizon = until if until is not None else grid.horizon
    feeder_mode = "independent" if coordination == "independent" else "feeder"

    feeder_results: list[NeighborhoodResult] = []
    all_partials: list[object] = []
    for fleet in grid.feeders:
        result, partials = _run_feeder(
            fleet, horizon, until, jobs, feeder_mode, config, shard_size,
            shard_executor, first_shard=len(all_partials))
        feeder_results.append(result)
        all_partials.extend(partials)

    # The fully-independent substation profile folds from *all* shard
    # partials at once: partition-invariant, so any feeder grouping or
    # shard size yields the exact fsum of every home series.
    independent_w = combine_partials(
        all_partials, [home.load_w for result in feeder_results
                       for home in result.homes], name="substation")
    substation_plan = None
    if coordination == "independent":
        substation_w = independent_w
    elif coordination == "feeder":
        substation_w = sum_series(
            [feeder.feeder_w for feeder in feeder_results],
            name="substation")
    else:
        substation_plan = coordinate_profiles(
            [feeder.feeder_w for feeder in feeder_results], horizon,
            config=config, epoch=_default_epoch(
                config, (home for fleet in grid.feeders
                         for home in fleet.homes)))
        substation_w = substation_plan.coordinated_w
    return GridResult(grid=grid, feeders=feeder_results,
                      substation_w=substation_w,
                      independent_w=independent_w, horizon=horizon,
                      coordination_mode=coordination,
                      coordination=substation_plan, spec=spec)
